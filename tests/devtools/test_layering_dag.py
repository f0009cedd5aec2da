"""The real layer DAG, applied to the real tree — one parameterized test.

This replaces the per-package ast-walk layering tests
(``tests/compact/test_layering.py``, ``tests/shard/test_layering.py``,
and the kernel copy in ``tests/kernel/test_program.py``): every entry of
``config/layers.toml`` gets its own test case, driven by the same DAG
the ``repro lint`` CI gate enforces, so a new package is covered the
moment it takes a DAG position — with no new test to remember.
"""

from pathlib import Path

import pytest

from repro.devtools.lint import run_lint
from repro.devtools.lint.core import (
    iter_module_files,
    load_layers,
    module_name_for,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
LAYERS = load_layers(REPO_ROOT / "config" / "layers.toml")


@pytest.fixture(scope="module")
def layering_result():
    return run_lint(REPO_ROOT, rules=["RL001"])


@pytest.mark.parametrize("entry", sorted(LAYERS.entries), ids=str)
def test_entry_respects_the_dag(layering_result, entry):
    offending = [
        f"{f.path}:{f.line}: {f.message}"
        for f in layering_result.findings
        if LAYERS.entry_for(_module_of(f.path)) is LAYERS.entries[entry]
    ]
    assert not offending, (
        f"{entry} violates config/layers.toml:\n" + "\n".join(offending)
    )


def test_no_layering_findings_at_all(layering_result):
    assert layering_result.clean, [
        f"{f.path}:{f.line}: {f.message}" for f in layering_result.findings
    ]


def test_every_module_is_covered_by_exactly_one_entry():
    for path in iter_module_files([REPO_ROOT / "src" / "repro"]):
        module = module_name_for(path)
        assert module is not None, path
        assert LAYERS.entry_for(module) is not None, (
            f"{module} ({path}) has no entry in config/layers.toml; "
            "give the new package a DAG position"
        )


def test_dag_documents_known_positions():
    """Spot-check load-bearing facts the DAG encodes (regression pins)."""
    allowed_of = LAYERS.allowed
    # The serving layer may reach the write path, never the reverse.
    assert "repro.delta" in allowed_of("repro.service")
    assert "repro.service" not in allowed_of("repro.delta")
    # Kernel stays below the engine.
    assert "repro.engine" not in allowed_of("repro.kernel")
    # The binary index reader sits above the closure layer, unlike the
    # rest of storage; core stays below the engine.
    assert "repro.closure" in allowed_of("repro.storage.diskindex")
    assert "repro.closure" not in allowed_of("repro.storage")
    assert "repro.engine" not in allowed_of("repro.core")
    # devtools is importable from the write path and serving layers
    # (make_lock) but depends on nothing above the exceptions/utils base.
    assert "repro.devtools" in allowed_of("repro.delta")
    assert allowed_of("repro.devtools") <= {
        "repro.devtools", "repro.exceptions", "repro.utils",
    }


def _module_of(rel_path: str) -> str:
    return module_name_for(Path(rel_path)) or ""
