"""Every name ``benchmarks/*.py`` imports from the harness packages exists.

The paper-figure scripts are only linted in CI, never imported, so a
dropped ``repro.bench`` or ``repro.workloads`` export would otherwise fail
nowhere.  The scan is static: the scripts are read, not run.
"""

import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
PACKAGES = ("repro.bench", "repro.workloads")


def _imported_names():
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith(PACKAGES)
            ):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_every_imported_harness_name_exists():
    imported = list(_imported_names())
    names = {name for _, _, name in imported}
    assert {"get_workbench", "print_series", "kgpm_query_suite"} <= names
    missing = [
        f"{script}: from {module} import {name}"
        for script, module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing
