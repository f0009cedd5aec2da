"""RL001 — the layer DAG (DESIGN.md, "The interned-ID boundary contract").

One declarative DAG in ``config/layers.toml`` replaces the four
per-package ruff TID251 gates and covers *every* ``repro.*`` package: a
module may import its own entry, anything below it in the DAG
(transitively), and — **only from function scope** — the entries its
layer declares as ``defers`` (the documented upward seams, e.g.
``repro.io`` instantiating engines from its format registry).

A module not covered by any entry is itself a finding: new packages
must take a position in the DAG before they can land.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.core import (
    Finding,
    LayerGraph,
    ModuleSource,
    Rule,
    register,
)


def iter_imports(tree: ast.Module, module: str):
    """Yield ``(node, target_module, deferred)`` for every repro import.

    ``deferred`` is True for imports nested inside a function body —
    executed on call, not at module import time.  Relative imports are
    resolved against the importing module's package.
    """
    parts = module.split(".")

    def walk(node: ast.AST, deferred: bool):
        for child in ast.iter_child_nodes(node):
            child_deferred = deferred or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            if isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name == "repro" or alias.name.startswith("repro."):
                        yield child, alias.name, deferred
            elif isinstance(child, ast.ImportFrom):
                target = child.module
                if child.level:
                    # ``from .wal import x`` inside repro.delta.log:
                    # level strips that many trailing components off the
                    # importing module's dotted name.
                    base = parts[: len(parts) - child.level]
                    target = ".".join(base + ([target] if target else []))
                if target and (target == "repro" or target.startswith("repro.")):
                    yield child, target, deferred
            else:
                yield from walk(child, child_deferred)

    yield from walk(tree, False)


@register
class LayeringRule(Rule):
    rule_id = "RL001"
    name = "layering"
    severity = "error"
    description = (
        "every repro.* import follows the declarative layer DAG in "
        "config/layers.toml"
    )

    def check(self, module: ModuleSource, layers: LayerGraph) -> Iterator[Finding]:
        entry = layers.entry_for(module.module)
        if entry is None:
            yield Finding(
                rule=self.rule_id,
                severity=self.severity,
                path=module.rel_path,
                line=1,
                col=1,
                message=(
                    f"module {module.module} is not covered by any "
                    "[[package]] entry in config/layers.toml; give it a "
                    "position in the layer DAG"
                ),
            )
            return
        allowed = layers.allowed(entry.name)
        for node, target, deferred in iter_imports(module.tree, module.module):
            target_entry = layers.entry_for(target)
            if target_entry is None:
                yield self.finding(
                    module,
                    node,
                    f"import of {target} which no layers.toml entry covers",
                )
                continue
            if target_entry.name == entry.name:
                continue
            if target.startswith(entry.name + "."):
                # A package importing its own higher-layered submodule
                # (repro.storage -> repro.storage.diskindex) is the submodule's
                # problem, not the package's.
                continue
            if target_entry.name in allowed:
                continue
            if target_entry.name in entry.defers:
                if deferred:
                    continue
                yield self.finding(
                    module,
                    node,
                    f"{entry.name} may reach {target_entry.name} only via a "
                    f"deferred (function-local) import, but {target} is "
                    "imported at module scope",
                )
                continue
            yield self.finding(
                module,
                node,
                f"{entry.name} does not depend on {target_entry.name} in the "
                f"layer DAG, so {module.module} may not import {target}",
            )
