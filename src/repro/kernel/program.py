"""Lowering: a ``CompiledQuery`` becomes a flat kernel program.

The compiled tier replaces per-node interpreter walks (dict-of-slots
run-time graphs, ``StaticSlot`` objects, repr-keyed orderings recomputed
per request) with one *program*: a short register-style opcode sequence
plus the structural tables an executor needs to run it over flat arrays.

The opcode set (see DESIGN.md "Compiled kernel tier"):

``SCAN``
    label-range scan — candidates of one query node from a single label
    range of the interned id space.
``FANOUT``
    wildcard / containment fan-out — the matcher expands one query label
    into several label ranges (or the whole alphabet for ``*``).
``PROBE``
    closure-row probe — read the ``L`` pair tables of one query edge as
    their memoized tail-major views (per tail, its rows in distance
    order).
``DIRECT``
    direct-child check — a ``/`` axis restricts the probed rows to
    closure entries realized by a direct data edge.  The check is pushed
    down into the probe's read (the store filters on its per-pair direct
    flags); the opcode marks the restriction in the listing.
``ACCUM``
    score-accumulate — bottom-up ``bs`` scores from each tail's minimum
    of ``bs[head] + dist`` at bind time; each live parent's slot, sorted
    by ``(key, repr)`` (the interpreter's exact tie order), the first
    time the enumeration reads it.
``ROOTS``
    build the root slot from the surviving root candidates.
``PUSH``
    top-k push — the Lawler enumeration loop over the bound slots.

A :class:`KernelProgram` is *store-independent*: it captures only query
structure (BFS positions, parent/child edge tables, axes, labels), so a
serving layer can cache it alongside the plan and bind it to whatever
snapshot is current.  Binding and execution live in
:mod:`repro.kernel.executor`.

Layering: this package sits below the engine and serving layers and must
never import them (rule RL001 of ``repro lint``, ``config/layers.toml``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.graph.query import EdgeType
from repro.query.compiler import CompiledQuery

#: Execution-tier names surfaced by plans (``QueryPlan.tier``).
TIER_COMPILED = "compiled"
TIER_INTERPRETED = "interpreted"

#: Planner guard: the kernel's bind reads every pair table of every
#: edge, as a full load does (only slot sorting waits for the
#: enumeration), so plans whose estimated copy count exceeds this cap
#: stay on the lazy interpreter (Topk-EN touches a sliver of a huge
#: candidate space; the bind's reads would not).
#: ``max(cap, config.full_load_threshold)`` is the effective bound.
KERNEL_LOAD_CAP = 4096

#: The tree algorithms whose plans the compiled tier may replace.  The
#: kernel executes the fully-loaded reference semantics (byte-for-byte
#: the ``topk`` interpreter); ``topk-en`` plans share the repo-wide
#: comparable top-k contract, so replacing their execution is sound.
KERNEL_ALGORITHMS = ("topk", "topk-en")

_KERNEL_OFF = frozenset({"0", "false", "no", "off"})


class KernelUnsupported(Exception):
    """Raised when a query shape cannot lower to a kernel program."""


def kernel_enabled() -> bool:
    """True unless the ``REPRO_KERNEL`` kill switch turns the tier off."""
    return os.environ.get("REPRO_KERNEL", "").strip().lower() not in _KERNEL_OFF


def supports(compiled: CompiledQuery, algorithm: str | None = None) -> bool:
    """True when ``compiled`` (under ``algorithm``) can execute compiled.

    Cyclic ``graph(...)`` patterns stay on the kGPM interpreter; the
    DP baselines and brute force stay interpreted by design (they are
    the paper's comparison points, not hot paths).
    """
    if compiled.is_cyclic:
        return False
    if algorithm is not None and algorithm not in KERNEL_ALGORITHMS:
        return False
    return True


@dataclass(frozen=True)
class KernelOp:
    """One flat-program instruction: opcode, destination register, text."""

    code: str
    dest: str
    text: str

    def render(self, index: int) -> str:
        return f"{index:3d}  {self.code:<7} {self.dest:<5} {self.text}"


class KernelProgram:
    """A lowered query: opcode listing + the executor's structure tables.

    Equality and hashing are by identity — plan caches key programs by
    the object, and two lowerings of the same query are interchangeable
    but never compared.  The opcode listing (:attr:`ops`) is formatted
    the first time it is read: execution reads only the structure
    tables.
    """

    __slots__ = (
        "query",
        "order",
        "labels",
        "wildcards",
        "parent_pos",
        "edge_in",
        "child_edges",
        "edge_specs",
        "_ops",
        "matcher_kind",
    )

    def __init__(self, compiled: CompiledQuery) -> None:
        query = compiled.tree
        self.query = query
        order = tuple(query.bfs_order())
        self.order = order
        pos_of = {u: i for i, u in enumerate(order)}
        self.labels = tuple(query.label(u) for u in order)
        self.wildcards = tuple(query.is_wildcard(u) for u in order)
        self.parent_pos = tuple(
            None if query.parent(u) is None else pos_of[query.parent(u)]
            for u in order
        )
        # Edges indexed in (parent BFS position, children order): edge e
        # goes parent_pos -> child_pos, direct-only when the axis is '/'.
        edge_specs: list[tuple[int, int, bool]] = []
        child_edges: list[tuple[tuple[int, int], ...]] = []
        edge_in: list[int | None] = [None] * len(order)
        for i, u in enumerate(order):
            mine = []
            for child in query.children(u):
                j = pos_of[child]
                direct = query.edge_type(u, child) is EdgeType.CHILD
                e = len(edge_specs)
                edge_specs.append((i, j, direct))
                edge_in[j] = e
                mine.append((e, j))
            child_edges.append(tuple(mine))
        self.edge_specs = tuple(edge_specs)
        self.child_edges = tuple(child_edges)
        self.edge_in = tuple(edge_in)
        self.matcher_kind = compiled.matcher_kind
        self._ops = None

    # ------------------------------------------------------------------
    @property
    def ops(self) -> tuple[KernelOp, ...]:
        """The opcode listing, formatted on first read (racing first
        reads may format it twice; one attribute store publishes it)."""
        ops = self._ops
        if ops is None:
            ops = self._ops = tuple(self._lower_ops())
        return ops

    @property
    def num_positions(self) -> int:
        return len(self.order)

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    def _label_text(self, pos: int) -> str:
        if self.wildcards[pos]:
            return "*"
        return str(self.labels[pos])

    def _lower_ops(self) -> list[KernelOp]:
        ops: list[KernelOp] = []
        # Only a query-compiled non-equality matcher (containment) fans
        # one query label out statically; "engine-default" resolves at
        # bind time and almost always means plain equality scans.
        fanout = self.matcher_kind not in ("equality", "engine-default")
        for i, qnode in enumerate(self.order):
            wild = self.wildcards[i]
            code = "FANOUT" if (wild or fanout) else "SCAN"
            source = (
                "L[*] (alphabet fan-out)"
                if wild
                else f"L[{self._label_text(i)}]"
                + (" (matcher fan-out)" if fanout else "")
            )
            ops.append(
                KernelOp(code, f"r{i}", f"<- {source}  ; candidates of {qnode}")
            )
        for e, (i, j, direct) in enumerate(self.edge_specs):
            axis = "/" if direct else "//"
            ops.append(
                KernelOp(
                    "PROBE",
                    f"e{e}",
                    f"<- rows(r{i} -> r{j})  ; closure rows "
                    f"{self.order[i]}{axis}{self.order[j]}",
                )
            )
            if direct:
                ops.append(
                    KernelOp(
                        "DIRECT",
                        f"e{e}",
                        f"<- direct(e{e})  ; '/' axis keeps direct edges",
                    )
                )
        for i in range(len(self.order) - 1, -1, -1):
            kids = self.child_edges[i]
            terms = " + ".join(f"min e{e}" for e, _ in kids)
            rhs = f"w(r{i})" + (f" + {terms}" if terms else "")
            ops.append(
                KernelOp(
                    "ACCUM",
                    f"r{i}",
                    f"bs[r{i}] <- {rhs}  ; slots sorted by (key, repr)",
                )
            )
        ops.append(KernelOp("ROOTS", "root", "<- viable(r0)  ; root slot"))
        ops.append(KernelOp("PUSH", "topk", "<- lawler(root)  ; enumerate best-first"))
        return ops

    def listing(self) -> str:
        """The opcode listing (what ``repro query show --compiled`` prints)."""
        return "\n".join(op.render(i) for i, op in enumerate(self.ops))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelProgram({self.num_positions} positions, "
            f"{len(self.edge_specs)} edges, {self.num_ops} ops)"
        )


def compile_program(compiled: CompiledQuery) -> KernelProgram:
    """Lower ``compiled`` into a :class:`KernelProgram`.

    Raises :class:`KernelUnsupported` for shapes the kernel does not
    execute (cyclic patterns run in the kGPM interpreter).
    """
    if compiled.is_cyclic:
        raise KernelUnsupported(
            "cyclic graph(...) patterns execute in the kGPM interpreter"
        )
    return KernelProgram(compiled)
