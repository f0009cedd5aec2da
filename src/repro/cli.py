"""Command-line interface.

Subcommands::

    python -m repro.cli match   --graph g.tsv --query 'A//B[C]' -k 10
    python -m repro.cli gpm     --graph g.tsv --query 'graph(a:A, b:B; a-b)'
    python -m repro.cli query   check 'A//B[C][*]/D'
    python -m repro.cli query   show  'A//~db+systems'
    python -m repro.cli stats   --graph g.tsv
    python -m repro.cli index   --graph g.tsv --backend full --out g.ridx
    python -m repro.cli lint    --format json
    python -m repro.cli compact --index g.ridx --wal g.wal
    python -m repro.cli delta   info g.wal
    python -m repro.cli generate --family citation --nodes 1000 --out g.tsv

``--query`` accepts either DSL text (``A//B[C]``, ``graph(a:A, b:B; a-b)``)
or a path to a query JSON document; malformed DSL exits with code 2 and a
caret-annotated syntax error.  ``match`` runs top-k matching through
:class:`repro.engine.MatchEngine` with a chosen algorithm/backend
(``auto`` lets the planner pick) and prints the matches as JSON;
``--explain`` prints the query plan (including the compiled semantics),
``--load-index`` answers from a persisted index instead of rebuilding the
closure.  Cyclic ``graph(...)`` patterns route through the kGPM
decomposition framework automatically.  ``gpm`` forces the kGPM path with
an explicit tree matcher choice; ``query check``/``query show`` validate
and pretty-print queries without touching a graph; ``stats`` reports
closure/theta statistics (the offline cost of Table 2); ``index`` builds
and saves an index (the paper's offline phase, paid once per dataset) —
binary ``.ridx`` by default (mmap-paged, zero-parse cold start), JSON
with ``--format json``; ``--load-index`` sniffs the format either way;
``lint`` runs the :mod:`repro.devtools.lint` contract checks (the
DESIGN.md invariants, driven by ``config/layers.toml``) over the source
tree; ``compact`` folds a write-ahead delta segment into the next
``.ridx`` generation offline (the swap protocol DESIGN.md specifies);
``delta info`` inspects a WAL segment or a generations manifest without
touching it; ``generate`` writes one of the synthetic workload graphs.

Exit codes are uniform across subcommands: **0** success (clean run, no
findings), **1** findings (``lint`` violations), **2** usage or runtime
errors (bad flags, missing or malformed input files, engine
misconfiguration).

With ``pip install -e .`` the same interface is exposed as the ``repro``
console script.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.engine import BACKENDS, ENGINE_ALGORITHMS, MatchEngine
from repro.exceptions import QuerySyntaxError, ReproError
from repro.gpm.mtree import KGPMEngine
from repro.graph.generators import citation_graph, erdos_renyi_graph, powerlaw_graph
from repro.graph.query import QueryTree
from repro.io import load_graph_tsv, load_query, matches_to_json, save_graph_tsv
from repro.query import CompiledQuery, compile_query

_BACKEND_CHOICES = ("auto",) + BACKENDS

_MATCH_ALGORITHMS = ENGINE_ALGORITHMS + ("mtree+", "mtree")


def _compile_query_arg(value: str) -> CompiledQuery:
    """``--query`` accepts DSL text or a path to a query JSON document.

    Anything that exists on disk (or ends in ``.json``) is treated as a
    file; everything else is parsed as DSL.
    """
    if os.path.exists(value):
        return compile_query(load_query(value))
    if value.endswith(".json"):
        raise ReproError(f"query file {value!r} does not exist")
    return compile_query(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-k tree/graph pattern matching (VLDB'15 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    match = sub.add_parser("match", help="top-k pattern matching")
    match.add_argument("--graph", help="data graph (TSV)")
    match.add_argument(
        "--query", required=True,
        help="DSL text (e.g. 'A//B[C]', 'graph(a:A, b:B; a-b)') or a "
        "query JSON path",
    )
    match.add_argument("-k", type=int, default=10, help="number of matches")
    match.add_argument(
        "--algorithm", choices=_MATCH_ALGORITHMS, default="auto",
        help="matching algorithm ('auto' lets the planner pick; "
        "'mtree+'/'mtree' apply to cyclic patterns)",
    )
    match.add_argument(
        "--backend", choices=_BACKEND_CHOICES, default="auto",
        help="closure backend ('auto' picks from graph size)",
    )
    match.add_argument(
        "--explain", action="store_true",
        help="print the query plan to stderr before running",
    )
    match.add_argument(
        "--load-index", metavar="PATH",
        help="answer from a saved index instead of --graph",
    )
    match.add_argument(
        "--save-index", metavar="PATH",
        help="persist the built index for later --load-index runs",
    )

    gpm = sub.add_parser("gpm", help="top-k graph pattern matching (mtree+)")
    gpm.add_argument("--graph", required=True, help="data graph (TSV)")
    gpm.add_argument(
        "--query", required=True,
        help="graph-pattern DSL ('graph(a:A, b:B; a-b)') or query JSON path",
    )
    gpm.add_argument("-k", type=int, default=10)
    gpm.add_argument(
        "--tree-algorithm", choices=("topk-en", "dp-b"), default="topk-en",
        help="tree matcher inside the decomposition framework",
    )

    query = sub.add_parser(
        "query", help="validate / inspect a declarative query (no graph needed)"
    )
    qsub = query.add_subparsers(dest="query_command", required=True)
    qcheck = qsub.add_parser(
        "check", help="parse + compile; exit 2 with a caret-annotated error"
    )
    qcheck.add_argument("query", help="DSL text or query JSON path")
    qshow = qsub.add_parser(
        "show", help="print the compiled form (canonical DSL, nodes, semantics)"
    )
    qshow.add_argument("query", help="DSL text or query JSON path")
    qshow.add_argument(
        "--compiled", action="store_true",
        help="also print the lowered kernel opcode listing (tree queries; "
        "cyclic patterns report interpreted execution)",
    )

    stats = sub.add_parser("stats", help="offline statistics for a graph")
    stats.add_argument("--graph", required=True, help="data graph (TSV)")

    index = sub.add_parser("index", help="build and save an index (offline phase)")
    index.add_argument("--graph", required=True, help="data graph (TSV)")
    index.add_argument(
        "--out", required=True,
        help="output index path (canonical extension: .ridx for binary)",
    )
    index.add_argument(
        "--backend", choices=_BACKEND_CHOICES, default="full",
        help="closure backend to materialize",
    )
    index.add_argument(
        "--format", choices=("binary", "json"), default="binary",
        help="index format: 'binary' is the mmap-paged zero-parse layout "
        "(default), 'json' the interchange document",
    )
    index.add_argument(
        "--workload", metavar="QUERY.json", action="append", default=[],
        help="query tree the index must support (repeatable; required for "
        "--backend constrained)",
    )
    index.add_argument(
        "--shards", type=int, metavar="N",
        help="write a sharded index: N label-range shard .ridx files plus "
        "a checksummed manifest at --out (binary format only); "
        "--load-index on the manifest boots a scatter-gather engine",
    )
    index.add_argument(
        "--replication", type=int, metavar="R", default=1,
        help="record a replication factor in the shard manifest: the "
        "sharded service spawns R workers per shard and fails queries "
        "over between them (requires --shards)",
    )

    shard = sub.add_parser(
        "shard", help="inspect sharded indexes (manifest + shard files)"
    )
    ssub = shard.add_subparsers(dest="shard_command", required=True)
    sinfo = ssub.add_parser(
        "info", help="print a shard manifest's layout and integrity status"
    )
    sinfo.add_argument("manifest", help="shard manifest path (repro index --shards)")
    sinfo.add_argument(
        "--verify", action="store_true",
        help="additionally re-hash every shard file against its recorded "
        "SHA-256 (slow, paranoid)",
    )
    sinfo.add_argument(
        "--wal", metavar="DIR",
        help="also report the per-shard write-ahead segments under DIR "
        "(generation vs. manifest epoch, pending records, torn tails)",
    )

    lint = sub.add_parser(
        "lint",
        help="static contract checks: layering DAG, exception taxonomy, "
        "rename durability, lock discipline, interned-id boundary",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: <root>/src/repro)",
    )
    lint.add_argument(
        "--root", default=".",
        help="repository root holding config/layers.toml (default: .)",
    )
    lint.add_argument(
        "--rule", action="append", metavar="RLnnn",
        help="run only this rule id (repeatable; default: all rules)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--baseline", metavar="PATH",
        help="grandfather the findings listed in this baseline document",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline from the current findings and exit 0",
    )

    compact = sub.add_parser(
        "compact",
        help="fold a write-ahead delta segment into the next .ridx generation",
    )
    compact.add_argument(
        "--index", required=True,
        help="base index path (or its generations manifest)",
    )
    compact.add_argument(
        "--wal", metavar="PATH",
        help="write-ahead log segment with the pending records "
        "(recovered and truncated by the swap protocol)",
    )
    compact.add_argument(
        "--force", action="store_true",
        help="write a new generation even with nothing pending",
    )

    delta = sub.add_parser(
        "delta", help="inspect the write-ahead delta overlay artifacts"
    )
    dsub = delta.add_subparsers(dest="delta_command", required=True)
    dinfo = dsub.add_parser(
        "info",
        help="describe a WAL segment, a generations manifest, or a "
        "generation-tracked index (read-only)",
    )
    dinfo.add_argument(
        "path", help="WAL segment, generations manifest, or base index path"
    )

    gen = sub.add_parser("generate", help="generate a synthetic data graph")
    gen.add_argument(
        "--family", choices=("citation", "powerlaw", "uniform"),
        default="citation",
    )
    gen.add_argument("--nodes", type=int, default=1000)
    gen.add_argument("--labels", type=int, default=60)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output TSV path")
    return parser


def _cmd_match(args) -> int:
    compiled = _compile_query_arg(args.query)
    if args.load_index:
        if args.graph:
            print(
                "error: pass either --graph or --load-index, not both",
                file=sys.stderr,
            )
            return 2
        if args.backend != "auto":
            print(
                "error: --backend is determined by the loaded index; "
                "drop it or rebuild the index with `repro index --backend ...`",
                file=sys.stderr,
            )
            return 2
        engine = MatchEngine.load(args.load_index)
    elif args.graph:
        graph = load_graph_tsv(args.graph)
        if args.backend == "constrained" and compiled.is_cyclic:
            print(
                "error: the constrained backend indexes tree workloads; "
                "cyclic patterns need another backend",
                file=sys.stderr,
            )
            return 2
        # The constrained backend needs a workload — for one-shot matching
        # that is exactly the query being asked.
        workload = (compiled.tree,) if args.backend == "constrained" else None
        engine = MatchEngine(graph, backend=args.backend, workload=workload)
    else:
        print("error: 'match' needs --graph or --load-index", file=sys.stderr)
        return 2
    plan = engine.explain(compiled, args.k, algorithm=args.algorithm)
    if args.explain:
        print(plan.describe(), file=sys.stderr)
    started = time.perf_counter()
    matches = engine.top_k(compiled, args.k, algorithm=args.algorithm)
    elapsed = time.perf_counter() - started
    print(matches_to_json(matches))
    print(
        f"# {len(matches)} matches in {elapsed * 1000:.1f} ms "
        f"({plan.algorithm}, {engine.backend_name} backend)",
        file=sys.stderr,
    )
    if args.save_index:
        engine.save_index(args.save_index)
        print(f"# index saved to {args.save_index}", file=sys.stderr)
    return 0


def _cmd_gpm(args) -> int:
    graph = load_graph_tsv(args.graph)
    compiled = _compile_query_arg(args.query)
    if not compiled.is_cyclic:
        print(
            "error: 'gpm' expects a graph pattern — the 'graph(...)' DSL "
            "form or a query-graph document (tree queries go to 'match')",
            file=sys.stderr,
        )
        return 2
    kwargs = {}
    if compiled.matcher is not None:  # e.g. ~token containment labels
        kwargs["matcher"] = compiled.matcher
    engine = KGPMEngine(graph, tree_algorithm=args.tree_algorithm, **kwargs)
    started = time.perf_counter()
    matches = engine.top_k(compiled.pattern, args.k)
    elapsed = time.perf_counter() - started
    print(matches_to_json(matches))
    print(
        f"# {len(matches)} matches in {elapsed * 1000:.1f} ms "
        f"(mtree{'+' if args.tree_algorithm == 'topk-en' else ''})",
        file=sys.stderr,
    )
    return 0


def _cmd_query(args) -> int:
    compiled = _compile_query_arg(args.query)
    kind = "cyclic pattern" if compiled.is_cyclic else "tree"
    if args.query_command == "check":
        print(f"ok: {compiled.to_dsl()} ({kind}, {compiled.num_nodes} nodes)")
        return 0
    # show: canonical DSL + lowered structure + compiled semantics.
    print(f"canonical: {compiled.to_dsl()}")
    print(f"kind:      {kind}")
    if compiled.is_cyclic:
        pattern = compiled.pattern
        for node in pattern.nodes():
            print(f"  node {node}: label={pattern.label(node)}")
        for u, v in pattern.edges():
            print(f"  edge {u} -- {v}")
    else:
        tree = compiled.tree
        for node in tree.bfs_order():
            parent = tree.parent(node)
            if parent is None:
                print(f"  node {node}: label={tree.label(node)} (root)")
            else:
                axis = tree.edge_type(parent, node).value
                print(
                    f"  node {node}: label={tree.label(node)} "
                    f"({parent} {axis} {node})"
                )
    print(
        f"semantics: matcher={compiled.matcher_kind}, "
        f"direct edges={compiled.direct_edges}, "
        f"wildcards={compiled.wildcards}, "
        f"containment nodes={compiled.containment_nodes}, "
        f"duplicate labels={'yes' if compiled.has_duplicate_labels else 'no'}"
    )
    if getattr(args, "compiled", False):
        from repro.kernel import KernelUnsupported, compile_program

        try:
            program = compile_program(compiled)
        except KernelUnsupported as exc:
            print(f"kernel:    interpreted ({exc})")
        else:
            print(
                f"kernel:    {program.num_ops} ops over "
                f"{program.num_positions} registers"
            )
            print(program.listing())
    return 0


def _cmd_stats(args) -> int:
    graph = load_graph_tsv(args.graph)
    engine = MatchEngine(graph, backend="full")
    closure = engine.closure
    store_stats = engine.store.size_statistics()
    print(f"nodes:            {graph.num_nodes}")
    print(f"edges:            {graph.num_edges}")
    print(f"labels:           {len(graph.labels())}")
    print(f"closure pairs:    {closure.num_pairs}")
    print(f"closure build:    {closure.build_seconds:.2f}s")
    print(f"average theta:    {closure.average_theta():.1f}")
    print(f"store entries:    {store_stats['total_entries']}")
    print(f"store size (est): {engine.store.estimated_bytes() / 1e6:.1f} MB")
    return 0


def _cmd_index(args) -> int:
    graph = load_graph_tsv(args.graph)
    workload = []
    for path in args.workload:
        query = load_query(path)
        if not isinstance(query, QueryTree):
            print(f"error: {path} is not a query-tree document", file=sys.stderr)
            return 2
        workload.append(query)
    if args.shards is not None:
        if args.shards < 1:
            print("error: --shards needs a positive count", file=sys.stderr)
            return 2
        if args.replication < 1:
            print("error: --replication needs a positive count", file=sys.stderr)
            return 2
        if args.format != "binary":
            print(
                "error: sharded indexes are binary-only; drop --format",
                file=sys.stderr,
            )
            return 2
        from repro.shard import shard_index

        started = time.perf_counter()
        document = shard_index(
            graph, args.out, args.shards,
            replication=args.replication,
            backend=args.backend, workload=tuple(workload) or None,
        )
        built = time.perf_counter() - started
        total_bytes = sum(entry["bytes"] for entry in document["shards"])
        print(
            f"built {document['shard_count']} shards "
            f"(requested {args.shards}, replication "
            f"{document.get('replication', 1)}) in {built:.2f}s; "
            f"manifest {args.out} + {total_bytes / 1e6:.1f} MB of shard "
            f"files, epoch {document['epoch']}",
            file=sys.stderr,
        )
        return 0
    if args.replication != 1:
        print("error: --replication requires --shards", file=sys.stderr)
        return 2
    started = time.perf_counter()
    engine = MatchEngine(
        graph, backend=args.backend, workload=tuple(workload) or None
    )
    built = time.perf_counter() - started
    engine.save_index(args.out, format=args.format)
    print(
        f"built {engine.backend_name} index in {built:.2f}s "
        f"({engine.backend.describe()}); saved to {args.out} "
        f"({args.format})",
        file=sys.stderr,
    )
    return 0


def _cmd_shard(args) -> int:
    from repro.shard.manifest import load_manifest, shard_paths

    document = load_manifest(args.manifest, verify_files=args.verify)
    counts = document.get("counts", {})
    print(f"manifest:  {args.manifest}")
    print(
        f"kind:      {document['kind']} v{document['version']}, "
        f"epoch {document.get('epoch', 0)}"
    )
    print(
        f"graph:     {counts.get('nodes')} nodes, {counts.get('edges')} "
        f"edges, {counts.get('labels')} labels"
    )
    print(
        f"shards:    {document['shard_count']} "
        f"(requested {document.get('requested_shards', document['shard_count'])}), "
        f"replication {document.get('replication', 1)}"
    )
    for entry, file_path in zip(document["shards"], shard_paths(document, args.manifest)):
        span = entry["span"]
        labels = entry["labels"]
        label_run = (
            ", ".join(repr(label) for label in labels)
            if len(labels) <= 4
            else f"{labels[0]!r} … {labels[-1]!r} ({len(labels)} labels)"
        )
        print(
            f"  shard {entry['index']:2d}: span [{span[0]}, {span[1]}) "
            f"owns {entry['owned_nodes']} of {entry['member_nodes']} members, "
            f"{entry['boundary_pairs']} boundary pairs, "
            f"{entry['bytes'] / 1e6:.2f} MB — {file_path.name}"
        )
        print(f"            labels: {label_run}")
    print(
        "integrity: checksum + sizes ok"
        + (", per-file SHA-256 verified" if args.verify else
           " (use --verify to re-hash shard files)")
    )
    if args.wal:
        from pathlib import Path as _Path

        from repro.delta import scan_wal

        epoch = document.get("epoch", 0)
        wal_dir = _Path(args.wal)
        print(f"wal dir:   {wal_dir}")
        for entry in document["shards"]:
            segment = wal_dir / f"shard-{entry['index']:02d}.wal"
            if not segment.exists():
                print(f"  shard {entry['index']:2d}: no segment ({segment.name})")
                continue
            scan = scan_wal(segment)
            state = (
                "stale (will be discarded on boot)"
                if scan.generation < epoch
                else "ahead of manifest (refused on boot)"
                if scan.generation > epoch
                else "current"
            )
            torn = (
                f", torn tail ({scan.dropped_bytes} bytes)"
                if scan.truncated_tail
                else ""
            )
            print(
                f"  shard {entry['index']:2d}: generation {scan.generation} "
                f"({state}), {len(scan.records)} pending records, "
                f"{scan.good_bytes} good bytes{torn}"
            )
    return 0


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.devtools.lint import (
        LintConfigError,
        load_baseline,
        render_json,
        render_text,
        run_lint,
        write_baseline,
    )

    if args.update_baseline and not args.baseline:
        raise LintConfigError("--update-baseline requires --baseline PATH")
    entries = None
    if args.baseline and not args.update_baseline:
        entries = load_baseline(args.baseline)
    result = run_lint(
        Path(args.root),
        [Path(p) for p in args.paths] or None,
        rules=args.rule,
        baseline=entries,
    )
    if args.update_baseline:
        count = write_baseline(args.baseline, result.findings)
        print(
            f"wrote {count} baseline entries to {args.baseline}",
            file=sys.stderr,
        )
        return 0
    render = render_json if args.format == "json" else render_text
    print(render(result))
    # Stale baseline entries fail the run too: the checked-in file no
    # longer matches the tree and must be regenerated (burn-down).
    return 0 if result.clean and not result.stale_baseline else 1


def _cmd_compact(args) -> int:
    from repro.service import MatchService

    service = MatchService.from_index(
        args.index, wal_path=args.wal, auto_compact=False, max_workers=1
    )
    try:
        delta_stats = service.statistics()["delta"]
        pending = delta_stats["pending_records"]
        if not pending and not args.force:
            print(
                "nothing to compact: the overlay is empty "
                "(use --force to write a generation anyway)",
                file=sys.stderr,
            )
            return 0
        report = service.compact()
        generation = report["generation"]
        where = (
            f"generation {generation} ({report['path']})"
            if generation is not None
            else "in-memory only (no generation family)"
        )
        print(
            f"compacted {report['records_folded']} records at epoch "
            f"{report['epoch']} -> {where} in "
            f"{report['elapsed_seconds'] * 1000:.1f} ms",
            file=sys.stderr,
        )
        return 0
    finally:
        service.close()


def _cmd_delta(args) -> int:
    import json as _json

    from repro.delta import (
        GenerationStore,
        manifest_path_for,
        scan_wal,
        sniff_is_generation_manifest,
    )
    from repro.delta.wal import HEADER_SIZE, WAL_MAGIC

    path = args.path
    with open(path, "rb") as handle:
        head = handle.read(HEADER_SIZE)
    if head[:4] == WAL_MAGIC:
        scan = scan_wal(path)
        print(f"wal:        {path}")
        print(f"generation: {scan.generation}")
        print(f"records:    {len(scan.records)}")
        print(f"good bytes: {scan.good_bytes}")
        if scan.truncated_tail:
            print(
                f"torn tail:  {scan.dropped_bytes} trailing bytes fail "
                "the checksum/frame and will be truncated on recovery"
            )
        else:
            print("torn tail:  none (segment is clean)")
        for record in scan.records[:20]:
            print(f"  {_json.dumps(record.payload(), sort_keys=True)}")
        if len(scan.records) > 20:
            print(f"  ... {len(scan.records) - 20} more")
        return 0
    if sniff_is_generation_manifest(path):
        store = GenerationStore(path)
    elif manifest_path_for(path).exists():
        store = GenerationStore(path)
    else:
        print(
            f"error: {path} is neither a WAL segment nor part of a "
            "generation family (no sibling generations manifest)",
            file=sys.stderr,
        )
        return 2
    print(f"base:       {store.base_path}")
    print(f"manifest:   {store.manifest_path}")
    print(f"current:    generation {store.current_generation} "
          f"({store.current_path().name})")
    for entry in store.generations():
        print(
            f"  gen {entry['generation']:4d}: {entry['file']} — "
            f"epoch {entry['epoch']}, {entry['records_folded']} records "
            f"folded in {entry['wall_seconds']:.2f}s"
        )
    return 0


def _cmd_generate(args) -> int:
    if args.family == "citation":
        graph = citation_graph(args.nodes, num_labels=args.labels, seed=args.seed)
    elif args.family == "powerlaw":
        graph = powerlaw_graph(args.nodes, num_labels=args.labels, seed=args.seed)
    else:
        graph = erdos_renyi_graph(
            args.nodes, 3 * args.nodes, num_labels=args.labels, seed=args.seed
        )
    save_graph_tsv(graph, args.out)
    print(
        f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.out}",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "match": _cmd_match,
        "gpm": _cmd_gpm,
        "query": _cmd_query,
        "stats": _cmd_stats,
        "index": _cmd_index,
        "shard": _cmd_shard,
        "lint": _cmd_lint,
        "compact": _cmd_compact,
        "delta": _cmd_delta,
        "generate": _cmd_generate,
    }
    try:
        return handlers[args.command](args)
    except QuerySyntaxError as exc:
        # Caret-annotated diagnostic on its own lines, never a traceback.
        print(f"error: invalid query syntax\n{exc}", file=sys.stderr)
        return 2
    except (ReproError, OSError, ValueError) as exc:
        # One clean line + exit 2 for every anticipated failure: engine
        # misconfiguration, malformed graph/query/index documents,
        # unreadable files, and algorithm/query-shape mismatches (the
        # planner raises ValueError for those; JSONDecodeError — corrupt
        # --load-index / --query files — subclasses ValueError too).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
