"""Table 3 — average run-time graph sizes per query size.

The paper reports #nodes and #edges of ``GR`` for T10..T100 on GD3 and
GS3, showing the real graph's run-time graphs are far denser — the trend
this scaled reproduction checks.
"""

from __future__ import annotations

from repro.bench import get_workbench, print_header, print_table
from repro.runtime.graph import build_runtime_graph

from conftest import QUERIES_PER_SET

SIZES = (10, 20, 30, 50)


def _avg_sizes(dataset: str):
    wb = get_workbench(dataset)
    rows = []
    for size in SIZES:
        nodes = edges = 0
        queries = wb.queries(size, count=QUERIES_PER_SET, seed=size)
        for query in queries:
            gr = build_runtime_graph(wb.store, query)
            nodes += gr.raw_num_nodes
            edges += gr.raw_num_edges
        n = len(queries)
        rows.append([f"T{size}", nodes // n, edges // n])
    return rows


def test_table3_runtime_graph_sizes(benchmark, report):
    gd_rows = _avg_sizes("GD3")
    gs_rows = _avg_sizes("GS3")
    with report("table3_runtime_graphs"):
        print_header("Table 3: average run-time graph sizes (GR)")
        print_table(["query", "#nodes GR", "#edges GR"], gd_rows,
                    title="GD3 (real-like)")
        print_table(["query", "#nodes GR", "#edges GR"], gs_rows,
                    title="GS3 (synthetic)")
        gd_density = gd_rows[-1][2] / max(gd_rows[-1][1], 1)
        gs_density = gs_rows[-1][2] / max(gs_rows[-1][1], 1)
        print(
            f"density at T{SIZES[-1]}: GD3 {gd_density:.1f} edges/node vs "
            f"GS3 {gs_density:.1f} (paper: real >> synthetic)"
        )
        # The paper's trend that GR grows with query size is reported,
        # not asserted: with QUERIES_PER_SET queries per size the
        # averages move from run to run (the query draws follow hash
        # order), and on GD3 they need not grow.
        for name, rows in (("GD3", gd_rows), ("GS3", gs_rows)):
            edges = [r[2] for r in rows]
            grows = "yes" if edges == sorted(edges) else "no"
            print(f"{name} #edges GR grows with query size: {grows} {edges} (paper: yes)")

    wb = get_workbench("GS3")
    query = wb.query(20, seed=3)
    benchmark.pedantic(
        lambda: build_runtime_graph(wb.store, query), rounds=3, iterations=1
    )
