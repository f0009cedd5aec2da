"""Outside-in benchmark of the top-k tree matching program.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``;
see README.md in this directory.
"""

from perfbench import mixed_rw, paper_topk, serve_zipf, sharded_scatter

WORKLOADS = {wl.NAME: wl for wl in (paper_topk, serve_zipf, mixed_rw, sharded_scatter)}
