"""The BENCH_PR4-PR9 documents are frozen history, pinned byte for byte.

They were written by the retired single-timing benchmark and nothing
regenerates them; the benchmark is ``perfbench/`` (``BENCHMARK.json``).
"""

import hashlib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

FROZEN = {
    "BENCH_PR4.json": "69fb71c9ac10d907c4944da25e305eeb8ab65e9f6e6a6d1c68b1d0042783be5e",
    "BENCH_PR5.json": "fd4f3b485ac3d144e9843bf4c9c810443a6ae95ce6d79b332e8745dad5cc0af4",
    "BENCH_PR6.json": "eaa50b9ef65a53afa86f3f017f10a175e4f9e171e876ad4bae6f36bd58679544",
    "BENCH_PR7.json": "a01b969a152cf2ceadedbf8a97dc8a190efc8745e4072173f292699f7676e756",
    "BENCH_PR8.json": "ae9ed636617e3c99e9d3c888085802e5213381cefaa7f9a2bf535ae7bc36a761",
    "BENCH_PR9.json": "1f3c0d1f8c85f8a5889828183457c0026b2fcdf77ab411eee160535a2cc842f1",
}


def test_committed_bench_documents_are_frozen():
    found = sorted(path.name for path in REPO_ROOT.glob("BENCH_*.json"))
    assert found == sorted(FROZEN)
    for name, digest in FROZEN.items():
        data = (REPO_ROOT / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, f"{name} changed"
