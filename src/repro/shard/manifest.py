"""Sharded index writer and the checksummed shard manifest.

:func:`shard_index` partitions a graph with a
:class:`~repro.shard.plan.ShardPlan`, builds one engine per shard over
its closed induced subgraph, and writes

* ``<stem>.shard-00.ridx … <stem>.shard-NN.ridx`` — ordinary binary
  ``.ridx`` files (every section CRC-checked as usual) extended with a
  ``meta["shard"]`` descriptor and two boundary-pair sections
  (``shard.bt``/``shard.bh``: global interned ids of the edges leaving
  the shard's owned span — the cut its member set replicates); and
* the **manifest** at ``path`` — a small JSON document recording the
  shard count, the label → shard map (as each shard's owned label run),
  per-shard id spans, sizes, per-file SHA-256 digests, and the epoch.
  The manifest carries its own ``checksum`` (SHA-256 over the canonical
  JSON of everything else), so tampering with either the manifest or a
  shard file is detected before any shard opens.

Loading is two-tier: :func:`load_manifest` always verifies the document
checksum, kind, version, and shard file presence + sizes (cheap, always
on); ``verify_files=True`` additionally re-hashes every shard file —
the CI/''repro shard info --verify'' path, skipped on the serving cold
start where the ``.ridx`` section CRCs already guard reads.
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array
from pathlib import Path

from repro.delta.wal import fsync_dir
from repro.exceptions import IndexFormatError, ShardError
from repro.graph.digraph import LabeledDiGraph
from repro.shard.plan import ShardPlan

MANIFEST_KIND = "repro-shard-manifest"
MANIFEST_VERSION = 1

#: Read-ahead window for :func:`sniff_is_shard_manifest` (manifests are
#: small JSON documents; the kind marker sits in the first key block).
_SNIFF_BYTES = 4096


def shard_file_name(manifest_path: str | Path, index: int) -> str:
    """``<manifest stem>.shard-NN.ridx`` (relative to the manifest)."""
    return f"{Path(manifest_path).stem}.shard-{index:02d}.ridx"


def _canonical_checksum(document: dict) -> str:
    body = {key: value for key, value in document.items() if key != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def shard_index(
    graph: LabeledDiGraph,
    path: str | Path,
    num_shards: int,
    config=None,
    *,
    epoch: int = 0,
    replication: int = 1,
    **overrides,
) -> dict:
    """Write a sharded index for ``graph``; returns the manifest document.

    ``config``/``overrides`` configure each per-shard engine exactly like
    :class:`~repro.engine.MatchEngine` (``backend="auto"`` lets every
    shard pick the backend its subgraph size calls for).  The effective
    shard count is ``min(num_shards, number of labels)``.
    ``replication`` is recorded in the manifest as the serving hint for
    how many workers should host each shard file.

    Every file lands via temp-name + ``os.replace``: re-sharding over a
    live deployment never leaves a half-written ``.ridx`` or manifest,
    and workers still mmap-ing the previous files keep their (now
    anonymous) inodes.
    """
    from repro.engine.core import MatchEngine
    from repro.storage.diskindex import write_engine_index

    path = Path(path)
    plan = ShardPlan.from_graph(graph, num_shards, replication)
    shards = []
    for spec in plan.shards:
        view = plan.span_view(spec.index)
        subgraph = plan.subgraph(graph, spec.index)
        engine = (
            MatchEngine(subgraph, config)
            if config is not None
            else MatchEngine(subgraph, **overrides)
        )
        boundary_tails, boundary_heads = view.boundary_pairs()
        file_name = shard_file_name(path, spec.index)
        file_path = path.with_name(file_name)
        file_tmp = path.with_name(file_name + ".tmp")
        write_engine_index(
            engine,
            file_tmp,
            extra_meta={
                "shard": {
                    "index": spec.index,
                    "shard_count": plan.shard_count,
                    "epoch": epoch,
                    "span": list(spec.span),
                    "owned_nodes": spec.owned_nodes,
                    "boundary_pairs": len(boundary_tails),
                }
            },
            extra_sections=[
                ("shard.bt", "i", boundary_tails),
                ("shard.bh", "i", boundary_heads),
            ],
        )
        os.replace(file_tmp, file_path)
        fsync_dir(file_path.parent)
        shards.append(
            {
                "index": spec.index,
                "file": file_name,
                "bytes": file_path.stat().st_size,
                "sha256": _file_sha256(file_path),
                "span": list(spec.span),
                "labels": list(spec.labels),
                "owned_nodes": spec.owned_nodes,
                "member_nodes": len(view.members()),
                "boundary_pairs": len(boundary_tails),
            }
        )
    document = {
        "kind": MANIFEST_KIND,
        "version": MANIFEST_VERSION,
        "epoch": epoch,
        "requested_shards": num_shards,
        "shard_count": plan.shard_count,
        "replication": replication,
        "counts": {
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "labels": len(plan.owners),
        },
        "shards": shards,
    }
    document["checksum"] = _canonical_checksum(document)
    manifest_tmp = path.with_name(path.name + ".tmp")
    with open(manifest_tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(manifest_tmp, path)
    fsync_dir(path.parent)
    return document


def sniff_is_shard_manifest(path: str | Path) -> bool:
    """True when ``path`` looks like a shard manifest (cheap, no parse)."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(_SNIFF_BYTES)
    except OSError:
        return False
    return head.lstrip()[:1] == b"{" and MANIFEST_KIND.encode() in head


def load_manifest(
    path: str | Path, *, verify_files: bool = False
) -> dict:
    """Parse and validate a shard manifest.

    Always checks: JSON shape, kind, version, the document's own
    checksum, and that every referenced shard file exists with the
    recorded size.  ``verify_files=True`` additionally re-hashes each
    shard file against its recorded SHA-256 (the slow, paranoid path).
    Problems raise :class:`~repro.exceptions.IndexFormatError`.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise IndexFormatError(f"{path}: unreadable shard manifest ({exc})") from exc
    if not isinstance(document, dict) or document.get("kind") != MANIFEST_KIND:
        raise IndexFormatError(
            f"{path}: not a shard manifest "
            f"(kind={document.get('kind')!r})"
            if isinstance(document, dict)
            else f"{path}: not a shard manifest"
        )
    version = document.get("version")
    if version != MANIFEST_VERSION:
        raise IndexFormatError(
            f"{path}: unsupported manifest version {version!r} "
            f"(this build reads version {MANIFEST_VERSION})"
        )
    recorded = document.get("checksum")
    expected = _canonical_checksum(document)
    if recorded != expected:
        raise IndexFormatError(
            f"{path}: manifest checksum mismatch "
            f"(recorded {str(recorded)[:12]}…, computed {expected[:12]}…)"
        )
    replication = document.get("replication", 1)
    if (
        isinstance(replication, bool)
        or not isinstance(replication, int)
        or replication < 1
    ):
        raise IndexFormatError(
            f"{path}: manifest replication must be a positive integer, "
            f"got {replication!r}"
        )
    shards = document.get("shards")
    if not isinstance(shards, list) or not shards:
        raise IndexFormatError(f"{path}: manifest lists no shards")
    if len(shards) != document.get("shard_count"):
        raise IndexFormatError(
            f"{path}: shard_count={document.get('shard_count')} but "
            f"{len(shards)} shards are listed"
        )
    for position, entry in enumerate(shards):
        if entry.get("index") != position:
            raise IndexFormatError(
                f"{path}: shard entries out of order at position {position}"
            )
        file_path = path.with_name(entry["file"])
        try:
            size = file_path.stat().st_size
        except OSError as exc:
            raise IndexFormatError(
                f"{path}: missing shard file {entry['file']!r}"
            ) from exc
        if size != entry.get("bytes"):
            raise IndexFormatError(
                f"{path}: shard file {entry['file']!r} is {size} bytes, "
                f"manifest records {entry.get('bytes')}"
            )
        if verify_files and _file_sha256(file_path) != entry.get("sha256"):
            raise IndexFormatError(
                f"{path}: shard file {entry['file']!r} fails its SHA-256 check"
            )
    return document


def shard_paths(document: dict, manifest_path: str | Path) -> list[Path]:
    """Absolute shard file paths, in shard order."""
    base = Path(manifest_path)
    return [base.with_name(entry["file"]) for entry in document["shards"]]


def boundary_pairs_from_disk(shard_path: str | Path) -> tuple[array, array]:
    """Read one shard file's persisted boundary-pair arrays (global ids)."""
    from repro.storage.diskindex import DiskIndex

    disk = DiskIndex(shard_path)
    try:
        if not disk.has("shard.bt"):
            raise ShardError(
                f"{shard_path}: not a shard file (no boundary sections)"
            )
        tails = array("i", disk.array("shard.bt", "i"))
        heads = array("i", disk.array("shard.bh", "i"))
    finally:
        disk.close()
    return tails, heads
