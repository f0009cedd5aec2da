"""Binary mmap-paged index format (``.ridx``) — zero-parse cold start.

The JSON index documents of :mod:`repro.io` must be fully parsed before
the first query can run; at production scale that front-loads seconds of
decode work onto every process start.  This module stores the same
offline artifacts in a *scan-friendly binary layout* modeled on
partition-addressable scientific stores (Becla et al., LSST): typed
little-endian array runs addressed by a section table, opened with
``mmap`` so the expensive structures — transitive-closure rows and the
per-``L^alpha_beta`` pair-table runs — are adopted as zero-copy
memoryview slices.  Nothing entry-proportional is decoded at open time;
closure blocks page in on first touch and stay metered through the
ordinary :mod:`repro.storage.iostats` counters.

File layout (all integers little-endian; see DESIGN.md "The on-disk
index layout" for the normative spec)::

    header (48 bytes)
        magic            8s   b"REPROIDX"
        version          u16  format version (this module reads 1)
        flags            u16  reserved, 0
        section_count    u32
        table_offset     u64  -> section table
        table_crc        u32  crc32 of the section table bytes
        file_size        u64  total file length (truncation check)
        header_crc       u32  crc32 of the 36 bytes above
        reserved         8x
    section table (40 bytes per section)
        name             16s  ascii, NUL-padded
        offset           u64  8-byte aligned payload offset
        length           u64
        crc              u32  crc32 of the payload bytes
        pad              4x
    payload sections

Sections:

* ``meta`` — one small UTF-8 JSON object (backend name, config knobs,
  counts, flags).  It is metadata, not data: parsing it costs
  microseconds and keeps the format self-describing.
* ``nodes.*`` / ``labels.*`` — the interner pools.  Every node id and
  label carries a **type tag** (0 = str, 1 = int) so non-string
  identities round-trip exactly; anything else is rejected loudly at
  save time instead of being silently coerced.
* ``csr.*`` — the :class:`~repro.compact.CompactGraph` buffers, both
  directions.
* ``rows.*`` — flat closure rows (``full``/``constrained``/``hybrid``):
  one id-sorted ``(target, dist)`` run per source with an offset
  directory.
* ``ltab.*`` — the columnar ``L^alpha_beta`` pair tables exactly as
  :class:`~repro.closure.store.ClosureStore` holds them in memory
  (tails/dists/direct runs, per-node group offsets, arg-min ``E``
  arrays) plus a 64-byte directory record per label pair.
* ``pll.*`` — packed 2-hop labels (``ondemand``/``pll``/``hybrid``).

Integrity: every section that is read at open — header, section table,
the structural directories, and the eagerly-decoded ``pll.*`` labels —
is CRC-checked before use; only the sections that stay untouched until
first query (closure runs, pair-table columns) defer to
:meth:`DiskIndex.verify`, so opening stays O(sections + labels), never
O(closure entries).  Truncation is always caught at open — every
section must lie inside the recorded file size.  All failures raise
:class:`~repro.exceptions.IndexFormatError` before any garbage value
can reach a query.
"""

from __future__ import annotations

import json
import mmap
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from repro.closure.pll import PrunedLandmarkIndex
from repro.closure.store import ClosureStore, _PairTable
from repro.closure.transitive import TransitiveClosure
from repro.compact import ClosureRows, CompactGraph, NodeInterner
from repro.exceptions import IndexFormatError
from repro.graph.digraph import LabeledDiGraph

MAGIC = b"REPROIDX"
FORMAT_VERSION = 1

#: Canonical file extension for binary indexes.
BINARY_INDEX_SUFFIX = ".ridx"

_HEADER = struct.Struct("<8sHHIQIQI8x")  # 48 bytes
_SECTION = struct.Struct("<16sQQI4x")  # 40 bytes
_PAIR_DIR = struct.Struct("<ii7q")  # 64 bytes per L^alpha_beta table

_LITTLE = sys.byteorder == "little"

#: Sections that stay *untouched* at open (zero-copy mmap slices): their
#: checksums are verified by :meth:`DiskIndex.verify`, not eagerly —
#: checking them at open would fault in every page and defeat the lazy
#: cold start.  Everything else (including the ``pll.*`` label sections,
#: which are fully decoded at open anyway) is CRC-checked before use.
_LAZY_SECTIONS = frozenset(
    {
        "rows.tgt", "rows.dst",
        "ltab.tails", "ltab.dists", "ltab.direct",
        "ltab.offs", "ltab.etails", "ltab.eheads", "ltab.edists",
    }
)


# ----------------------------------------------------------------------
# Typed-buffer helpers (little-endian on disk, native in memory)
# ----------------------------------------------------------------------


def _to_le_bytes(typecode: str, buf) -> bytes:
    """Little-endian bytes of a typed buffer (arrays, views, iterables)."""
    if not isinstance(buf, (array, bytes, bytearray, memoryview)):
        buf = array(typecode, buf)
    if _LITTLE or typecode == "B":
        return bytes(buf)
    swapped = array(typecode)  # pragma: no cover - big-endian hosts only
    swapped.frombytes(bytes(buf))
    swapped.byteswap()
    return bytes(swapped)


def _typed_view(view: memoryview, typecode: str, name: str):
    """A native typed view over little-endian section bytes."""
    if typecode == "raw" or typecode == "B":
        return view
    try:
        if _LITTLE:
            return view.cast(typecode)
        native = array(typecode)  # pragma: no cover - big-endian hosts only
        native.frombytes(bytes(view))
        native.byteswap()
        return native
    except ValueError as exc:
        raise IndexFormatError(
            f"section {name!r} is not a whole number of {typecode!r} items"
        ) from exc


# ----------------------------------------------------------------------
# Identity pools (type-tagged node ids and labels)
# ----------------------------------------------------------------------

_TAG_STR = 0
_TAG_INT = 1


def encode_identity_pool(values, what: str) -> tuple[array, bytearray, bytearray]:
    """Pack hashable identities into (offsets, tags, blob) sections.

    Only ``str`` and ``int`` identities are supported — exactly the types
    external files can express without ambiguity.  Anything else (bools,
    tuples, frozensets, ...) raises :class:`IndexFormatError` loudly:
    the binary format refuses to coerce where JSON silently stringified.
    """
    offsets = array("I", [0])
    tags = bytearray()
    blob = bytearray()
    for value in values:
        if type(value) is str:
            tags.append(_TAG_STR)
            data = value.encode("utf-8")
        elif type(value) is int:
            tags.append(_TAG_INT)
            data = b"%d" % value
        else:
            raise IndexFormatError(
                f"cannot persist {what} {value!r} of type "
                f"{type(value).__name__}: the index formats preserve str "
                "and int identities only (rename the offending "
                f"{what}s, e.g. to strings, before saving)"
            )
        blob += data
        offsets.append(len(blob))
    return offsets, tags, blob


def _decode_identity_pool(offsets, tags, blob, what: str) -> list:
    values = []
    for position in range(len(tags)):
        data = bytes(blob[offsets[position] : offsets[position + 1]])
        tag = tags[position]
        if tag == _TAG_STR:
            values.append(data.decode("utf-8"))
        elif tag == _TAG_INT:
            try:
                values.append(int(data))
            except ValueError as exc:
                raise IndexFormatError(
                    f"corrupt int-tagged {what} entry {data!r}"
                ) from exc
        else:
            raise IndexFormatError(f"unknown {what} type tag {tag}")
    return values


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------


class _Writer:
    """Accumulate named sections, then emit header + payload + table."""

    def __init__(self) -> None:
        self._sections: list[tuple[str, bytes]] = []

    def add(self, name: str, payload: bytes) -> None:
        if len(name.encode("ascii")) > 16:
            raise IndexFormatError(f"section name {name!r} exceeds 16 bytes")
        self._sections.append((name, payload))

    def add_array(self, name: str, typecode: str, buf) -> None:
        self.add(name, _to_le_bytes(typecode, buf))

    def write(self, path: str | Path) -> None:
        offset = _HEADER.size
        records = []
        chunks = []
        for name, payload in self._sections:
            padding = (-offset) % 8
            chunks.append(b"\0" * padding)
            offset += padding
            records.append((name, offset, len(payload), zlib.crc32(payload)))
            chunks.append(payload)
            offset += len(payload)
        padding = (-offset) % 8
        chunks.append(b"\0" * padding)
        table_offset = offset + padding
        table = b"".join(
            _SECTION.pack(name.encode("ascii"), off, length, crc)
            for name, off, length, crc in records
        )
        file_size = table_offset + len(table)
        head = struct.pack(
            "<8sHHIQIQ",
            MAGIC,
            FORMAT_VERSION,
            0,
            len(records),
            table_offset,
            zlib.crc32(table),
            file_size,
        )
        header = head + struct.pack("<I", zlib.crc32(head)) + b"\0" * 8
        assert len(header) == _HEADER.size
        with open(path, "wb") as handle:
            handle.write(header)
            for chunk in chunks:
                handle.write(chunk)
            handle.write(table)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------


class DiskIndex:
    """One opened ``.ridx`` file: mmap + section directory + meta.

    The mapping stays alive for as long as any artifact slices it (the
    exported memoryviews keep the buffer pinned), so engines opened from
    an index need no explicit lifecycle management.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as handle:
            try:
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except ValueError as exc:
                raise IndexFormatError(
                    f"{self.path}: empty or unmappable index file"
                ) from exc
        self._buffer = memoryview(self._mmap)
        self.mapped_bytes = len(self._buffer)
        self._sections: dict[str, tuple[int, int, int]] = {}
        self._parse_directory()
        self.meta = self._load_meta()

    # -- directory ------------------------------------------------------
    def _parse_directory(self) -> None:
        size = self.mapped_bytes
        if size < _HEADER.size:
            raise IndexFormatError(
                f"{self.path}: truncated index (only {size} bytes, "
                f"header needs {_HEADER.size})"
            )
        magic, version, _flags, count, table_offset, table_crc, file_size, header_crc = (
            _HEADER.unpack_from(self._buffer, 0)
        )
        if magic != MAGIC:
            raise IndexFormatError(
                f"{self.path}: not a binary repro index (bad magic {magic!r})"
            )
        if zlib.crc32(bytes(self._buffer[:36])) != header_crc:
            raise IndexFormatError(f"{self.path}: header checksum mismatch")
        if version != FORMAT_VERSION:
            raise IndexFormatError(
                f"{self.path}: unsupported binary index version {version} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        if file_size != size:
            raise IndexFormatError(
                f"{self.path}: truncated index (header records {file_size} "
                f"bytes, file has {size})"
            )
        table_end = table_offset + count * _SECTION.size
        if table_offset < _HEADER.size or table_end > size:
            raise IndexFormatError(
                f"{self.path}: section table out of bounds"
            )
        table = bytes(self._buffer[table_offset:table_end])
        if zlib.crc32(table) != table_crc:
            raise IndexFormatError(
                f"{self.path}: section table checksum mismatch"
            )
        for position in range(count):
            raw_name, offset, length, crc = _SECTION.unpack_from(
                table, position * _SECTION.size
            )
            name = raw_name.rstrip(b"\0").decode("ascii")
            if offset + length > size:
                raise IndexFormatError(
                    f"{self.path}: section {name!r} out of bounds "
                    f"({offset}+{length} > {size})"
                )
            self._sections[name] = (offset, length, crc)
        for name in self._sections:
            if name not in _LAZY_SECTIONS:
                self._check_crc(name)

    def _check_crc(self, name: str) -> None:
        offset, length, crc = self._sections[name]
        if zlib.crc32(bytes(self._buffer[offset : offset + length])) != crc:
            raise IndexFormatError(
                f"{self.path}: section {name!r} checksum mismatch "
                "(corrupted index)"
            )

    def _load_meta(self) -> dict:
        try:
            meta = json.loads(bytes(self.raw("meta")).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise IndexFormatError(
                f"{self.path}: corrupt meta section ({exc})"
            ) from exc
        if not isinstance(meta, dict):
            raise IndexFormatError(f"{self.path}: meta is not an object")
        return meta

    # -- section access -------------------------------------------------
    def has(self, name: str) -> bool:
        """True when the file carries section ``name``."""
        return name in self._sections

    def section_names(self) -> list[str]:
        """All section names, in file order."""
        return list(self._sections)

    def raw(self, name: str) -> memoryview:
        """The raw byte view of section ``name`` (zero-copy)."""
        entry = self._sections.get(name)
        if entry is None:
            raise IndexFormatError(
                f"{self.path}: missing required section {name!r}"
            )
        offset, length, _crc = entry
        return self._buffer[offset : offset + length]

    def array(self, name: str, typecode: str):
        """Section ``name`` as a typed view (zero-copy on little-endian)."""
        return _typed_view(self.raw(name), typecode, name)

    def verify(self) -> None:
        """Checksum every section, including the lazily-verified runs."""
        for name in self._sections:
            self._check_crc(name)

    def close(self) -> None:  # pragma: no cover - test/tooling convenience
        """Release the mapping (only safe once no artifact slices it)."""
        self._buffer.release()
        self._mmap.close()


def sniff_is_binary_index(path: str | Path) -> bool:
    """True when ``path`` starts with the binary index magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


# ----------------------------------------------------------------------
# Engine-level save: gather backend artifacts into sections
# ----------------------------------------------------------------------


def write_engine_index(
    engine,
    path: str | Path,
    *,
    extra_meta: dict | None = None,
    extra_sections: list[tuple[str, str, object]] | None = None,
) -> None:
    """Persist ``engine``'s offline artifacts as one binary index file.

    Works for every backend: ``full``/``constrained`` store the closure
    rows + pair tables, ``ondemand``/``pll`` store the 2-hop labels, and
    ``hybrid`` stores both plus its hot-pair selection.  Node ids and
    labels keep their types (str/int) via the tagged identity pools.

    ``extra_meta`` entries are merged into the JSON ``meta`` section and
    ``extra_sections`` appends ``(name, typecode, buffer)`` sections —
    the hooks the shard writer uses to embed its per-shard descriptor
    (``meta["shard"]``) and boundary-pair arrays without a second file
    format.  Extra meta keys may not shadow the core ones.
    """
    backend = engine.backend
    name = backend.name
    closure = getattr(backend, "closure", None)
    pll = getattr(backend, "distance_index", None)
    if closure is not None:
        interner = closure.interner
        compact = closure.compact_graph
    elif pll is not None:
        interner = pll.interner
        compact = pll.compact_graph
    else:  # pragma: no cover - every shipped backend has one of the two
        raise IndexFormatError(
            f"backend {name!r} exposes no persistable artifacts"
        )

    writer = _Writer()
    meta = {
        "backend": name,
        "config": {
            "block_size": engine.config.block_size,
            "hot_fraction": engine.config.hot_fraction,
        },
        "counts": {
            "nodes": len(interner),
            "edges": compact.num_edges,
            "labels": len(interner.labels()),
        },
        "unit_weighted": compact.unit_weighted,
    }

    node_off, node_tags, node_blob = encode_identity_pool(
        interner.nodes(), "node id"
    )
    labels = interner.labels()
    label_off, label_tags, label_blob = encode_identity_pool(labels, "label")
    label_counts = array(
        "I", (len(interner.label_range(label)) for label in labels)
    )

    if name == "constrained":
        from repro.io import query_tree_to_dict

        meta["workload"] = [
            query_tree_to_dict(query) for query in backend.workload
        ]
    if name == "hybrid":
        label_index = {label: i for i, label in enumerate(labels)}
        meta["hot_pairs"] = sorted(
            [label_index[alpha], label_index[beta]]
            for alpha, beta in backend.store.hot_pairs
        )
    if closure is not None:
        meta["partial"] = closure.is_partial
    if extra_meta:
        collisions = sorted(set(extra_meta) & set(meta))
        if collisions:
            raise IndexFormatError(
                f"extra_meta keys {collisions} shadow core meta fields"
            )
        meta.update(extra_meta)

    writer.add("meta", json.dumps(meta, sort_keys=True).encode("utf-8"))
    writer.add_array("nodes.off", "I", node_off)
    writer.add_array("nodes.tag", "B", node_tags)
    writer.add_array("nodes.blob", "B", node_blob)
    writer.add_array("labels.off", "I", label_off)
    writer.add_array("labels.tag", "B", label_tags)
    writer.add_array("labels.blob", "B", label_blob)
    writer.add_array("labels.cnt", "I", label_counts)

    writer.add_array("csr.oo", "i", compact.out_offsets)
    writer.add_array("csr.ot", "i", compact.out_targets)
    writer.add_array("csr.ow", "d", compact.out_weights)
    writer.add_array("csr.io", "i", compact.in_offsets)
    writer.add_array("csr.it", "i", compact.in_targets)
    writer.add_array("csr.iw", "d", compact.in_weights)

    if closure is not None:
        _add_closure_sections(writer, closure)
        store = (
            backend.store._materialized if name == "hybrid" else backend.store
        )
        _add_pair_table_sections(writer, store, labels)
    if pll is not None:
        _add_pll_sections(writer, pll)
    for section_name, typecode, buf in extra_sections or ():
        writer.add_array(section_name, typecode, buf)

    writer.write(path)


def _add_closure_sections(writer: _Writer, closure: TransitiveClosure) -> None:
    rows = closure.rows
    sources = array("i", rows.sources())
    offsets = array("q", [0])
    targets = array("i")
    dists = array("d")
    for source_id in sources:
        row_targets, row_dists = rows.row(source_id)
        targets.extend(row_targets)
        dists.extend(row_dists)
        offsets.append(len(targets))
    writer.add_array("rows.src", "i", sources)
    writer.add_array("rows.off", "q", offsets)
    writer.add_array("rows.tgt", "i", targets)
    writer.add_array("rows.dst", "d", dists)


def _add_pair_table_sections(
    writer: _Writer, store: ClosureStore, labels
) -> None:
    label_index = {label: i for i, label in enumerate(labels)}
    ordered = sorted(
        store._pair_tables.items(),
        key=lambda item: (label_index[item[0][0]], label_index[item[0][1]]),
    )
    directory = bytearray()
    tails = array("i")
    dists = array("d")
    direct = bytearray()
    heads = array("i")
    offs = array("i")
    e_tails = array("i")
    e_heads = array("i")
    e_dists = array("d")
    for (alpha, beta), table in ordered:
        directory += _PAIR_DIR.pack(
            label_index[alpha],
            label_index[beta],
            len(tails),
            table.num_entries,
            len(heads),
            table.num_groups,
            len(offs),
            len(e_tails),
            len(table.e_tails),
        )
        tails.extend(table.tails)
        dists.extend(table.dists)
        direct += bytes(table.direct)
        heads.extend(table.heads)
        offs.extend(table.offsets)
        e_tails.extend(table.e_tails)
        e_heads.extend(table.e_heads)
        e_dists.extend(table.e_dists)
    writer.add("ltab.dir", bytes(directory))
    writer.add_array("ltab.tails", "i", tails)
    writer.add_array("ltab.dists", "d", dists)
    writer.add_array("ltab.direct", "B", direct)
    writer.add_array("ltab.heads", "i", heads)
    writer.add_array("ltab.offs", "i", offs)
    writer.add_array("ltab.etails", "i", e_tails)
    writer.add_array("ltab.eheads", "i", e_heads)
    writer.add_array("ltab.edists", "d", e_dists)


def _add_pll_sections(writer: _Writer, pll: PrunedLandmarkIndex) -> None:
    for side, prefix in ((pll._out, "out"), (pll._in, "in")):
        offsets = array("q", [0])
        landmarks = array("i")
        dists = array("d")
        for labels in side:
            for landmark, dist in sorted(labels.items()):
                landmarks.append(landmark)
                dists.append(dist)
            offsets.append(len(landmarks))
        writer.add_array(f"pll.o{prefix}", "q", offsets)
        writer.add_array(f"pll.l{prefix}", "i", landmarks)
        writer.add_array(f"pll.d{prefix}", "d", dists)


# ----------------------------------------------------------------------
# Engine-level open: sections -> typed artifacts
# ----------------------------------------------------------------------


@dataclass
class DiskArtifacts:
    """The typed artifacts reconstructed from one binary index file.

    ``repro.engine.backends.restore_backend_from_disk`` assembles the
    matching backend from these; the ``disk`` handle is carried along so
    callers can report ``mapped_bytes`` or run :meth:`DiskIndex.verify`.
    """

    disk: DiskIndex
    interner: NodeInterner
    compact: CompactGraph
    closure: TransitiveClosure | None = None
    pair_tables: dict | None = None
    pll: PrunedLandmarkIndex | None = None
    hot_pairs: frozenset | None = None
    workload: list = field(default_factory=list)


def open_engine_index(
    path: str | Path,
) -> tuple[LabeledDiGraph, dict, str, DiskArtifacts]:
    """Open a binary index: ``(graph, stored_config, backend_name, artifacts)``.

    The graph and the small directory structures are materialized; the
    closure rows and pair tables become zero-copy views over the mapping
    (no per-entry decode — blocks page in on first touch).
    """
    disk = DiskIndex(path)
    meta = disk.meta
    backend_name = meta.get("backend")
    counts = meta.get("counts", {})
    stored_config = dict(meta.get("config", {}))

    nodes = _decode_identity_pool(
        disk.array("nodes.off", "I"),
        disk.array("nodes.tag", "B"),
        disk.raw("nodes.blob"),
        "node id",
    )
    labels = _decode_identity_pool(
        disk.array("labels.off", "I"),
        disk.array("labels.tag", "B"),
        disk.raw("labels.blob"),
        "label",
    )
    label_counts = disk.array("labels.cnt", "I")
    if len(labels) != len(label_counts) or len(nodes) != counts.get("nodes"):
        raise IndexFormatError(
            f"{disk.path}: identity pools disagree with the recorded counts"
        )
    interner = NodeInterner.from_sorted(nodes, zip(labels, label_counts))
    compact = CompactGraph.from_buffers(
        interner,
        num_edges=counts.get("edges", 0),
        unit_weighted=bool(meta.get("unit_weighted", True)),
        out_offsets=disk.array("csr.oo", "i"),
        out_targets=disk.array("csr.ot", "i"),
        out_weights=disk.array("csr.ow", "d"),
        in_offsets=disk.array("csr.io", "i"),
        in_targets=disk.array("csr.it", "i"),
        in_weights=disk.array("csr.iw", "d"),
    )
    if len(compact.out_offsets) != len(interner) + 1:
        raise IndexFormatError(
            f"{disk.path}: CSR offsets disagree with the node count"
        )
    graph = _rebuild_graph(interner, compact)

    artifacts = DiskArtifacts(disk=disk, interner=interner, compact=compact)
    artifacts.workload = list(meta.get("workload", []))
    if disk.has("rows.src"):
        artifacts.closure = TransitiveClosure._from_rows(
            graph,
            interner,
            compact,
            ClosureRows.from_flat(
                disk.array("rows.src", "i"),
                disk.array("rows.off", "q"),
                disk.array("rows.tgt", "i"),
                disk.array("rows.dst", "d"),
            ),
            partial=bool(meta.get("partial", False)),
        )
    if disk.has("ltab.dir"):
        artifacts.pair_tables = _open_pair_tables(disk, labels)
    if disk.has("pll.oout"):
        artifacts.pll = PrunedLandmarkIndex.from_interned_labels(
            graph,
            interner,
            compact,
            _decode_pll_side(disk, "out"),
            _decode_pll_side(disk, "in"),
        )
    if "hot_pairs" in meta:
        try:
            artifacts.hot_pairs = frozenset(
                (labels[alpha], labels[beta])
                for alpha, beta in meta["hot_pairs"]
            )
        except (IndexError, TypeError, ValueError) as exc:
            raise IndexFormatError(
                f"{disk.path}: corrupt hot-pair directory ({exc})"
            ) from exc
    return graph, stored_config, backend_name, artifacts


def _rebuild_graph(
    interner: NodeInterner, compact: CompactGraph
) -> LabeledDiGraph:
    """Materialize the mutable LabeledDiGraph the upper layers speak."""
    graph = LabeledDiGraph()
    add_node = graph.add_node
    label_of = interner.label_of
    for node_id, node in enumerate(interner.nodes()):
        add_node(node, label_of(node_id))
    resolve = interner.resolve
    add_edge = graph.add_edge
    offsets, targets, weights = (
        compact.out_offsets, compact.out_targets, compact.out_weights,
    )
    for source_id in range(len(interner)):
        tail = resolve(source_id)
        for k in range(offsets[source_id], offsets[source_id + 1]):
            add_edge(tail, resolve(targets[k]), weights[k])
    return graph


def _open_pair_tables(disk: DiskIndex, labels: list) -> dict:
    """O(tables) directory walk; every column is a zero-copy slice."""
    directory = bytes(disk.raw("ltab.dir"))
    tails = disk.array("ltab.tails", "i")
    dists = disk.array("ltab.dists", "d")
    direct = disk.raw("ltab.direct")
    heads = disk.array("ltab.heads", "i")
    offs = disk.array("ltab.offs", "i")
    e_tails = disk.array("ltab.etails", "i")
    e_heads = disk.array("ltab.eheads", "i")
    e_dists = disk.array("ltab.edists", "d")
    if len(directory) % _PAIR_DIR.size:
        raise IndexFormatError(
            f"{disk.path}: pair-table directory is not a whole number of "
            "records"
        )
    tables = {}
    for record in _PAIR_DIR.iter_unpack(directory):
        (
            alpha_idx, beta_idx,
            entry_base, entry_count,
            group_base, group_count,
            offs_base, e_base, e_count,
        ) = record
        if not (
            0 <= alpha_idx < len(labels)
            and 0 <= beta_idx < len(labels)
            and 0 <= entry_base <= entry_base + entry_count <= len(tails)
            and 0 <= group_base <= group_base + group_count <= len(heads)
            and 0 <= offs_base <= offs_base + group_count + 1 <= len(offs)
            and 0 <= e_base <= e_base + e_count <= len(e_tails)
        ):
            raise IndexFormatError(
                f"{disk.path}: pair-table directory record out of bounds"
            )
        pair = (labels[alpha_idx], labels[beta_idx])
        tables[pair] = _PairTable(
            tails[entry_base : entry_base + entry_count],
            dists[entry_base : entry_base + entry_count],
            direct[entry_base : entry_base + entry_count],
            heads[group_base : group_base + group_count],
            offs[offs_base : offs_base + group_count + 1],
            e_tails[e_base : e_base + e_count],
            e_heads[e_base : e_base + e_count],
            e_dists[e_base : e_base + e_count],
        )
    return tables


def _decode_pll_side(disk: DiskIndex, prefix: str) -> list[dict[int, float]]:
    offsets = disk.array(f"pll.o{prefix}", "q")
    landmarks = disk.array(f"pll.l{prefix}", "i")
    dists = disk.array(f"pll.d{prefix}", "d")
    side = []
    for node_id in range(len(offsets) - 1):
        lo, hi = offsets[node_id], offsets[node_id + 1]
        side.append(dict(zip(landmarks[lo:hi], dists[lo:hi])))
    return side
