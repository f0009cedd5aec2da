"""Write-ahead delta overlay + background compaction.

The write path the serving tier lacked: mutations land as typed records
in a :class:`DeltaLog` (optionally write-ahead-logged to a checksummed
segment file that recovers cleanly from torn tails), reads fold the
overlay onto the immutable base through :func:`fold` or
:func:`fold_graph` (sharing every unaffected closure row with the
base), and a background :class:`Compactor` folds accumulated deltas
into numbered ``.ridx`` generations managed by a
:class:`GenerationStore`.

This package sits on ``repro.engine`` and *below* the serving layer —
``repro.service`` wires it up, never the reverse (rule RL001 of
``repro lint``, ``config/layers.toml``).
"""

from repro.delta.compactor import CompactionPolicy, Compactor
from repro.delta.generations import (
    GenerationStore,
    manifest_path_for,
    resolve_index_path,
    sniff_is_generation_manifest,
)
from repro.delta.log import DeltaLog
from repro.delta.records import (
    DeltaRecord,
    EdgeAdd,
    EdgeRemove,
    LabelChange,
    NodeAdd,
    decode_record,
    encode_record,
    records_from_updates,
)
from repro.delta.view import (
    FoldResult,
    GraphDiff,
    apply_records,
    diff_graphs,
    fold,
    fold_graph,
)
from repro.delta.wal import WalScan, WriteAheadLog, fsync_dir, scan_wal

__all__ = [
    "CompactionPolicy",
    "Compactor",
    "DeltaLog",
    "DeltaRecord",
    "EdgeAdd",
    "EdgeRemove",
    "FoldResult",
    "GenerationStore",
    "GraphDiff",
    "LabelChange",
    "NodeAdd",
    "WalScan",
    "WriteAheadLog",
    "apply_records",
    "decode_record",
    "diff_graphs",
    "encode_record",
    "fold",
    "fold_graph",
    "fsync_dir",
    "manifest_path_for",
    "records_from_updates",
    "resolve_index_path",
    "scan_wal",
    "sniff_is_generation_manifest",
]
