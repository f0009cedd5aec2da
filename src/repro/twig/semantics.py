"""Label-matching semantics for twig queries (Section 5 extensions).

The core algorithms only need to know, for each query node, *which data
labels* its candidates may carry.  A :class:`LabelMatcher` answers exactly
that, so equality matching (the paper's base case), wildcard nodes, and
label containment are all handled by the same run-time-graph builder.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from repro.graph.digraph import Label
from repro.graph.query import WILDCARD


class LabelMatcher:
    """Base matcher: query labels match equal data labels; ``*`` matches all.

    ``data_labels_for(query_label, alphabet)`` returns the list of data
    labels a query node with ``query_label`` may map to, or ``None``
    meaning "all labels" (which the store layer treats as a wildcard and
    answers without enumerating the alphabet).
    """

    def data_labels_for(
        self, query_label: Label, alphabet: Iterable[Label]
    ) -> list[Label] | None:
        if query_label == WILDCARD:
            return None
        return [query_label]

    def matches(self, query_label: Label, data_label: Label) -> bool:
        """True when a node with ``data_label`` may match ``query_label``."""
        return query_label == WILDCARD or query_label == data_label


class ContainmentMatcher(LabelMatcher):
    """Label containment: a data node matches when its label *contains* the
    query label (Section 5, third extension).

    Data labels are treated as collections of tokens (a frozenset, tuple,
    or a delimiter-separated string); a query label matches a data label
    when every query token occurs among the data label's tokens.  A
    (hashable) label is tokenized once per process, not per expansion.
    """

    def __init__(self, delimiter: str = "+") -> None:
        self.delimiter = delimiter

    def _tokens(self, label: Label) -> frozenset:
        if isinstance(label, frozenset):
            return label
        if isinstance(label, (set, list)):
            return frozenset(label)
        return _label_tokens(label, self.delimiter)

    def matches(self, query_label: Label, data_label: Label) -> bool:
        if query_label == WILDCARD:
            return True
        return self._tokens(query_label) <= self._tokens(data_label)

    def data_labels_for(
        self, query_label: Label, alphabet: Iterable[Label]
    ) -> list[Label] | None:
        if query_label == WILDCARD:
            return None
        return [label for label in alphabet if self.matches(query_label, label)]


@lru_cache(maxsize=1 << 16)
def _label_tokens(label: Label, delimiter: str) -> frozenset:
    """The token set of a hashable label (memoized: data labels recur in
    every expansion over their alphabet)."""
    if isinstance(label, tuple):
        return frozenset(label)
    if isinstance(label, str):
        return frozenset(label.split(delimiter))
    return frozenset((label,))


#: Shared default matcher instance (stateless).
EQUALITY = LabelMatcher()
