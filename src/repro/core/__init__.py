"""Core top-k tree matching algorithms (the paper's contribution)."""

from repro.core.baseline_dp import DPBEnumerator, dpb_matches
from repro.core.baseline_dpp import DPPEnumerator, dpp_matches
from repro.core.brute_force import all_matches, brute_force_topk
from repro.core.diversity import assignment_distance, diverse_top_k, diversify
from repro.core.matches import EnumerationStats, Match, MatchRef
from repro.core.topk import TopkEnumerator, topk_matches
from repro.core.topk_en import LazyTopkEngine, TopkEN, topk_en_matches

__all__ = [
    "Match",
    "MatchRef",
    "EnumerationStats",
    "TopkEnumerator",
    "topk_matches",
    "TopkEN",
    "LazyTopkEngine",
    "topk_en_matches",
    "DPBEnumerator",
    "dpb_matches",
    "DPPEnumerator",
    "dpp_matches",
    "all_matches",
    "brute_force_topk",
    "diversify",
    "diverse_top_k",
    "assignment_distance",
]
