"""Exact-arithmetic census and analysis of paradoxical Collatz sequences.

A trajectory is paradoxical when its linear-form coefficient has dropped
below 1 and the last term still is at least the first.  This package
enumerates all of them over integer ranges, reproduces the published census
and record-table bounds, and exposes the underlying order-theoretic and
Diophantine machinery, all of it in exact integer arithmetic.
"""

__version__ = "0.1.0"

from .dynamics import BudgetExhausted, Formalism, Trajectory, step, trajectory
from .poset import (HasseDiagram, PosetRelation, all_vectors, compare, covers,
                    hasse, check_remainder_monotonicity)
from .bounds import (EnRatioBounds, RemainderBounds, coefficient_ceiling_q,
                     en_ratio_bounds, floor_log_ratio, harmonic_cap_holds,
                     harmonic_mean_odd_terms, mean_remainder, ones_ratio_window,
                     remainder_bounds, small_j_classification,
                     smallest_harmonic_cap_j)
from .numtheory import (ApproxPair, Convergent, DivergenceWitness, approx_pairs,
                        convergents, divergent_to_paradox, heuristic_j_cap,
                        pair_in_s, partial_quotients, ratio_below_log2_log3,
                        rhin_gap_ok)
from .precision import Undecided
from .search import (CstReport, INFINITE, ParadoxHit, coeff_stopping_time, delay,
                     max_excursion, naive_paradoxes, scan_paradoxes, stopping_time,
                     verify_cst)
from .census import CensusRow, CensusSummary, render_census
from .records import (BoundChainReport, IngestError, RecordEntry, RecordKind,
                      RecordTable, compute_records, ingest_reference_records,
                      reference_path, theorem5_bound_chain)
from .runner import SearchConfig, SearchResult, hits_csv_text, run_search

__all__ = [
    # dynamics, poset
    "BudgetExhausted", "Formalism", "Trajectory", "step", "trajectory",
    "HasseDiagram", "PosetRelation", "all_vectors", "compare", "covers", "hasse",
    "check_remainder_monotonicity",
    # bounds
    "EnRatioBounds", "RemainderBounds", "coefficient_ceiling_q", "en_ratio_bounds",
    "floor_log_ratio", "harmonic_cap_holds", "harmonic_mean_odd_terms",
    "mean_remainder", "ones_ratio_window", "remainder_bounds",
    "small_j_classification", "smallest_harmonic_cap_j",
    # numtheory, precision
    "ApproxPair", "Convergent", "DivergenceWitness", "approx_pairs", "convergents",
    "divergent_to_paradox", "heuristic_j_cap", "pair_in_s", "partial_quotients",
    "ratio_below_log2_log3", "rhin_gap_ok",
    "Undecided",
    # search, census
    "CstReport", "INFINITE", "ParadoxHit", "coeff_stopping_time", "delay",
    "max_excursion", "naive_paradoxes", "scan_paradoxes", "stopping_time",
    "verify_cst",
    "CensusRow", "CensusSummary", "render_census",
    # records, runner
    "BoundChainReport", "IngestError", "RecordEntry", "RecordKind", "RecordTable",
    "compute_records", "ingest_reference_records", "reference_path",
    "theorem5_bound_chain",
    "SearchConfig", "SearchResult", "hits_csv_text", "run_search",
]
