"""Exact-arithmetic census and analysis of paradoxical Collatz sequences.

A trajectory is paradoxical when its linear-form coefficient has dropped
below 1 and the last term still is at least the first.  This package
enumerates all of them over integer ranges, reproduces the published census
and record-table bounds, and exposes the underlying order-theoretic and
Diophantine machinery, all of it in exact integer arithmetic.

Each name below loads its module when it is first read (PEP 562), so
importing the package loads no module, and the CLI loads only what its
command runs: a search loads the dynamics, precision, search, runner and
census modules, not the bound, Diophantine, poset, record or scoreboard
layers.
"""

import importlib

__version__ = "0.1.0"

# The exported names, by module.
_EXPORTS = {
    "dynamics": "BudgetExhausted Formalism Trajectory step trajectory",
    "poset": "HasseDiagram all_vectors covers hasse check_remainder_monotonicity",
    "bounds": "EnRatioBounds RemainderBounds coefficient_ceiling_q en_ratio_bounds "
              "floor_log_ratio harmonic_cap_holds harmonic_mean_odd_terms "
              "mean_remainders remainder_bounds smallest_harmonic_cap_j",
    "numtheory": "Convergent convergents heuristic_j_cap partial_quotients "
                 "ratio_below_log2_log3 rhin_gap_ok",
    "precision": "Undecided",
    "search": "CstReport INFINITE ParadoxHit coeff_stopping_time delay max_excursion "
              "naive_paradoxes scan_paradoxes stopping_time verify_cst",
    "census": "CensusRow CensusSummary render_census",
    "records": "BoundChainReport IngestError RecordEntry RecordKind RecordTable "
               "compute_records ingest_reference_records reference_path "
               "theorem5_bound_chain",
    "runner": "SearchConfig SearchResult hits_csv_text run_search",
}
__all__ = [name for names in _EXPORTS.values() for name in names.split()]
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name: str):
    """An exported name, or one of the modules above, loaded on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value   # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
