"""Workload inputs, sizes and known answers of the census-engine benchmark.

Nothing here imports the package: the main process, the child processes and the
traced layer suite all draw their inputs from this one module, so a seed means
the same inputs everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# sha256 of the hit CSV and of the census table written by
# `search --range 3..10^6 --no-timestamp`, recorded at commit 39da445.
CENSUS_DIGESTS = {
    "shortcut": ("b6d0de28c39642968ea3188049361cdf61996065ec663840b5b33ce052a197e2",
                 "0796e9544750455f31bed3e1f872bb3ac9e4a32f46b1d8646da6bb650d5219d6"),
    "classic": ("c7d3cacce375380f6d970e01c59255f5aa9794b8e9db58f1eb9ed64b32e3415b",
                "c4d20bc984f8c8f91dbb732b84c1c9dbd7bf51ea2e43c882636f92ce77d1f924"),
}
# The same two files for 3..262146 (four full 2^16-start blocks), which holds
# every hit of the census (the largest hit start is 4614 shortcut, 9229
# classic): only the range header of the CSV differs, the table is the same.
LAYER_CENSUS_DIGESTS = {
    "shortcut": ("fddda08a994b30f4e46d61492000a6e404162529c54384daeb65eb453e9e6f9d",
                 CENSUS_DIGESTS["shortcut"][1]),
    "classic": ("c0ce3406b622ee035981192a452dfb0d39c44edb0b1c0db41dbe72f3f8ca028b",
                CENSUS_DIGESTS["classic"][1]),
}

# Far-window bounds.  By the paper's bound chain (`collatz-paradox bounds
# chain`), a paradox with start n > N0 forces a classic delay of at least
# j0 + q0 = 2510, while every start up to the delay-table frontier N1 has a
# delay of at most 2456.  So no paradox starts in (N0, N1], and every window
# drawn below must report 0 hits, whatever the seed.
N0 = 10**9
N1 = 28 * 10**18
# Every start below 1410123943 (the next max-excursion record holder) has a
# largest shortcut iterate of at most 707118223359971240 < 2^63, so the first
# window stays in int64.  The second starts at 2^64, so every iterate is beyond
# int64.
INT64_WINDOW_TOP = 1410123943
BIGINT_WINDOW_BASE = 1 << 64

# The scoreboard checks each workload runs.
VERIFY_CHECKS = ("cst", "record_prefixes", "bound_chain", "diophantine")
PROPERTY_CHECKS = ("property_monotonicity", "property_extremal", "property_mean",
                   "property_poset_equivalence")
# Starts walked by the range kernels inside VERIFY_CHECKS: the CST walk over
# 2..1150000, the two record prefix checks to 10^6 plus the excursion scan to
# 113383 (record_prefixes), and the two prefix checks to 10^5 (bound_chain).
VERIFY_STARTS = 1_149_999 + 2 * 10**6 + 113_383 + 2 * 10**5


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; the self-test shrinks it."""

    census_range: tuple[int, int] = (3, 10**6)
    census_digests: dict = field(default_factory=lambda: dict(CENSUS_DIGESTS))
    window_starts: tuple[int, int] = (1 << 15, 1 << 14)   # int64, bigint window
    window_block: int = 1 << 13
    verify_checks: tuple[str, ...] = VERIFY_CHECKS
    verify_starts: int = VERIFY_STARTS
    triples: int = 8000
    property_checks: tuple[str, ...] = PROPERTY_CHECKS
    setup_imports: int = 5   # per gap: before the first round and after each round
    layer_census_range: tuple[int, int] = (3, 262146)
    layer_census_digests: dict = field(default_factory=lambda: dict(LAYER_CENSUS_DIGESTS))


def windows(seed: int, round_index: int, sizes: Sizes) -> list[tuple[str, int, int]]:
    """The two far-window ranges (label, lo, hi) of one round, drawn from the seed."""
    rng = random.Random(f"far-window/{seed}/{round_index}")
    w64, wbig = sizes.window_starts
    lo64 = N0 + 1 + rng.randrange(INT64_WINDOW_TOP - N0 - w64)
    lobig = BIGINT_WINDOW_BASE + rng.randrange(N1 - BIGINT_WINDOW_BASE - wbig)
    return [("int64_window", lo64, lo64 + w64 - 1),
            ("bigint_window", lobig, lobig + wbig - 1)]


def triples(seed: int, round_index: int, count: int) -> list[tuple[int, int, str]]:
    """Random (n, j, formalism) triples with the scoreboard linear-form
    property's distribution: scales 10^3 to 2^200, j <= 120, both maps."""
    rng = random.Random(f"properties/{seed}/{round_index}")
    out = []
    for _ in range(count):
        scale = rng.choice((10**3, 10**6, 10**12, 10**18, 1 << 200))
        n = rng.randrange(1, scale)
        j = rng.randrange(0, 121)
        out.append((n, j, "shortcut" if rng.random() < 0.5 else "classic"))
    return out
