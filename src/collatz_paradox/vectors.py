"""Parity vectors: fixed-length 0/1 words recording iterate parities."""

from __future__ import annotations

from itertools import accumulate


class ParityVector:
    """Immutable 0/1 word of length >= 1 with a cached ones-count and cached
    proper prefix sums (`prefix[i]` is the number of ones among the first
    i + 1 bits, for i < len - 1), so that `poset.compare` builds none."""

    __slots__ = ("bits", "q", "prefix")

    def __init__(self, bits):
        bits = tuple(int(b) for b in bits)
        if not bits:
            raise ValueError("parity vector must have length >= 1")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("parity vector bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "q", sum(bits))
        object.__setattr__(self, "prefix", tuple(accumulate(bits[:-1])))

    def __setattr__(self, *a):
        raise AttributeError("ParityVector is immutable")

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, ParityVector) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def run_length(self) -> str:
        """Compact display: runs abbreviated with ^, e.g. "1^2 0^3 1"."""
        parts = []
        i = 0
        bits = self.bits
        while i < len(bits):
            k = i
            while k < len(bits) and bits[k] == bits[i]:
                k += 1
            n = k - i
            parts.append(f"{bits[i]}^{n}" if n > 1 else f"{bits[i]}")
            i = k
        return " ".join(parts)

    def __repr__(self) -> str:
        return "⟨" + self.run_length() + "⟩"

