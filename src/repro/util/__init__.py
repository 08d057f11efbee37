"""Small shared utilities: deterministic PRNG streams, helpers, a bounded memo,
an atomic file write."""

from repro.util.rng import SplitMix64, XorShift64
from repro.util.misc import LruMemo, atomic_write, ceil_div, clamp, is_power_of_two, log2_int

__all__ = [
    "LruMemo",
    "SplitMix64",
    "XorShift64",
    "atomic_write",
    "ceil_div",
    "clamp",
    "is_power_of_two",
    "log2_int",
]
