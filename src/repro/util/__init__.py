"""Small shared utilities: deterministic PRNG streams, helpers, a bounded memo."""

from repro.util.rng import SplitMix64, XorShift64
from repro.util.misc import LruMemo, ceil_div, clamp, is_power_of_two, log2_int

__all__ = [
    "LruMemo",
    "SplitMix64",
    "XorShift64",
    "ceil_div",
    "clamp",
    "is_power_of_two",
    "log2_int",
]
