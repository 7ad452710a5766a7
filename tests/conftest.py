"""Shared helpers: seeded random strings, and the Hypothesis profile."""

import random
from fractions import Fraction as F

from hypothesis import settings

from cubicstring.string_model import CubicString

# the same examples on every run, from no stored failures, and no
# per-example deadline for timing noise on a loaded machine to trip
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


def random_string(rng: random.Random, n: int, num=8, den=4) -> CubicString:
    """A random valid string with moderate rational entries."""
    masses = tuple(F(rng.randint(1, num), rng.randint(1, den)) for _ in range(n))
    gaps = tuple(F(rng.randint(1, num), rng.randint(1, den)) for _ in range(n - 1))
    anchor = F(rng.randint(-num, num), rng.randint(1, den))
    return CubicString(masses, gaps, anchor)
