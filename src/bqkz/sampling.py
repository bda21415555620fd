"""Seeded random rational points for certification runs.

Every check in the exact suites is evaluated at random rational parameter
points.  Candidates are drawn with numerators in [-50, 50] and denominators
in [1, 20]; a builder that hits a pole raises PoleError and the runner
redraws every declared variable.  Child streams come from a stable hash,
so a run is reproducible from its seed regardless of process layout.
"""

from __future__ import annotations

import hashlib
import random

from .scalar_field import PoleError, rat

NUM_BOUND = 50
DEN_BOUND = 20
MAX_RETRIES = 200


class SamplingExhausted(RuntimeError):
    """Too many consecutive draws hit poles of the quantity under test."""


def child_seed(seed: int, tag: str) -> int:
    """Derive a stream seed from a run seed and a suite tag, stably."""
    h = hashlib.sha256(("%d:%s" % (seed, tag)).encode()).digest()
    return int.from_bytes(h[:8], "big")


def make_rng(seed: int, tag: str = "") -> random.Random:
    return random.Random(child_seed(seed, tag) if tag else seed)


def rand_rational(rng: random.Random, nonzero: bool = False):
    while True:
        num = rng.randint(-NUM_BOUND, NUM_BOUND)
        if nonzero and num == 0:
            continue
        return rat(num, rng.randint(1, DEN_BOUND))


def rand_tuple(rng: random.Random, count: int, nonzero: bool = False):
    return tuple(rand_rational(rng, nonzero=nonzero) for _ in range(count))


def rand_column(rng: random.Random, indices) -> dict:
    """{index: entry} of a random integer column on the given indices, each
    entry uniform in [-NUM_BOUND, NUM_BOUND], zeros left out.  A matrix D
    with a nonzero entry in one of these columns has D v = 0 with
    probability at most 1/(2 NUM_BOUND + 1) (Freivalds, IFIP 1977): a row
    of D with a nonzero entry at j is orthogonal to v for at most one value
    of v_j."""
    column = {}
    for i in indices:
        v = rng.randint(-NUM_BOUND, NUM_BOUND)
        if v:
            column[i] = v
    return column


def sample_point(rng: random.Random, builder):
    """Draw points, at most MAX_RETRIES, until builder(rng) returns without
    a PoleError.

    builder draws a point from rng and either returns a value or raises
    PoleError when the point sits on a pole.
    """
    for _ in range(MAX_RETRIES):
        try:
            return builder(rng)
        except PoleError:
            continue
    raise SamplingExhausted(
        "no pole-free point in %d draws (numerators within %d, denominators within %d)"
        % (MAX_RETRIES, NUM_BOUND, DEN_BOUND)
    )
