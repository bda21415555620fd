"""Seeded random points of F_p for certification runs.

Every check in the exact suites is evaluated at random points of F_p,
p = `scalar_field.P`: each drawn scalar is uniform on F_p, or on its
nonzero elements where a row asks for that.  A builder that hits a pole
mod p raises PoleError and the runner redraws every declared variable.
Child streams come from a stable hash, so a run is reproducible from its
seed regardless of process layout.

A nonzero polynomial defect of degree d in the drawn scalars vanishes at
a uniform point with probability at most d/p (Schwartz, J. ACM 27, 1980),
so each drawn scalar adds at most 1/p per degree.  The fixed p cannot see
a defect whose every coefficient it divides.
"""

from __future__ import annotations

import hashlib
import random

from .scalar_field import P, PoleError, Residue, rat

MAX_RETRIES = 200


class SamplingExhausted(RuntimeError):
    """Too many consecutive draws hit poles of the quantity under test."""


def child_seed(seed: int, tag: str) -> int:
    """Derive a stream seed from a run seed and a suite tag, stably."""
    h = hashlib.sha256(("%d:%s" % (seed, tag)).encode()).digest()
    return int.from_bytes(h[:8], "big")


def make_rng(seed: int, tag: str = "") -> random.Random:
    return random.Random(child_seed(seed, tag) if tag else seed)


def rand_scalar(rng: random.Random, nonzero: bool = False) -> Residue:
    """A uniform element of F_p, or of its nonzero elements."""
    return rat(rng.randrange(1 if nonzero else 0, P))


def rand_tuple(rng: random.Random, count: int, nonzero: bool = False):
    return tuple(rand_scalar(rng, nonzero=nonzero) for _ in range(count))


def rand_column(rng: random.Random, indices) -> dict:
    """{index: entry} of a random column on the given indices, each entry
    uniform on F_p, zeros left out.  A matrix D over F_p with a nonzero
    entry in one of these columns has D v = 0 with probability at most 1/p
    (Freivalds, IFIP 1977): a row of D with a nonzero entry at j is
    orthogonal to v for exactly one value of v_j."""
    column = {}
    for i in indices:
        v = rng.randrange(P)
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
    raise SamplingExhausted("no pole-free point of F_%d in %d draws" % (P, MAX_RETRIES))
