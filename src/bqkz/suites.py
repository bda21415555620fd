"""Named certification suites over seeded random rational points.

Each suite bundles a family of exact identities: one sample draws a random
rational parameter point, evaluates every residual in the family, and
passes only if all of them vanish identically.  Results are booleans, not
small floats; there is no tolerance anywhere in this module.

A suite is one row of a table: its anchor, the label of a size, its sizes,
its default sample count, and a function that maps a size to the builder
that `sample_point` calls.  The builder draws the point, runs the checks
and returns (failing names, point); set-up that depends on the size alone
stays outside it.  One runner loops over the sizes, draws the points and
formats each failure note as "<size label> <name> point=<point>".  A route
mismatch inside a check becomes a failure note, not an exception.

Samples are independently seeded from the run seed and the pair
(suite name, sample index), so a run is reproducible regardless of how
many workers execute it.  Set BQKZ_THREADS to parallelize across samples
(at most one worker per CPU); assembly order is fixed either way.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .tensor_ops import Space, commutator
from .sampling import child_seed, make_rng, rand_rational, rand_tuple, sample_point
from . import compat_ops, hecke_module, rqkz
from .rqkz import ModelParams

__all__ = [
    "SuiteResult",
    "anchor_map",
    "check_name",
    "run_suite",
    "run_suites",
    "suite_names",
]


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one suite run; exact_zero is a boolean, never a float."""

    name: str
    anchor: str
    sizes: tuple
    samples: int
    failures: int
    exact_zero: bool
    notes: tuple

    def body(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "sizes": [list(s) if isinstance(s, tuple) else s for s in self.sizes],
            "samples": self.samples,
            "failures": self.failures,
            "exact_zero": self.exact_zero,
            "notes": list(self.notes),
        }


class _SetupDefect(Exception):
    """A check on the size alone failed, so no point is drawn for it."""


def _rand_x(rng, count: int) -> tuple:
    return rand_tuple(rng, count, nonzero=True)


def _failing(checks, states=None) -> list:
    """Names of the (name, defect) pairs whose defect does not vanish, or
    does not vanish on the orbit states when they are given."""
    if states is None:
        return [name for name, defect in checks if not defect.is_zero()]
    return [name for name, defect in checks if not hecke_module.zero_on_orbit(defect, states)]


# Builders of the braid suites name no check: their notes read
# "<size label> point=<point>".


def _ybe(half):
    def build(r):
        k = rand_rational(r, nonzero=True)
        l1, l2, l3 = rand_tuple(r, 3)
        return _failing([("", rqkz.ybe_defect(k, l1, l2, l3, half))]), (k, l1, l2, l3)

    return build


def _bybe(half):
    def build(r):
        k = rand_rational(r, nonzero=True)
        beta = rand_rational(r, nonzero=True)
        x = _rand_x(r, half)
        l1, l2 = rand_tuple(r, 2)
        return _failing([("", rqkz.bybe_defect(k, beta, x, l1, l2))]), (k, beta, x, l1, l2)

    return build


def _unitarity(half):
    def build(r):
        k = rand_rational(r, nonzero=True)
        beta = rand_rational(r, nonzero=True)
        lam = rand_rational(r, nonzero=True)
        x = _rand_x(r, half)
        checks = [
            ("exchange-inverse", rqkz.r_unitarity_defect(k, lam, half)),
            ("reflection-inverse", rqkz.k_unitarity_defect(lam, x, beta)),
            ("swap-factor", rqkz.swap_factor_defect(k, lam, half)),
            ("flip-factor", rqkz.flip_factor_defect(lam, x, beta)),
        ]
        return _failing(checks), (k, beta, lam, x)

    return build


def _model_suite(checks, draw_x=True, on_orbit=False):
    """builder_for of a suite drawn at random model parameters, coordinates x
    (when draw_x) and arguments y on Space(n, half); a size is (n, half), or
    n for half = n.  checks(x, y, params) yields (name, defect) pairs, and
    with on_orbit a defect need only vanish on the orbit states."""

    def builder_for(size):
        n, half = size if isinstance(size, tuple) else (size, size)
        space = Space(n, half)
        states = tuple(hecke_module.orbit_states(space)) if on_orbit else None

        def build(r):
            params = ModelParams.random(r, space)
            x = _rand_x(r, half) if draw_x else None
            y = rand_tuple(r, n)
            return _failing(checks(x, y, params), states), ((x, y) if draw_x else y)

        return build

    return builder_for


def _qkz_consistency(x, y, params):
    n = params.space.n
    qs = [rqkz.op_Q(m, x, y, params) for m in range(1, n + 1)]
    for m, q_m in enumerate(qs, start=1):
        yield "split-%d" % m, rqkz.q_split_defect(m, x, y, params, q_m)
        yield "inverse-%d" % m, rqkz.q_inverse_defect(m, x, y, params, q_m)
        # The (l, m) defect builds the same two factor chains as (m, l) with
        # the sides swapped, so each unordered pair is checked once.
        for l in range(m + 1, n + 1):
            yield "pair-%d-%d" % (m, l), rqkz.transport_consistency_defect(
                m, l, x, y, params, q_m, qs[l - 1]
            )


def _lemma_aa(x, y, params):
    half = params.space.half_dim
    for a in range(1, half + 1):
        for b in range(a + 1, half + 1):
            yield "pair-%d-%d" % (a, b), compat_ops.comm_AA_defect(a, b, y, params)


def _lemma_ll(x, y, params):
    half = params.space.half_dim
    ls = [compat_ops.op_L(a, x, y, params) for a in range(1, half + 1)]
    for a, l_a in enumerate(ls, start=1):
        yield "assembly-%d" % a, compat_ops.block_assembly_defect(a, x, y, params, l_a)
        for b in range(a + 1, half + 1):
            yield "pair-%d-%d" % (a, b), commutator(l_a, ls[b - 1])


def _cross_derivative(x, y, params):
    half = params.space.half_dim
    for a in range(1, half + 1):
        for b in range(a + 1, half + 1):
            yield "pair-%d-%d" % (a, b), compat_ops.check_cross_derivative(a, b, x, y, params)


def _compatibility(x, y, params):
    sites = range(1, params.space.n + 1)
    qs = [rqkz.op_Q(m, x, y, params) for m in sites]
    tails = [rqkz.op_Q_tail(m, x, y, params) for m in sites]
    parts = [compat_ops.three_term_parts(m, x, y, params) for m in sites]
    for a in range(1, params.space.half_dim + 1):
        l_a = compat_ops.op_L(a, x, y, params)
        for m in sites:
            shifted = compat_ops.op_L(a, x, rqkz.shift_y(y, m, params.c), params)
            yield "split-%d-%d" % (a, m), compat_ops.compat_three_term(
                a, m, x, y, params, l_a, shifted, parts[m - 1]
            )
            yield "direct-%d-%d" % (a, m), compat_ops.compat_direct(
                a, m, x, y, params, l_a, shifted, qs[m - 1], tails[m - 1]
            )


def _aha(x, y, params):
    return hecke_module.check_AHA_relations(y, params)


def _l_restriction(x, y, params):
    for a in range(1, params.space.n + 1):
        for name, defect in hecke_module.check_L_restriction(a, x, y, params):
            yield "%s-%d" % (name, a), defect


def _comm_im(half):
    space = Space(2, half)

    def build(r):
        params = ModelParams.random(r, space)
        x = _rand_x(r, half)
        y1 = rand_rational(r)
        y2 = rand_rational(r)
        checks = []
        for a in range(1, half + 1):
            checks.append(("conjugation-%d" % a, compat_ops.check_comm_IM(a, x, y1, y2, params)))
            checks.append(("slot-swap-%d" % a, compat_ops.m_conjugation_defect(a, x, params)))
        return _failing(checks), (x, y1, y2)

    return build


def _phi_iso(n):
    space = Space(n, n)
    elements = list(hecke_module.all_elements(n))
    images = set()
    for w in elements:
        vec = hecke_module.phi(w, space)
        (state,) = vec.entries
        images.add(state)
    if len(images) != len(elements):
        raise _SetupDefect("images collide")

    def build(r):
        x = _rand_x(r, n)
        word1 = [("s0" if g == 0 else g) for g in
                 (r.randint(0, n) for _ in range(r.randint(0, 4)))]
        word2 = [("s0" if g == 0 else g) for g in
                 (r.randint(0, n) for _ in range(r.randint(0, 4)))]
        out = []
        lhs = hecke_module.rhoR_word(word1 + word2, x, space)
        rhs = hecke_module.rhoR_word(word2, x, space) @ hecke_module.rhoR_word(
            word1, x, space
        )
        if not (lhs - rhs).is_zero():
            out.append("reversal word=%r+%r" % (word1, word2))
        w = hecke_module.SignedPerm.identity(n)
        vec = hecke_module.phi(w, space)
        for g in word1:
            vec = hecke_module.rhoR_generator(g, x, space).apply(vec)
            w = w * (
                hecke_module.elem_r(1, n)
                if g == "s0"
                else hecke_module.SignedPerm.generator(n, g)
            )
        target_states = set(hecke_module.phi(w, space).entries)
        if set(vec.entries) != target_states:
            out.append("equivariance word=%r" % (word1,))
        return out, (x, word1, word2)

    return build


def _cbar_qinv(n):
    space = Space(n, n)
    states = tuple(hecke_module.orbit_states(space))

    def build(r):
        params = ModelParams.random(r, space)
        x = _rand_x(r, n)
        y = rand_tuple(r, n)
        out = []
        for m in range(1, n + 1):
            cbar = hecke_module.op_Cbar(m, x, y, params)
            if hecke_module.cbar_vs_inverse_transport_defects(m, x, y, params, cbar, states):
                out.append("site-%d" % m)
            if cbar != hecke_module.cbar_grouped(m, x, y, params):
                out.append("grouped-%d" % m)
        return out, (x, y)

    return build


class _Suite(NamedTuple):
    """One row of the suite table; label % size names a size in the notes."""

    anchor: str
    label: str
    sizes: tuple
    samples: int
    builder_for: Callable


_HALF = "half=%d"
_PAIR = "n=%d half=%d"
_ORBIT = "n=%d"
_HALF_SIZES = (1, 2, 3)
_PAIR_SIZES = ((2, 2), (3, 2))

_SUITES = {
    "ybe": _Suite("two-site exchange braid identity", _HALF, _HALF_SIZES, 100, _ybe),
    "bybe": _Suite("boundary reflection braid identity", _HALF, _HALF_SIZES, 100, _bybe),
    "unitarity": _Suite(
        "exchange and reflection inverse identities", _HALF, _HALF_SIZES, 100, _unitarity
    ),
    "qkz-consistency": _Suite(
        "transport family shift consistency", _PAIR, ((2, 2), (3, 2), (2, 3)), 100,
        _model_suite(_qkz_consistency),
    ),
    "lemma-AA": _Suite(
        "polynomial coefficient family commutes", _PAIR, _PAIR_SIZES, 100,
        _model_suite(_lemma_aa, draw_x=False),
    ),
    "lemma-LL": _Suite(
        "matrix part family commutes", _PAIR, _PAIR_SIZES, 100, _model_suite(_lemma_ll)
    ),
    "cross-derivative": _Suite(
        "coordinate part cross derivatives agree", _PAIR, _PAIR_SIZES, 100,
        _model_suite(_cross_derivative),
    ),
    "comm-IM": _Suite(
        "exchange conjugation of one-site plus pair blocks", _HALF, _HALF_SIZES, 100, _comm_im
    ),
    "compatibility": _Suite(
        "difference and differential operators are compatible", _PAIR,
        ((1, 1), (2, 2), (3, 2), (2, 3)), 100, _model_suite(_compatibility),
    ),
    "aha-relations": _Suite(
        "degenerate cross relations on the orbit", _ORBIT, (2, 3), 100,
        _model_suite(_aha, draw_x=False, on_orbit=True),
    ),
    "phi-iso": _Suite("group element to orbit vector isomorphism", _ORBIT, (2, 3), 50, _phi_iso),
    "cbar-qinv": _Suite(
        "degenerate product equals inverse transport on the orbit", _ORBIT, (2, 3), 50, _cbar_qinv
    ),
    "l-restriction": _Suite(
        "pair-sum restriction identities on the orbit", _ORBIT, (2, 3), 100,
        _model_suite(_l_restriction, on_orbit=True),
    ),
}


def suite_names() -> tuple:
    return tuple(_SUITES)


def anchor_map() -> dict:
    return {name: suite.anchor for name, suite in _SUITES.items()}


def check_name(name):
    """Reject anything but a suite name, listing the valid names."""
    if not isinstance(name, str) or name not in _SUITES:
        raise ValueError(
            "unknown suite %r; valid names: %s" % (name, ", ".join(sorted(_SUITES)))
        )


def _run_one(task):
    """One seeded sample of one suite; returns (index, failure notes)."""
    name, seed, index, sizes = task
    suite = _SUITES[name]
    rng = make_rng(child_seed(seed, "%s:%d" % (name, index)))
    notes = []
    for size in sizes:
        label = suite.label % size
        try:
            names, point = sample_point(rng, suite.builder_for(size))
        except _SetupDefect as exc:
            notes.append("%s %s" % (label, exc))
            continue
        except compat_ops.RouteMismatch as exc:
            notes.append("%s route-mismatch: %s" % (label, exc))
            continue
        for nm in names:
            notes.append("%s point=%r" % (" ".join(filter(None, (label, nm))), point))
    return index, notes


def thread_count() -> int:
    """Worker processes from BQKZ_THREADS, at least 1 and at most the CPU count."""
    raw = os.environ.get("BQKZ_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError("BQKZ_THREADS must be an integer, got %r" % raw)
    return max(1, min(value, os.cpu_count() or 1))


def run_suite(name: str, samples: int | None = None, seed: int = 0, sizes=None,
              executor=None) -> SuiteResult:
    """Run one suite; unknown names raise ValueError listing valid ones."""
    check_name(name)
    suite = _SUITES[name]
    count = suite.samples if samples is None else samples
    used_sizes = tuple(sizes) if sizes is not None else suite.sizes
    tasks = [(name, seed, idx, used_sizes) for idx in range(count)]
    if executor is None:
        results = [_run_one(t) for t in tasks]
    else:
        results = list(executor.map(_run_one, tasks))
    results.sort(key=lambda pair: pair[0])
    notes = []
    failures = 0
    for _, sample_notes in results:
        if sample_notes:
            failures += 1
            if len(notes) < 5:
                notes.extend(sample_notes[:2])
    return SuiteResult(
        name=name,
        anchor=suite.anchor,
        sizes=used_sizes,
        samples=count,
        failures=failures,
        exact_zero=failures == 0,
        notes=tuple(notes[:5]),
    )


def run_suites(names=None, samples: int | None = None, seed: int = 0,
               threads: int | None = None):
    """Run suites in declaration order; yields (SuiteResult, elapsed seconds).

    With threads > 1 the samples of each suite are distributed over a
    process pool; results are assembled in (suite, sample index) order so
    the output is identical to a serial run.
    """
    chosen = list(names) if names is not None else list(_SUITES)
    for nm in chosen:
        check_name(nm)
    workers = thread_count() if threads is None else max(1, threads)
    executor = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for nm in chosen:
            start = time.perf_counter()
            result = run_suite(nm, samples=samples, seed=seed, executor=executor)
            yield result, time.perf_counter() - start
    finally:
        if executor is not None:
            executor.shutdown()
