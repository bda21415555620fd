"""Named certification suites over seeded random rational points.

Each suite bundles a family of exact identities: one sample draws a random
rational parameter point, evaluates every residual in the family, and
passes only if all of them vanish identically.  Results are booleans, not
small floats; there is no tolerance anywhere in this module.

The three transport suites (qkz-consistency, compatibility, cbar-qinv)
never form their products: each applies every factor chain to one seeded
random integer column v (Freivalds' check) and tests D(p) v = 0 for the
point's defect D(p).  A nonzero D(p) passes one sample with probability at
most 1/101 on top of the point's own chance of sitting on a zero of D.
The other suites evaluate their defects as whole operators.

A suite is one row of a table: its anchor, the label of a size, its sizes,
its default sample count, and `builder_for`, which maps a size to a pair
(failing point-free checks, builder).  `builder_for` runs once per size
per run and does everything that depends on the size alone: it builds the
operators no point changes and runs the point-free checks, the identities
between fixed operators that read no point.  The builder, which
`sample_point` calls, draws the point, runs the checks that read it and
returns (failing names, point).  It takes the point's stream and the
column stream, from which the transport suites draw v.

One runner loops over the sizes and draws the points.  A sample with any
failing check counts as one failure; its notes read "<size label> <name>
point=<point>".  A size with a failing point-free check counts as one
failure of the run, whatever the sample count, with one note "<size label>
<name>"; its samples are drawn all the same.  A route mismatch inside a
check becomes a failure note, not an exception.

Samples are independently seeded from the run seed and the pair
(suite name, sample index), so a suite's body depends only on the suite,
the seed and the sample count, not on what else runs; v comes from its
own stream, seeded from the same pair and the tag "v", so the points and
their redraws do not depend on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .tensor_ops import LinOp, Space, commutator
from .sampling import child_seed, make_rng, rand_column, rand_rational, rand_tuple, sample_point
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


def _rand_x(rng, count: int) -> tuple:
    return rand_tuple(rng, count, nonzero=True)


def _failing(checks, states=None) -> list:
    """Names of the (name, defect) pairs whose defect does not vanish, or
    does not vanish on the orbit states when they are given.  A point-free
    check's defect may be a bool, True when it fails."""

    def vanishes(defect):
        if isinstance(defect, bool):
            return not defect
        if states is None:
            return defect.is_zero()
        return hecke_module.zero_on_orbit(defect, states)

    return [name for name, defect in checks if not vanishes(defect)]


def _start(space: Space, *columns) -> LinOp:
    """Operator whose i-th column is the i-th given {index: entry} column."""
    return LinOp.of(space, {i: col for i, col in enumerate(columns) if col})


# Builders of the braid suites name no check: their notes read
# "<size label> point=<point>".  Like every builder_for without point-free
# checks, each returns ([], builder).  Only the transport suites read the
# column stream.


def _ybe(half):
    def build(r, _):
        k = rand_rational(r, nonzero=True)
        l1, l2, l3 = rand_tuple(r, 3)
        return _failing([("", rqkz.ybe_defect(k, l1, l2, l3, half))]), (k, l1, l2, l3)

    return [], build


def _bybe(half):
    def build(r, _):
        k = rand_rational(r, nonzero=True)
        beta = rand_rational(r, nonzero=True)
        x = _rand_x(r, half)
        l1, l2 = rand_tuple(r, 2)
        return _failing([("", rqkz.bybe_defect(k, beta, x, l1, l2))]), (k, beta, x, l1, l2)

    return [], build


def _unitarity(half):
    def build(r, _):
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

    return [], build


def _model_suite(checks, draw_x=True, column=False):
    """builder_for of a suite drawn at random model parameters, coordinates x
    (when draw_x) and arguments y on Space(n, half); a size is (n, half), or
    n for half = n.  checks(x, y, params) yields (name, defect) pairs."""
    return _sized_model_suite(lambda space: ([], checks), draw_x, column=column)


def _sized_model_suite(setup, draw_x=True, on_orbit=False, column=False):
    """The same, with work that depends on the space alone: setup(space)
    returns the point-free (name, defect) pairs and the checks, which may
    share operators built there.  With on_orbit a defect need only vanish
    on the orbit states.  With column the checks take a fourth argument,
    the start: one random integer column drawn from the column stream."""

    def builder_for(size):
        n, half = size if isinstance(size, tuple) else (size, size)
        space = Space(n, half)
        states = tuple(hecke_module.orbit_states(space)) if on_orbit else None
        point_free, checks = setup(space)

        def build(r, vr):
            params = ModelParams.random(r, space)
            x = _rand_x(r, half) if draw_x else None
            y = rand_tuple(r, n)
            start = (_start(space, rand_column(vr, range(space.dim))),) if column else ()
            return _failing(checks(x, y, params, *start), states), ((x, y) if draw_x else y)

        return _failing(point_free, states), build

    return builder_for


def _qkz_consistency(space):
    sites = range(1, space.n + 1)
    point_free = [("split-%d" % m, rqkz.q_split_defect(m, space.n)) for m in sites]

    def checks(x, y, params, v):
        qs = [rqkz.compose_descs(rqkz.q_factor_list(m, space.n), x, y, params, start=v)
              for m in sites]
        for m, q_m in enumerate(qs, start=1):
            yield "inverse-%d" % m, rqkz.q_inverse_defect(m, x, y, params, q_m, v)
            # The (l, m) defect builds the same two factor chains as (m, l)
            # with the sides swapped, so each unordered pair is checked once.
            for l in range(m + 1, space.n + 1):
                yield "pair-%d-%d" % (m, l), rqkz.transport_consistency_defect(
                    m, l, x, y, params, q_m, qs[l - 1]
                )

    return point_free, checks


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


def _compatibility(x, y, params, v):
    sites = range(1, params.space.n + 1)
    direct = [compat_ops.direct_parts(m, x, y, params, v) for m in sites]
    split = [compat_ops.three_term_parts(m, x, y, params, v) for m in sites]
    for a in range(1, params.space.half_dim + 1):
        l_a = compat_ops.op_L(a, x, y, params)
        for m in sites:
            shifted = compat_ops.op_L(a, x, rqkz.shift_y(y, m, params.c), params)
            yield "split-%d-%d" % (a, m), compat_ops.compat_three_term(
                a, m, x, y, params, l_a, shifted, split[m - 1]
            )
            yield "direct-%d-%d" % (a, m), compat_ops.compat_direct(
                a, m, x, y, params, l_a, shifted, direct[m - 1]
            )


def _aha(space):
    gens = hecke_module.generator_images(space)
    return [], lambda x, y, params: hecke_module.check_AHA_relations(y, params, gens)


def _l_restriction(space):
    labels = range(1, space.n + 1)
    images = hecke_module.pair_sum_images(space)
    point_free = [
        ("%s-%d" % (name, a), defect)
        for a in labels
        for name, defect in hecke_module.pair_sum_identities(a, space, images)
    ]

    def checks(x, y, params):
        for a in labels:
            yield "assembled-%d" % a, hecke_module.check_L_restriction(a, x, params, images)

    return point_free, checks


def _comm_im(half):
    space = Space(2, half)

    def build(r, _):
        params = ModelParams.random(r, space)
        x = _rand_x(r, half)
        y1 = rand_rational(r)
        y2 = rand_rational(r)
        checks = []
        for a in range(1, half + 1):
            checks.append(("conjugation-%d" % a, compat_ops.check_comm_IM(a, x, y1, y2, params)))
            checks.append(("slot-swap-%d" % a, compat_ops.m_conjugation_defect(a, x, params)))
        return _failing(checks), (x, y1, y2)

    return [], build


def _phi_iso(n):
    space = Space(n, n)
    elements = list(hecke_module.all_elements(n))
    images = set()
    for w in elements:
        vec = hecke_module.phi(w, space)
        (state,) = vec.entries
        images.add(state)
    point_free = ["images-collide"] if len(images) != len(elements) else []

    def build(r, _):
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

    return point_free, build


def _cbar_qinv(n):
    space = Space(n, n)
    orbit = [space.index(s) for s in hecke_module.orbit_states(space)]

    def build(r, vr):
        params = ModelParams.random(r, space)
        x = _rand_x(r, n)
        y = rand_tuple(r, n)
        # Column 0 is a full column for the grouped check, column 1 one on
        # the orbit states for the orbit check.
        start = _start(space, rand_column(vr, range(space.dim)), rand_column(vr, orbit))
        out = []
        for m in range(1, n + 1):
            cbar = hecke_module.op_Cbar(m, x, y, params, start)
            if hecke_module.cbar_vs_inverse_transport_defects(m, x, y, params, cbar, start, (1,)):
                out.append("site-%d" % m)
            if cbar != hecke_module.cbar_grouped(m, x, y, params, start):
                out.append("grouped-%d" % m)
        return out, (x, y)

    return [], build


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
        _sized_model_suite(_qkz_consistency, column=True),
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
        ((1, 1), (2, 2), (3, 2), (2, 3)), 100, _model_suite(_compatibility, column=True),
    ),
    "aha-relations": _Suite(
        "degenerate cross relations on the orbit", _ORBIT, (2, 3), 100,
        _sized_model_suite(_aha, draw_x=False, on_orbit=True),
    ),
    "phi-iso": _Suite("group element to orbit vector isomorphism", _ORBIT, (2, 3), 50, _phi_iso),
    "cbar-qinv": _Suite(
        "degenerate product equals inverse transport on the orbit", _ORBIT, (2, 3), 50, _cbar_qinv
    ),
    "l-restriction": _Suite(
        "pair-sum restriction identities on the orbit", _ORBIT, (2, 3), 100,
        _sized_model_suite(_l_restriction, on_orbit=True),
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


def run_suite(name: str, samples: int | None = None, seed: int = 0, sizes=None) -> SuiteResult:
    """Run one suite; unknown names raise ValueError listing valid ones."""
    check_name(name)
    suite = _SUITES[name]
    count = suite.samples if samples is None else samples
    used_sizes = tuple(sizes) if sizes is not None else suite.sizes
    labels = [suite.label % size for size in used_sizes]
    sized = [suite.builder_for(size) for size in used_sizes]
    notes = ["%s %s" % (label, point_free[0])
             for label, (point_free, _) in zip(labels, sized) if point_free]
    failures = len(notes)
    for index in range(count):
        rng = make_rng(child_seed(seed, "%s:%d" % (name, index)))
        vr = make_rng(child_seed(seed, "%s:%d:v" % (name, index)))
        sample_notes = []
        for label, (_, build) in zip(labels, sized):
            try:
                names, point = sample_point(rng, lambda r: build(r, vr))
            except compat_ops.RouteMismatch as exc:
                sample_notes.append("%s route-mismatch: %s" % (label, exc))
                continue
            for nm in names:
                sample_notes.append("%s point=%r" % (" ".join(filter(None, (label, nm))), point))
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


def run_suites(names=None, samples: int | None = None, seed: int = 0):
    """Run suites in declaration order; yields (SuiteResult, elapsed seconds)."""
    chosen = list(names) if names is not None else list(_SUITES)
    for nm in chosen:
        check_name(nm)
    for nm in chosen:
        start = time.perf_counter()
        yield run_suite(nm, samples=samples, seed=seed), time.perf_counter() - start
