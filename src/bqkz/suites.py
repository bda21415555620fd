"""Named certification suites over seeded random rational points.

Each suite bundles a family of exact identities: one sample draws a random
rational parameter point and passes only if every residual of the family
vanishes identically and both sides of every two-sided identity, compared
as canonical exact values, are equal.  Results are booleans, not small
floats; there is no tolerance anywhere in this module.

The three transport suites (qkz-consistency, compatibility, cbar-qinv)
and seven of the ten light suites (ybe, bybe, unitarity, lemma-AA,
lemma-LL, comm-IM, aha-relations) never form their products: each
applies every factor chain and every operator to one seeded random
integer column v (Freivalds' check), held as a dense `tensor_ops.Block`,
and tests D(p) v = 0 for the point's defect D(p).  On the block each
exchange and reflection factor is one gather over the column and every
other operator (L_a, A_a, the blocks I_a and M_a, the left-action images,
the derivative terms) is applied entry by entry where it acts; no factor
operator is written and nothing is embedded.  Each operator of a point is
built once, such as L_a or comm-IM's pair block M_a once per label for
every check that reads it.  Compatibility carries every label's image of
v through each chain of a site as one block, and reads label a's verdict
from its column a - 1.  unitarity draws two columns, one on two sites for
its exchange checks and one on one site for its reflection checks, and
aha-relations and cbar-qinv's orbit check draw theirs on the orbit
states only, where their identities hold.  A nonzero D(p) passes one
sample with probability at most 1/101 on top of the point's own chance of
sitting on a zero of D.  The other three light suites keep their own
routes, for the reasons given above the suite table: cross-derivative
proves D(p) = 0 on whole operators, phi-iso applies each generator's
factor by its gather to the unit column of phi(id) and reads the image's
support exactly, and l-restriction proves D(p) P = 0 for the orbit
projector P (`hecke_module.orbit_start`).

A suite is one row of a table: its anchor, the label of a size, its sizes,
its default sample count, the variables a point draws, and `builder_for`,
which maps a size to a pair (failing point-free checks, builder).
`builder_for` runs once per size per run and runs the point-free checks,
the identities between fixed operators that read no point.  Those
operators (matrix units, label-only sums, left-action images, orbit
states) are cached by the module that builds them, once per process, so
no suite holds them.  In each `sample_point` attempt the runner draws the
row's variables from the point's stream into one record (`_draw`), so a
pole redraw redraws them all.  The builder takes the record, the point's
stream (which only phi-iso reads) and the column stream, runs the checks
and returns (failing names, point); `_model_suite` builds most of them.
Every suite that reads a column draws it from the column stream first in
its builder or its checks, before any factor is built, so each redraw of
a point draws a new v; the other three leave it unread.

One runner loops over the sizes and draws the points.  A sample with any
failing check counts as one failure; its notes read "<size label> <name>
point=<point>".  A size with a failing point-free check counts as one
failure of the run, whatever the sample count, with one note "<size label>
<name>"; its samples are drawn all the same.  Every verdict is a named
check, such as compatibility's dk-route-<m> (`compat_ops.op_dK_term`).

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

from .tensor_ops import Block, Space, product
from .sampling import child_seed, make_rng, rand_column, rand_rational, rand_tuple, sample_point
from . import compat_ops, hecke_module, rqkz
from .rqkz import ModelParams

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


def _failing(checks) -> list:
    """Names of the failing (name, defect) pairs: a residual fails unless it
    vanishes, and a bool, from a point-free or a per-point check (two sides
    compared), when True."""
    return [name for name, defect in checks
            if (defect if isinstance(defect, bool) else not defect.is_zero())]


def _dims(size) -> tuple:
    """(n, half) of a size: a pair, or one number that stands for both."""
    return size if isinstance(size, tuple) else (size, size)


def _draw(r, variables, size) -> dict:
    """The point record {name: value} of the (name, count, nonzero)
    variables, drawn from the point stream r in order: one rational when
    count is None, else a tuple of count, or of the size's n or half."""
    counts = dict(zip(("n", "half"), _dims(size)))
    return {name: rand_rational(r, nonzero) if count is None
            else rand_tuple(r, counts.get(count, count), nonzero)
            for name, count, nonzero in variables}


def _column(vr, space: Space, indices=None) -> Block:
    """The block of one random integer column of the column stream on the
    given indices of space, every index by default."""
    return Block.of(space, rand_column(vr, range(space.dim) if indices is None else indices))


# Builders of the braid suites name no check: their notes read
# "<size label> point=<point>".  Like every builder_for without point-free
# checks, each returns ([], builder).


def _ybe(half):
    space = Space(3, half)

    def build(p, _, vr):
        v = _column(vr, space)
        point = p["k"], *p["l"]
        return _failing([("", rqkz.ybe_defect(*point, v))]), point

    return [], build


def _bybe(half):
    space = Space(2, half)

    def build(p, _, vr):
        v = _column(vr, space)
        point = p["k"], p["beta"], p["x"], *p["l"]
        return _failing([("", rqkz.bybe_defect(*point, v))]), point

    return [], build


def _unitarity(half):
    pair, site = Space(2, half), Space(1, half)

    def build(p, _, vr):
        # The exchange checks act on two sites, the reflection checks on one.
        v2, v1 = _column(vr, pair), _column(vr, site)
        k, beta, lam, x = p["k"], p["beta"], p["lam"], p["x"]
        checks = [
            ("exchange-inverse", rqkz.r_unitarity_defect(k, lam, v2)),
            ("reflection-inverse", rqkz.k_unitarity_defect(lam, x, beta, v1)),
            ("swap-factor", rqkz.swap_factor_defect(k, lam, v2)),
            ("flip-factor", rqkz.flip_factor_defect(lam, x, beta, v1)),
        ]
        return _failing(checks), (k, beta, lam, x)

    return [], build


def _model_suite(setup):
    """builder_for of a suite at model parameters, arguments y and, where
    its row declares them, coordinates x on Space(n, half).  setup(space)
    returns the point-free (name, defect) pairs and checks(x, y, params,
    vr), which yields (name, defect) pairs; vr is the column stream."""

    def builder_for(size):
        space = Space(*_dims(size))
        point_free, checks = setup(space)

        def build(p, _, vr):
            params = ModelParams(p["c"], p["k"], p["alpha"], p["beta"], space)
            x, y = p["x"] if "x" in p else None, p["y"]
            return _failing(checks(x, y, params, vr)), (y if x is None else (x, y))

        return _failing(point_free), build

    return builder_for


def _qkz_consistency(space):
    sites = range(1, space.n + 1)
    point_free = [("split-%d" % m, rqkz.q_split_defect(m, space.n)) for m in sites]

    def checks(x, y, params, vr):
        v = _column(vr, space)
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


def _lemma_aa(x, y, params, vr):
    v = _column(vr, params.space)
    half = params.space.half_dim
    for a in range(1, half + 1):
        for b in range(a + 1, half + 1):
            yield "pair-%d-%d" % (a, b), compat_ops.comm_AA_defect(a, b, y, params, v)


def _lemma_ll(x, y, params, vr):
    v = _column(vr, params.space)
    half = params.space.half_dim
    ls = [compat_ops.op_L(a, x, y, params) for a in range(1, half + 1)]
    l_v = [product((l_a, v)) for l_a in ls]
    for a, l_a in enumerate(ls, start=1):
        yield "assembly-%d" % a, compat_ops.block_assembly_defect(a, x, y, params, l_v[a - 1], v)
        for b in range(a + 1, half + 1):
            yield "pair-%d-%d" % (a, b), (product((l_a, l_v[b - 1]))
                                          != product((ls[b - 1], l_v[a - 1])))


def _cross_derivative(x, y, params, _):
    half = params.space.half_dim
    for a in range(1, half + 1):
        for b in range(a + 1, half + 1):
            yield "pair-%d-%d" % (a, b), compat_ops.check_cross_derivative(a, b, x, y, params)


def _compatibility(x, y, params, vr):
    space = params.space
    v = _column(vr, space)
    labels = range(1, space.half_dim + 1)
    ls = [compat_ops.op_L(a, x, y, params) for a in labels]
    l_v = Block.join([l_a.on_block(v) for l_a in ls])
    forms = []
    for m in range(1, space.n + 1):
        shifted = [compat_ops.op_L_shifted(a, m, l_a, params) for a, l_a in zip(labels, ls)]
        dk, differs = compat_ops.op_dK_term(m, x, y, params)
        yield "dk-route-%d" % m, differs
        forms.append((compat_ops.compat_three_term(m, x, y, params, ls, shifted, dk, v),
                      compat_ops.compat_direct(m, x, y, params, l_v, shifted, v)))
    for a in labels:
        for m, (split, direct) in enumerate(forms, start=1):
            yield "split-%d-%d" % (a, m), any(split.cols[a - 1])
            yield "direct-%d-%d" % (a, m), any(direct.cols[a - 1])


def _aha(x, y, params, vr):
    v = _column(vr, params.space, hecke_module.orbit_states(params.space))
    return hecke_module.check_AHA_relations(y, params, v)


def _l_restriction(space):
    labels = range(1, space.n + 1)
    start = hecke_module.orbit_start(space)
    images = [hecke_module.restriction_images(a, space, start) for a in labels]
    point_free = [
        ("%s-%d" % (name, a), defect)
        for a in labels
        for name, defect in hecke_module.pair_sum_identities(a, space, images[a - 1])
    ]

    def checks(x, y, params, _):
        for a in labels:
            yield "assembled-%d" % a, hecke_module.check_L_restriction(
                a, x, params, images[a - 1])

    return point_free, checks


def _comm_im(half):
    space = Space(2, half)

    def build(p, _, vr):
        v = _column(vr, space)
        params = ModelParams(p["c"], p["k"], p["alpha"], p["beta"], space)
        x, (y1, y2) = p["x"], p["y"]
        checks = []
        for a in range(1, half + 1):
            m_a = compat_ops.op_M(a, x, params)
            checks += [
                ("conjugation-%d" % a, compat_ops.check_comm_IM(a, x, y1, y2, params, m_a, v)),
                ("slot-swap-%d" % a, compat_ops.m_conjugation_defect(a, x, params, m_a, v)),
            ]
        return _failing(checks), (x, y1, y2)

    return [], build


def _phi_iso(n):
    space = Space(n, n)
    elements = list(hecke_module.all_elements(n))
    images = {hecke_module.phi(w, space) for w in elements}
    point_free = ["images-collide"] if len(images) != len(elements) else []

    def build(p, r, _):
        x = p["x"]
        word = [("s0" if g == 0 else g) for g in
                (r.randint(0, n) for _ in range(r.randint(0, 4)))]
        w = hecke_module.SignedPerm.identity(n)
        image = Block.of(space, {hecke_module.phi(w, space): 1})
        for g in word:
            image = hecke_module.rhoR_generator(g, x, space).on_block(image)
            w = w * (
                hecke_module.elem_r(1, n)
                if g == "s0"
                else hecke_module.SignedPerm.generator(n, g)
            )
        support = {i for i, v in enumerate(image.cols[0]) if v}
        failing = support != {hecke_module.phi(w, space)}
        return ["equivariance word=%r" % (word,)] if failing else [], (x, word)

    return point_free, build


def _cbar_qinv(x, y, params, vr):
    space = params.space
    # Column 0 is a full column for the grouped check, column 1 one on the
    # orbit states for the orbit check.
    start = Block.of(space, rand_column(vr, range(space.dim)),
                     rand_column(vr, hecke_module.orbit_states(space)))
    for m in range(1, space.n + 1):
        cbar = hecke_module.op_Cbar(m, x, y, params, start)
        yield "site-%d" % m, hecke_module.cbar_vs_inverse_transport_defect(
            m, x, y, params, cbar, start, (1,))
        yield "grouped-%d" % m, cbar != hecke_module.cbar_grouped(m, x, y, params, start)


class _Suite(NamedTuple):
    """One row of the suite table; label % size names a size in the notes."""

    anchor: str
    label: str
    sizes: tuple
    samples: int
    variables: tuple
    builder_for: Callable


# Every suite but three reads its identities on a random column.
# cross-derivative stays whole: its defect is one lincomb with no product,
# so a column would save nothing.  phi-iso reads its word on the unit column
# of phi(id): its claim is the support of the image, which is exact there.
# l-restriction stays on the orbit projector: its per-point work is already
# a weighted sum of images composed once per size, and reads no product.
#
# A row declares the rational scalars its points draw as (name, count,
# nonzero), in draw order (`_draw`).  The model suites draw c, k, alpha,
# beta, then x where they read it, then y.  phi-iso declares only x: its
# word is a generator list of random length, not a scalar, so its builder
# draws it from the point stream after x.
_HALF = "half=%d"
_PAIR = "n=%d half=%d"
_ORBIT = "n=%d"
_HALF_SIZES = (1, 2, 3)
_PAIR_SIZES = ((2, 2), (3, 2))
_MODEL = tuple((name, None, True) for name in ("c", "k", "alpha", "beta"))
_X, _Y = ("x", "half", True), ("y", "n", False)

_SUITES = {
    "ybe": _Suite("two-site exchange braid identity", _HALF, _HALF_SIZES, 100,
                  (("k", None, True), ("l", 3, False)), _ybe),
    "bybe": _Suite("boundary reflection braid identity", _HALF, _HALF_SIZES, 100,
                   (("k", None, True), ("beta", None, True), _X, ("l", 2, False)), _bybe),
    "unitarity": _Suite(
        "exchange and reflection inverse identities", _HALF, _HALF_SIZES, 100,
        (("k", None, True), ("beta", None, True), ("lam", None, True), _X), _unitarity,
    ),
    "qkz-consistency": _Suite(
        "transport family shift consistency", _PAIR, ((2, 2), (3, 2), (2, 3)), 100,
        _MODEL + (_X, _Y), _model_suite(_qkz_consistency),
    ),
    "lemma-AA": _Suite(
        "polynomial coefficient family commutes", _PAIR, _PAIR_SIZES, 100,
        _MODEL + (_Y,), _model_suite(lambda _: ([], _lemma_aa)),
    ),
    "lemma-LL": _Suite(
        "matrix part family commutes", _PAIR, _PAIR_SIZES, 100,
        _MODEL + (_X, _Y), _model_suite(lambda _: ([], _lemma_ll)),
    ),
    "cross-derivative": _Suite(
        "coordinate part cross derivatives agree", _PAIR, _PAIR_SIZES, 100,
        _MODEL + (_X, _Y), _model_suite(lambda _: ([], _cross_derivative)),
    ),
    "comm-IM": _Suite(
        "exchange conjugation of one-site plus pair blocks", _HALF, _HALF_SIZES, 100,
        _MODEL + (_X, ("y", 2, False)), _comm_im,
    ),
    "compatibility": _Suite(
        "difference and differential operators are compatible", _PAIR,
        ((1, 1), (2, 2), (3, 2), (2, 3)), 100,
        _MODEL + (_X, _Y), _model_suite(lambda _: ([], _compatibility)),
    ),
    "aha-relations": _Suite(
        "degenerate cross relations on the orbit", _ORBIT, (2, 3), 100,
        _MODEL + (_Y,), _model_suite(lambda _: ([], _aha)),
    ),
    "phi-iso": _Suite("group element to orbit vector isomorphism", _ORBIT, (2, 3), 50,
                      (("x", "n", True),), _phi_iso),
    "cbar-qinv": _Suite(
        "degenerate product equals inverse transport on the orbit", _ORBIT, (2, 3), 50,
        _MODEL + (_X, _Y), _model_suite(lambda _: ([], _cbar_qinv)),
    ),
    "l-restriction": _Suite(
        "pair-sum restriction identities on the orbit", _ORBIT, (2, 3), 100,
        _MODEL + (_X, _Y), _model_suite(_l_restriction),
    ),
}


def suite_names() -> tuple:
    return tuple(_SUITES)


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
        for size, label, (_, build) in zip(used_sizes, labels, sized):
            names, point = sample_point(
                rng, lambda r: build(_draw(r, suite.variables, size), r, vr))
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


def run_suites(names, samples: int | None = None, seed: int = 0):
    """Run the named suites in the given order; yields (SuiteResult,
    elapsed seconds)."""
    names = list(names)
    for nm in names:
        check_name(nm)
    for nm in names:
        start = time.perf_counter()
        yield run_suite(nm, samples=samples, seed=seed), time.perf_counter() - start
