"""Named certification suites over seeded random points of F_p.

Each suite bundles a family of exact identities: one sample draws a random
parameter point of F_p (p = `scalar_field.P`) and passes only if every
residual of the family vanishes there and both sides of every two-sided
identity, compared as canonical residues, are equal.  Results are
booleans, not small floats; there is no tolerance anywhere in this module.
A nonzero defect D of degree d in the drawn scalars vanishes at the point
with probability at most d/p, and D v = 0 for a random column v with
probability at most 1/p; a fixed p cannot see a defect whose every
coefficient it divides.  The fixed checks read no point and are proofs:
their integer entries lie far inside (-p/2, p/2), so they are equal over
the integers exactly when they are equal mod p.

The three transport suites (qkz-consistency, compatibility, cbar-qinv)
and seven of the ten light suites (ybe, bybe, unitarity, lemma-AA,
lemma-LL, comm-IM, aha-relations) never form their products: each
applies every factor chain and every operator to one seeded random
column v over F_p (Freivalds' check), held as a dense `tensor_ops.Block`,
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
sample with probability at most 1/p on top of the point's own chance of
sitting on a zero of D.  The other three light suites keep their own
routes, for the reasons given above the suite table.

A suite is one row of a table: its anchor, the label of a size, its sizes,
its default sample count, the variables a point draws, the Space a size
checks on, and two module-level functions.  `checks(point, space, r, vr)`
yields the (name, defect) pairs of one drawn point record; the optional
`fixed(space)` yields those that read no point, the identities between
fixed operators.  Those operators (matrix units, label-only sums,
left-action images, orbit states, restriction images) are cached by the
module that builds them, once per process, so no suite holds them.

One runner loops over the sizes and draws the points.  In each
`sample_point` attempt it draws the row's variables from the point's
stream into one record (`_draw`), so a pole redraw redraws them all, and
runs the row's checks on it with the point's stream (which only phi-iso
reads, for its word) and the column stream.  Every suite that reads a
column draws it from the column stream before any factor is built, so
each redraw of a point draws a new v; the other three leave it unread.
A sample with any failing check counts as one failure; its notes read
"<size label> <name> point=<record>", the record every declared variable
under its name in draw order, so a failing point can be replayed.  A size
with a failing fixed check counts as one failure of the run, whatever the
sample count, with one note "<size label> <name>"; its samples are drawn
all the same.  Every verdict is a named check, such as compatibility's
dk-route-<m> (`compat_ops.op_dK_term`).

Each size of a sample draws from its own streams, seeded from the run
seed and the triple (suite name, sample index, size label), so a suite's
body depends only on the suite, the seed and the sample count, not on
what else runs, and a size draws the same points whether it runs alone
or with the rest of its row; v comes from its own stream, seeded from the
same triple and the tag "v", so the points and their redraws do not
depend on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, NamedTuple

from .tensor_ops import Block, Space, product
from .sampling import make_rng, rand_column, rand_scalar, rand_tuple, sample_point
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
    vanishes, and a bool, from a fixed or a per-point check (two sides
    compared), when True."""
    return [name for name, defect in checks
            if (defect if isinstance(defect, bool) else not defect.is_zero())]


def _draw(r, variables, space: Space) -> dict:
    """The point record {name: value} of the (name, count, nonzero)
    variables, drawn from the point stream r in order: one scalar when
    count is None, else a tuple of count, or of the space's n or half."""
    counts = {"n": space.n, "half": space.half_dim}
    return {name: rand_scalar(r, nonzero) if count is None
            else rand_tuple(r, counts.get(count, count), nonzero)
            for name, count, nonzero in variables}


def _column(vr, space: Space, indices=None) -> Block:
    """The block of one random column over F_p of the column stream on the
    given indices of space, every index by default."""
    return Block.of(space, rand_column(vr, range(space.dim) if indices is None else indices))


def _model(point, space: Space) -> ModelParams:
    """The model parameters of a point record on space."""
    return ModelParams(point["c"], point["k"], point["alpha"], point["beta"], space)


# The braid checks are unnamed: their notes read "<size label> point=<record>".


def _ybe(point, space, _, vr):
    v = _column(vr, space)
    yield "", rqkz.ybe_defect(point["k"], *point["l"], v)


def _bybe(point, space, _, vr):
    v = _column(vr, space)
    yield "", rqkz.bybe_defect(point["k"], point["beta"], point["x"], *point["l"], v)


def _unitarity(point, space, _, vr):
    # The exchange checks act on two sites, the reflection checks on one.
    v2, v1 = _column(vr, space), _column(vr, Space(1, space.half_dim))
    k, beta, lam, x = point["k"], point["beta"], point["lam"], point["x"]
    yield "exchange-inverse", rqkz.r_unitarity_defect(k, lam, v2)
    yield "reflection-inverse", rqkz.k_unitarity_defect(lam, x, beta, v1)
    yield "swap-factor", rqkz.swap_factor_defect(k, lam, v2)
    yield "flip-factor", rqkz.flip_factor_defect(lam, x, beta, v1)


def _qkz_split(space):
    for m in range(1, space.n + 1):
        yield "split-%d" % m, rqkz.q_split_defect(m, space.n)


def _qkz_consistency(point, space, _, vr):
    params, x, y = _model(point, space), point["x"], point["y"]
    v = _column(vr, space)
    qs = [rqkz.compose_descs(rqkz.q_factor_list(m, space.n), x, y, params, start=v)
          for m in range(1, space.n + 1)]
    for m, q_m in enumerate(qs, start=1):
        yield "inverse-%d" % m, rqkz.q_inverse_defect(m, x, y, params, q_m, v)
        # The (l, m) defect builds the same two factor chains as (m, l)
        # with the sides swapped, so each unordered pair is checked once.
        for l in range(m + 1, space.n + 1):
            yield "pair-%d-%d" % (m, l), rqkz.transport_consistency_defect(
                m, l, x, y, params, q_m, qs[l - 1]
            )


def _lemma_aa(point, space, _, vr):
    params, y = _model(point, space), point["y"]
    v = _column(vr, space)
    for a, b in combinations(range(1, space.half_dim + 1), 2):
        yield "pair-%d-%d" % (a, b), compat_ops.comm_AA_defect(a, b, y, params, v)


def _lemma_ll(point, space, _, vr):
    params, x, y = _model(point, space), point["x"], point["y"]
    v = _column(vr, space)
    half = space.half_dim
    ls = [compat_ops.op_L(a, x, y, params) for a in range(1, half + 1)]
    l_v = [product((l_a, v)) for l_a in ls]
    for a, l_a in enumerate(ls, start=1):
        yield "assembly-%d" % a, compat_ops.block_assembly_defect(a, x, y, params, l_v[a - 1], v)
        for b in range(a + 1, half + 1):
            yield "pair-%d-%d" % (a, b), (product((l_a, l_v[b - 1]))
                                          != product((ls[b - 1], l_v[a - 1])))


def _cross_derivative(point, space, _, __):
    params, x, y = _model(point, space), point["x"], point["y"]
    for a, b in combinations(range(1, space.half_dim + 1), 2):
        yield "pair-%d-%d" % (a, b), compat_ops.check_cross_derivative(a, b, x, y, params)


def _comm_im(point, space, _, vr):
    v = _column(vr, space)
    params, x, (y1, y2) = _model(point, space), point["x"], point["y"]
    for a in range(1, space.half_dim + 1):
        m_a = compat_ops.op_M(a, x, params)
        yield "conjugation-%d" % a, compat_ops.check_comm_IM(a, x, y1, y2, params, m_a, v)
        yield "slot-swap-%d" % a, compat_ops.m_conjugation_defect(a, x, params, m_a, v)


def _compatibility(point, space, _, vr):
    params, x, y = _model(point, space), point["x"], point["y"]
    v = _column(vr, space)
    labels = range(1, space.half_dim + 1)
    ls = [compat_ops.op_L(a, x, y, params) for a in labels]
    l_v = Block.join([l_a.on_block(v) for l_a in ls])
    forms = []
    for m in range(1, space.n + 1):
        dk, differs = compat_ops.op_dK_term(m, x, y, params)
        yield "dk-route-%d" % m, differs
        forms.append((compat_ops.compat_three_term(m, x, y, params, ls, dk, v),
                      compat_ops.compat_direct(m, x, y, params, ls, l_v, v)))
    for a in labels:
        for m, (split, direct) in enumerate(forms, start=1):
            yield "split-%d-%d" % (a, m), any(split.cols[a - 1])
            yield "direct-%d-%d" % (a, m), any(direct.cols[a - 1])


def _aha(point, space, _, vr):
    params = _model(point, space)
    v = _column(vr, space, hecke_module.orbit_states(space))
    return hecke_module.check_AHA_relations(point["y"], params, v)


def _phi_injective(space):
    states = hecke_module.orbit_states(space)
    yield "images-collide", len(set(states)) != len(states)


def _phi_iso(point, space, r, _):
    n, x = space.n, point["x"]
    word = [("s0" if g == 0 else g) for g in (r.randint(0, n) for _ in range(r.randint(0, 4)))]
    w = hecke_module.SignedPerm.identity(n)
    image = Block.of(space, {hecke_module.phi(w, space): 1})
    for g in word:
        image = hecke_module.rhoR_generator(g, x, space).on_block(image)
        w = w * (hecke_module.elem_r(1, n) if g == "s0"
                 else hecke_module.SignedPerm.generator(n, g))
    support = {i for i, v in enumerate(image.cols[0]) if v}
    yield "equivariance word=%r" % (word,), support != {hecke_module.phi(w, space)}


def _cbar_qinv(point, space, _, vr):
    params, x, y = _model(point, space), point["x"], point["y"]
    # Column 0 is a full column for the grouped check, column 1 one on the
    # orbit states for the orbit check.
    start = Block.of(space, rand_column(vr, range(space.dim)),
                     rand_column(vr, hecke_module.orbit_states(space)))
    for m in range(1, space.n + 1):
        cbar = hecke_module.op_Cbar(m, x, y, params, start)
        yield "site-%d" % m, hecke_module.cbar_vs_inverse_transport_defect(
            m, x, y, params, cbar, start, (1,))
        yield "grouped-%d" % m, cbar != hecke_module.cbar_grouped(m, x, y, params, start)


def _pair_sums(space):
    for a in range(1, space.n + 1):
        for name, defect in hecke_module.pair_sum_identities(a, space):
            yield "%s-%d" % (name, a), defect


def _l_restriction(point, space, _, __):
    params, x = _model(point, space), point["x"]
    for a in range(1, space.n + 1):
        yield "assembled-%d" % a, hecke_module.check_L_restriction(
            a, x, params, hecke_module.restriction_images(a, space))


def _sized(size) -> Space:
    """The Space of a size: a pair (n, half), or one number n that stands
    for both, as the orbit suites' sizes do."""
    return Space(*size) if isinstance(size, tuple) else Space(size, size)


class _Suite(NamedTuple):
    """One row of the suite table; label % size names a size in the notes,
    and space(size) is the Space it checks on."""

    anchor: str
    label: str
    sizes: tuple
    samples: int
    variables: tuple
    space: Callable
    checks: Callable
    fixed: Callable | None = None


# Every suite but three reads its identities on a random column.
# cross-derivative stays whole: its defect is one fixed sum with no product,
# so a column would save nothing.  phi-iso reads its word on the unit column
# of phi(id): its claim is the support of the image, which is exact there.
# l-restriction proves that its residual kills every orbit column: its
# per-point work is one fixed sum of the orbit columns of its terms, built
# once per process (`hecke_module.restriction_images`), and reads no product.
#
# A row declares the scalars its points draw as (name, count, nonzero), in
# draw order (`_draw`).  The model suites draw c, k, alpha, beta, then x
# where they read it, then y where they read it: l-restriction's residual
# cancels y, so it draws none.  phi-iso declares only x: its
# word is a generator list of random length, not a scalar, so its checks
# draw it from the point stream after x.
_HALF = "half=%d"
_PAIR = "n=%d half=%d"
_ORBIT = "n=%d"
_HALF_SIZES = (1, 2, 3)
_PAIR_SIZES = ((2, 2), (3, 2))
_MODEL = tuple((name, None, True) for name in ("c", "k", "alpha", "beta"))
_X, _Y = ("x", "half", True), ("y", "n", False)

_SUITES = {
    "ybe": _Suite("two-site exchange braid identity", _HALF, _HALF_SIZES, 100,
                  (("k", None, True), ("l", 3, False)), partial(Space, 3), _ybe),
    "bybe": _Suite("boundary reflection braid identity", _HALF, _HALF_SIZES, 100,
                   (("k", None, True), ("beta", None, True), _X, ("l", 2, False)),
                   partial(Space, 2), _bybe),
    "unitarity": _Suite(
        "exchange and reflection inverse identities", _HALF, _HALF_SIZES, 100,
        (("k", None, True), ("beta", None, True), ("lam", None, True), _X),
        partial(Space, 2), _unitarity,
    ),
    "qkz-consistency": _Suite(
        "transport family shift consistency", _PAIR, ((2, 2), (3, 2), (2, 3)), 100,
        _MODEL + (_X, _Y), _sized, _qkz_consistency, _qkz_split,
    ),
    "lemma-AA": _Suite(
        "polynomial coefficient family commutes", _PAIR, _PAIR_SIZES, 100,
        _MODEL + (_Y,), _sized, _lemma_aa,
    ),
    "lemma-LL": _Suite(
        "matrix part family commutes", _PAIR, _PAIR_SIZES, 100,
        _MODEL + (_X, _Y), _sized, _lemma_ll,
    ),
    "cross-derivative": _Suite(
        "coordinate part cross derivatives agree", _PAIR, _PAIR_SIZES, 100,
        _MODEL + (_X, _Y), _sized, _cross_derivative,
    ),
    "comm-IM": _Suite(
        "exchange conjugation of one-site plus pair blocks", _HALF, _HALF_SIZES, 100,
        _MODEL + (_X, ("y", 2, False)), partial(Space, 2), _comm_im,
    ),
    "compatibility": _Suite(
        "difference and differential operators are compatible", _PAIR,
        ((1, 1), (2, 2), (3, 2), (2, 3)), 100,
        _MODEL + (_X, _Y), _sized, _compatibility,
    ),
    "aha-relations": _Suite(
        "degenerate cross relations on the orbit", _ORBIT, (2, 3), 100,
        _MODEL + (_Y,), _sized, _aha,
    ),
    "phi-iso": _Suite("group element to orbit vector isomorphism", _ORBIT, (2, 3), 50,
                      (("x", "n", True),), _sized, _phi_iso, _phi_injective),
    "cbar-qinv": _Suite(
        "degenerate product equals inverse transport on the orbit", _ORBIT, (2, 3), 50,
        _MODEL + (_X, _Y), _sized, _cbar_qinv,
    ),
    "l-restriction": _Suite(
        "pair-sum restriction identities on the orbit", _ORBIT, (2, 3), 100,
        _MODEL + (_X,), _sized, _l_restriction, _pair_sums,
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


def _attempt(suite: _Suite, space: Space, r, vr):
    """(failing names, point record) of one point drawn from r."""
    point = _draw(r, suite.variables, space)
    return _failing(suite.checks(point, space, r, vr)), point


def run_suite(name: str, samples: int | None = None, seed: int = 0, sizes=None) -> SuiteResult:
    """Run one suite; unknown names raise ValueError listing valid ones."""
    check_name(name)
    suite = _SUITES[name]
    count = suite.samples if samples is None else samples
    used_sizes = tuple(sizes) if sizes is not None else suite.sizes
    sized = [(suite.label % size, suite.space(size)) for size in used_sizes]
    notes = ["%s %s" % (label, failing[0]) for label, space in sized
             if suite.fixed and (failing := _failing(suite.fixed(space)))]
    failures = len(notes)
    for index in range(count):
        sample_notes = []
        for label, space in sized:
            tag = "%s:%d:%s" % (name, index, label)
            vr = make_rng(seed, tag + ":v")
            names, point = sample_point(make_rng(seed, tag),
                                        lambda r: _attempt(suite, space, r, vr))
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
