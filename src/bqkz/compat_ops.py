"""Commuting differential-operator family compatible with the transport
operators, and exact certification of the identities behind it.

The matrix part of the a-th differential operator is L_a = A_a(y) + B_a(x):
A_a collects the site arguments y and the all-ones boundary strength, B_a
the reflection coordinates x, each a list of exact terms (`op_A_terms`,
`op_B_terms`) that the checks sum by a fixed sum and the contour solver
sums in numpy with its complex coefficients.  The full differential
operator adds the scaling derivative c x_a d/dx_a, which never appears
as a matrix here; derivative terms enter the checks through hand-coded
coefficient derivatives only.

The same L_a has a second construction from a one-site block I_a and a
two-site block M_a summed over sites and site pairs.  Keeping both routes
alive (no shared code paths beyond the matrix units) is deliberate: each
certification below compares structurally different computations.
Every builder whose terms are fixed operators (op_A, op_L, op_I, op_M,
op_M_swapped, op_dK_term's closed form, and the cross-derivative residual
over the terms of both its derivatives, `op_dB_dx`) keeps its own term
list and sums it by its own `tensor_ops.fixed_sum`; the block route
applies each block where it acts to a start (a `tensor_ops.Placed`
block; nothing is embedded) and sums the images in one `lincomb`.

Every check here that forms a product reads it on a start: a
`tensor_ops.Block` holding one seeded random column over F_p in the suite
(Freivalds' check), or the identity for the whole operator, each product
formed by `tensor_ops.product`.  The two compatibility residuals are read
so, and so are the lemma checks: lemma-AA compares A_a (A_b v) with
A_b (A_a v), and the block assembly check compares L_a v with the block
sum on v.  comm-IM's two identities apply the exchange factors and the
swap by their gather (`rqkz.r_factor`, `rqkz.p_factor`) and the blocks
where they act; its two block sums share the one-site blocks.  The
cross-derivative residual forms no product: it is one fixed sum of whole
operators.  Each compatibility form takes a site m, builds its own
transport factors once, and returns every label's residual side by side
in label order, each chain carrying every label's columns in one block
(`Block.join`): factors by their gather, L_a and the derivative terms
entry by entry, each residual one `lincomb`.  Both forms take L_a
(`op_L`, once per label) and read it with y_m shifted (`l_shifted_on`),
and share nothing else: the split form takes each label's site-m
derivative term from `op_dK_term`, which also says whether its two
routes to the term differ (the suite's dk-route-<m> check), and the
direct form takes every L_a applied to the start, and its `op_dQ_dx`
applies the head factors once to every label's middle derivative.  The
block assembly check likewise takes L_a applied to the start, which the
lemma-LL suite also reads for the commutators of the family.
Every two-sided check here compares its sides, canonical exact blocks or
operators, and returns True when they differ.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .rqkz import (
    ModelParams,
    factor_ops,
    invert_descs,
    k_factor,
    op_dK_dx,
    op_dQ_dx,
    p_factor,
    q_factor_list,
    q_split_descs,
    r_factor,
)
from .scalar_field import PoleError, div, inv
from .tensor_ops import (
    Block,
    LinOp,
    Placed,
    Space,
    fixed_sum,
    lincomb,
    product,
    site_tensor,
)


def _code(half: int, a: int, barred: bool) -> int:
    if not 1 <= a <= half:
        raise ValueError("label index out of range")
    return a - 1 + (half if barred else 0)


# Matrix units, the label-only sums of them and the pair-sum collections
# depend on the labels and the space only, so each is built once and shared.
@cache
def site_unit(half: int, row_code: int, col_code: int) -> LinOp:
    return LinOp.of(Space(1, half), {col_code: {row_code: 1}})


def _eu(half, ra, rbar, ca, cbar) -> LinOp:
    """Matrix unit from label data: rows/cols given as (index, barred)."""
    return site_unit(half, _code(half, ra, rbar), _code(half, ca, cbar))


def _units(half: int, a: int) -> tuple:
    """The matrix units e_(a,a), e_(abar,abar), e_(abar,a) and e_(a,abar)."""
    return (_eu(half, a, False, a, False), _eu(half, a, True, a, True),
            _eu(half, a, True, a, False), _eu(half, a, False, a, True))


@cache
def op_E(half: int, a: int, b: int) -> LinOp:
    """Label-preserving pair unit: e_ab plus its barred copy."""
    return _eu(half, a, False, b, False) + _eu(half, a, True, b, True)


@cache
def op_Ebar(half: int, a: int, b: int) -> LinOp:
    """Bar-exchanging pair unit: e to the barred column plus the mirror."""
    return _eu(half, a, False, b, True) + _eu(half, a, True, b, False)


@cache
def pair_U(half: int, a: int, b: int) -> LinOp:
    return (site_tensor(_eu(half, a, False, b, False), op_E(half, b, a))
            + site_tensor(_eu(half, b, True, a, True), op_E(half, a, b)))


@cache
def pair_J(half: int, a: int, b: int) -> LinOp:
    return (site_tensor(_eu(half, a, False, b, True), op_Ebar(half, b, a))
            + site_tensor(_eu(half, b, False, a, True), op_Ebar(half, a, b)))


@cache
def pair_K(half: int, a: int, b: int) -> LinOp:
    return (site_tensor(_eu(half, a, True, b, False), op_Ebar(half, b, a))
            + site_tensor(_eu(half, b, True, a, False), op_Ebar(half, a, b)))


@cache
def site_units(a: int, j: int, space: Space) -> tuple:
    """e_(a,a), e_(abar,abar), e_(a,abar) and op_Ebar(a, a) embedded at site j."""
    half = space.half_dim
    e_aa, e_bb, _, raise_a = _units(half, a)
    return tuple(Placed(u, (j,), space).embedded()
                 for u in (e_aa, e_bb, raise_a, op_Ebar(half, a, a)))


def _site_pairs(n: int) -> list:
    """Every site pair (i, j) with i < j."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _pair_sum(space: Space, two: LinOp) -> LinOp:
    return lincomb(space, ((1, Placed(two, sites, space).embedded())
                           for sites in _site_pairs(space.n)))


@cache
def coll_X(a: int, b: int, space: Space) -> LinOp:
    half = space.half_dim
    two = (site_tensor(_eu(half, a, False, b, False), op_E(half, b, a))
           + site_tensor(_eu(half, b, True, a, True), op_E(half, a, b)))
    return _pair_sum(space, two)


@cache
def coll_Y(a: int, b: int, space: Space) -> LinOp:
    half = space.half_dim
    two = (site_tensor(_eu(half, a, False, b, True), op_Ebar(half, b, a))
           + site_tensor(_eu(half, b, False, a, True), op_Ebar(half, a, b)))
    return _pair_sum(space, two)


@cache
def coll_X_swap(a: int, b: int, space: Space) -> LinOp:
    """coll_X(a, b) + coll_X(b, a): op_B_terms, op_dB_dx and the point-free
    restriction identities read only this sum."""
    return coll_X(a, b, space) + coll_X(b, a, space)


@cache
def coll_YZ(a: int, b: int, space: Space) -> LinOp:
    """coll_Y(a, b) plus its barred-row counterpart: op_B_terms, op_dB_dx and
    the point-free restriction identities read only this sum."""
    half = space.half_dim
    two = (site_tensor(_eu(half, a, True, b, False), op_Ebar(half, b, a))
           + site_tensor(_eu(half, b, True, a, False), op_Ebar(half, a, b)))
    return coll_Y(a, b, space) + _pair_sum(space, two)


def op_A_terms(a: int, y: Sequence, params: ModelParams) -> list:
    """(coefficient, operator) terms of op_A."""
    space = params.space
    half = space.half_dim
    k = params.k
    terms = []
    for j, yj in enumerate(y, start=1):
        e_aa, e_bb, raise_a, _ = site_units(a, j, space)
        terms += [(yj, e_aa), (-yj, e_bb), (2 * params.alpha, raise_a)]
    terms += [(-k, coll_X(p, a, space)) for p in range(1, a)]
    terms += [(k, coll_X(a, p, space)) for p in range(a + 1, half + 1)]
    terms += [(k, coll_Y(a, p, space)) for p in range(1, half + 1)]
    return terms


def op_A(a: int, y: Sequence, params: ModelParams, columns=None) -> LinOp:
    """Argument part of the a-th differential operator family, on the
    given tuple of columns only if any."""
    return fixed_sum(("op_A", a), params.space, op_A_terms(a, y, params), columns)


def _check_x_generic(a: int, x: Sequence):
    xa = x[a - 1]
    if xa == 0 or xa * xa == 1:
        raise PoleError("coordinate %d may not be 0 or a unit square root" % a)
    for p, xp in enumerate(x, start=1):
        if p == a:
            continue
        if xa == xp or xa * xp == 1:
            raise PoleError("coordinates %d and %d are not generic" % (a, p))


@cache
def op_B_ops(a: int, space: Space) -> tuple:
    """The operators of op_B, which read no point, in the order of
    op_B_terms: op_Ebar(a, a) at every site, then for each label p the
    swap collection with p (p != a) and the YZ collection."""
    ops = [site_units(a, j, space)[3] for j in range(1, space.n + 1)]
    for p in range(1, space.half_dim + 1):
        if p != a:
            ops.append(coll_X_swap(a, p, space))
        ops.append(coll_YZ(a, p, space))
    return tuple(ops)


def op_B_terms(a: int, x: Sequence, params: ModelParams) -> list:
    """(coefficient, operator) terms of op_B, in the order of op_B_ops."""
    space = params.space
    x = tuple(x)
    _check_x_generic(a, x)
    xa = x[a - 1]
    k = params.k
    coeffs = [div(2 * (params.alpha + params.beta * xa), xa * xa - 1)] * space.n
    for p in range(1, space.half_dim + 1):
        xp = x[p - 1]
        if p != a:
            coeffs.append(k * div(xa if p < a else xp, xa - xp))
        coeffs.append(k * inv(xa * xp - 1))
    return list(zip(coeffs, op_B_ops(a, space), strict=True))


def op_L(a: int, x: Sequence, y: Sequence, params: ModelParams) -> LinOp:
    return fixed_sum(("op_L", a), params.space,
                     op_A_terms(a, y, params) + op_B_terms(a, x, params))


@cache
def _site_diagonal(a: int, m: int, space: Space) -> Placed:
    """e_(a,a) - e_(abar,abar) placed at site m."""
    e_aa, e_bb, _, _ = _units(space.half_dim, a)
    return Placed(e_aa - e_bb, (m,), space)


def l_shifted_on(m: int, ls: Sequence, params: ModelParams, start: Block) -> Block:
    """Every L_a at shift_y(y, m, c) applied to start, side by side, from
    ls[a - 1], L_a at y: y_m enters L_a only as y_m (e_aa - e_abar,abar)
    at site m, so each image is L_a's minus c times that diagonal's."""
    space = params.space
    return Block.join([lincomb(space, [(1, l_a.on_block(start)),
                                       (-params.c, _site_diagonal(a, m, space).on_block(start))])
                       for a, l_a in enumerate(ls, start=1)])


def op_I(a: int, lam, gamma, params: ModelParams) -> LinOp:
    """One-site block of the alternative construction of L_a."""
    half = params.space.half_dim
    if lam == 0 or lam * lam == 1:
        raise PoleError("block argument may not be 0 or a unit square root")
    ilam = inv(lam)
    lower = div(2 * (params.alpha + params.beta * lam), lam * lam - 1)
    upper = div(2 * (params.alpha + params.beta * ilam), 1 - ilam * ilam)
    return fixed_sum(("op_I", a), Space(1, half),
                     zip((gamma, -gamma, lower, upper), _units(half, a)))


def op_M(a: int, x: Sequence, params: ModelParams) -> LinOp:
    """Two-site block of the alternative construction of L_a.

    Its lead term, 2k/(x_a - 1/x_a) (x_a e_(a,abar) + e_(abar,a)/x_a) (x)
    (e_(a,abar) + e_(abar,a)), is the p = a term of the J and K sums:
    pair_J(a, a) is twice e_(a,abar) (x) (e_(a,abar) + e_(abar,a)),
    pair_K(a, a) twice e_(abar,a) (x) (e_(a,abar) + e_(abar,a)), and their
    p = a coefficients are half of the lead's.
    """
    half = params.space.half_dim
    x = tuple(x)
    _check_x_generic(a, x)
    xa = x[a - 1]
    k = params.k
    terms = []
    for p in range(1, half + 1):
        xp = x[p - 1]
        terms += [(div(k * xa * xp, xa * xp - 1), pair_J(half, a, p)),
                  (div(k, xa * xp - 1), pair_K(half, a, p))]
        if p != a:
            terms += [(div(k * xa, xa - xp), pair_U(half, a, p)),
                      (div(k * xp, xa - xp), pair_U(half, p, a))]
    return fixed_sum(("op_M", a), Space(2, half), terms)


@cache
def _swapped_pairs(half: int, a: int, p: int) -> tuple:
    """The slot-exchanged two-site operators of op_M_swapped for the label
    pair (a, p): the four bar-exchanging ones, then the four others."""
    return (
        site_tensor(op_Ebar(half, p, a), _eu(half, a, False, p, True)),
        site_tensor(op_Ebar(half, a, p), _eu(half, p, False, a, True)),
        site_tensor(op_Ebar(half, p, a), _eu(half, a, True, p, False)),
        site_tensor(op_Ebar(half, a, p), _eu(half, p, True, a, False)),
        site_tensor(op_E(half, p, a), _eu(half, a, False, p, False)),
        site_tensor(op_E(half, a, p), _eu(half, p, True, a, True)),
        site_tensor(op_E(half, a, p), _eu(half, p, False, a, False)),
        site_tensor(op_E(half, p, a), _eu(half, a, True, p, True)),
    )


def op_M_swapped(a: int, x: Sequence, params: ModelParams) -> LinOp:
    """Two-site block with the tensor slots exchanged, built term by term.

    Not implemented as a conjugation of op_M; the equality with P op_M P is
    one of the certified identities.  As in op_M, the p = a terms of the
    bar-exchanging sum are the lead term.
    """
    half = params.space.half_dim
    x = tuple(x)
    _check_x_generic(a, x)
    xa = x[a - 1]
    k = params.k
    terms = []
    for p in range(1, half + 1):
        xp = x[p - 1]
        ops = _swapped_pairs(half, a, p)
        wj, wk = div(k * xa * xp, xa * xp - 1), div(k, xa * xp - 1)
        terms += zip((wj, wj, wk, wk), ops[:4])
        if p != a:
            wa, wp = div(k * xa, xa - xp), div(k * xp, xa - xp)
            terms += zip((wa, wa, wp, wp), ops[4:])
    return fixed_sum(("op_M_swapped", a), Space(2, half), terms)


def m_conjugation_defect(a: int, x: Sequence, params: ModelParams, m_a: LinOp, start) -> bool:
    """Whether the slot-exchanged pair block differs on start from the flip
    conjugate of the direct one, m_a = `op_M(a, x, params)`."""
    flip = p_factor((1, 2), params.space)
    return product((op_M_swapped(a, x, params), start)) != product((flip, m_a, flip, start))


def _site_blocks(a: int, x: Sequence, args: Sequence, params: ModelParams) -> list:
    """op_I(a, x_a, args[j - 1]) placed at every site j."""
    xa = tuple(x)[a - 1]
    return [Placed(op_I(a, xa, arg, params), (j,), params.space)
            for j, arg in enumerate(args, start=1)]


def _block_sum(blocks: list, start):
    """The sum of the placed blocks applied to start: each block is applied
    where it acts (`product`), and the images are summed in one `lincomb`.
    Nothing is embedded."""
    return lincomb(start.space, [(1, product((block, start))) for block in blocks])


def op_L_from_blocks(a: int, x: Sequence, y: Sequence, params: ModelParams, start):
    """L_a assembled from the one-site and two-site blocks, applied to
    start: op_I at every site plus op_M on every site pair.

    Independent route kept separate from op_L on purpose; their equality is
    a certified identity, not a refactoring opportunity.
    """
    m_a = op_M(a, x, params)
    pairs = [Placed(m_a, sites, params.space) for sites in _site_pairs(params.space.n)]
    return _block_sum(_site_blocks(a, x, y, params) + pairs, start)


def comm_AA_defect(a: int, b: int, y: Sequence, params: ModelParams, start) -> bool:
    """Whether A_a and A_b fail to commute on start."""
    a_a, a_b = op_A(a, y, params), op_A(b, y, params)
    return product((a_a, a_b, start)) != product((a_b, a_a, start))


def block_assembly_defect(a: int, x, y, params: ModelParams, l_start, start) -> bool:
    """Whether L_a, as built by op_L, differs on start from its assembly
    from the blocks, given l_start, `op_L(a, x, y, params)` applied to
    start."""
    return l_start != op_L_from_blocks(a, x, y, params, start)


def op_dB_dx(b: int, a: int, x: Sequence, params: ModelParams) -> list:
    """The two (coefficient, operator) terms of the closed-form derivative
    of the sum of op_B_terms(b) in a coordinate a != b, the only one
    check_cross_derivative reads.

    Coefficient derivatives are hand-coded; no finite differences.
    """
    if a == b:
        raise ValueError("op_dB_dx takes a != b")
    space = params.space
    x = tuple(x)
    _check_x_generic(b, x)
    xb, xa, k = x[b - 1], x[a - 1], params.k
    return [(k * div(xb, (xb - xa) ** 2), coll_X_swap(b, a, space)),
            (k * div(-xb, (xb * xa - 1) ** 2), coll_YZ(b, a, space))]


def check_cross_derivative(a: int, b: int, x, y, params: ModelParams) -> LinOp:
    """x_a dB_b/dx_a - x_b dB_a/dx_b, one fixed sum over the terms of both
    derivatives; zero iff the family commutes."""
    x = tuple(x)
    terms = [(x[a - 1] * w, op) for w, op in op_dB_dx(b, a, x, params)]
    terms += [(-x[b - 1] * w, op) for w, op in op_dB_dx(a, b, x, params)]
    return fixed_sum(("check_cross_derivative", a, b), params.space, terms)


def check_comm_IM(a: int, x, y1, y2, params: ModelParams, m_a: LinOp, start) -> bool:
    """Whether the exchange conjugation of the block sum differs on start
    from the slot-swapped blocks on the two-site space of params, m_a =
    `op_M(a, x, params)`.  Both sums share the one-site blocks."""
    space = params.space
    one_site = _site_blocks(a, x, (y1, y2), params)
    r = r_factor(y1 - y2, params.k, (1, 2), space)
    rinv = r_factor(y2 - y1, params.k, (1, 2), space)
    conjugated = _block_sum(one_site + [Placed(m_a, (1, 2), space)], product((rinv, start)))
    return product((r, conjugated)) != _block_sum(one_site + [Placed(m_a, (2, 1), space)], start)


def op_dK_term(m: int, x, y, params: ModelParams) -> tuple:
    """c x_a (d/dx_a of the middle reflection) composed with its inverse,
    placed at site m, for each label a in order, in closed form, and
    whether the derivative route differs from it for any label.  The
    derivative route applies the two reflection-shaped factors by their
    gather to the one-site identity block, and the closed form is read on
    the same block."""
    half = params.space.half_dim
    x = tuple(x)
    lam = y[m - 1] - div(params.c, 2)
    den = lam * lam - params.beta * params.beta
    if den == 0:
        raise PoleError("middle reflection argument hits the strength")
    site = Space(1, half)
    ident = Block.identity(site)
    k_inv = k_factor(-lam, x, params.beta, 1, site)
    w = div(params.c * lam, den)
    terms, differs = [], False
    for a, xa in enumerate(x, start=1):
        route1 = product((op_dK_dx(lam, x, params.beta, a, 1, site, params.c * xa), k_inv, ident))
        weights = (w * lam, -w * lam, w * params.beta * inv(xa), -w * params.beta * xa)
        route2 = fixed_sum(("op_dK_term", a), site, zip(weights, _units(half, a)))
        differs |= route1 != route2.on_block(ident)
        terms.append(Placed(route2, (m,), params.space))
    return terms, differs


def compat_three_term(m: int, x, y, params: ModelParams, ls: Sequence, dk: Sequence,
                      start: Block) -> Block:
    """Split-form compatibility residual of site m on a start, every label's
    side by side, given ls[a - 1], L_a at y, which `l_shifted_on` also
    reads at y with its m-th argument shifted, and dk, the terms of
    `op_dK_term(m, x, y, params)`.

    piece one: the middle-reflection derivative term; piece two: the
    shifted operator conjugated by the inverse of the leading exchange
    product; piece three: minus the unshifted operator conjugated by
    middle reflection times trailing part.
    """
    head, mid, tail = q_split_descs(m, params.space.n)
    mid_tail = [mid] + tail
    head_start = product(factor_ops(head, x, y, params) + [start])
    mid_tail_start = product(factor_ops(invert_descs(mid_tail), x, y, params) + [start])
    piece1 = Block.join([term.on_block(start) for term in dk])
    piece2 = product(factor_ops(invert_descs(head), x, y, params)
                     + [l_shifted_on(m, ls, params, head_start)])
    piece3 = product(factor_ops(mid_tail, x, y, params)
                     + [Block.join([op.on_block(mid_tail_start) for op in ls])])
    return lincomb(params.space, [(1, piece1), (1, piece2), (-1, piece3)])


def compat_direct(m: int, x, y, params: ModelParams, ls: Sequence, l_start: Block,
                  start: Block) -> Block:
    """Commutator-form compatibility residual of site m on a start, every
    label's side by side, built only from the transport factors, ls as in
    `compat_three_term`, l_start (every L_a applied to start, side by
    side), and the analytic transport derivative."""
    n = params.space.n
    ops = factor_ops(q_factor_list(m, n), x, y, params)
    lead = len(q_split_descs(m, n)[0]) + 1
    tail = product(ops[lead:] + [start])
    q_start = product(ops[:lead] + [tail])
    return lincomb(params.space, [
        (1, l_shifted_on(m, ls, params, q_start)),
        (-1, product(ops + [l_start])),
        (1, op_dQ_dx(m, x, y, params, tail, [params.c * xa for xa in x])),
    ])
