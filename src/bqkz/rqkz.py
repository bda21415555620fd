"""Exchange and reflection operators and the lattice transport operators.

The two-site exchange operator R(lam) = (lam + k P)/(lam + k) solves the
Yang-Baxter equation; the site reflection operator K(lam|x, beta) =
(lam T(x) + beta)/(lam + beta) solves the boundary Yang-Baxter equation
against it.  The transport operator for site m is an ordered product of
2(n-1) exchange factors and two reflection factors (one at coordinates x
with strength beta, one at the all-ones point with strength alpha); the
family is consistent: shifting the l-th argument in the m-th operator and
composing commutes with doing it the other way around.

Each exchange and reflection factor computes its few distinct scalars
from its argument, those of lam + k P or lam T(x) + beta, and the divisor
lam + k or lam + beta, and keeps them as a `tensor_ops.Factor` placed at
its sites (`r_factor`, `k_factor`, and `p_factor` and `t_factor` for P and
T(x)); the x-derivatives of T(x) and of the reflection factor are
reflection-shaped factors too (`op_dT_dx`, `op_dK_dx`).

Every check reads its chains on a start: it applies each chain of placed
factors to a `tensor_ops.Block` start through `tensor_ops.product`; each
factor reaches the block's columns by its gather, no factor operator is
written, and each partial product is reduced once mod P.  The suites
start from one seeded random column v over F_p, so a pass proves
D(p) v = 0 for the point's defect D(p) (Freivalds' check); a test may
start from the identity block to prove D(p) = 0.  An exact chain with no
start (`compose_descs`) is applied to the identity block and returned as
the whole operator.  The braid and inverse checks compare the two sides
of their identity and return True when they differ; the two factor
identities (`swap_factor_defect`, `flip_factor_defect`) return their
residual on the start.  For the consistency checks a caller applies each
transport chain to the start (`compose_descs` with `start`): the inverse
check applies the inverse factors to Q_m v, and each pair check applies
the shifted factors of one transport operator to the other's image.  The x-derivatives take T_m
applied to the start, apply each coordinate's middle derivative factor to
it by its gather, and the head factors once to all of them.  Whether the
split into (head, middle, tail) keeps every factor in order reads no
point, so `q_split_defect` checks it once per size.

The contour solver's residual pass uses the same factor builders with
complex scalars (`factor_ops`): per lambda grid it builds the factors on
either side of the coordinate reflection Kx, the only factor that reads
x, and per lambda just the Kx factors.  It writes each one's local
matrix in numpy from the factor's scalars and divisor, as `tensor_ops`
operators are exact, and applies it on its own sites without composing.

Every factor checks its own denominator at build time, so a pole in any
requested construction raises PoleError immediately with the offending
factor identified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalar_field import PoleError, inv
from .tensor_ops import Block, Factor, LinOp, Space, lincomb, product


@dataclass(frozen=True)
class ModelParams:
    """Model constants: shift step c, coupling k, boundary strengths alpha
    (all-ones reflection) and beta (coordinate reflection), and the tensor
    space the transport operators act on."""

    c: object
    k: object
    alpha: object
    beta: object
    space: Space


def ones(count: int) -> tuple:
    return (1,) * count


def p_factor(sites: tuple, space: Space) -> Factor:
    """The two-site swap P placed at two sites."""
    return Factor.exchange(1, 0, 1, sites, space)


def coordinates(x: Sequence) -> tuple:
    """The reflection coordinates; a zero one is a pole of T(x)."""
    for a, xa in enumerate(x, start=1):
        if xa == 0:
            raise PoleError("reflection coordinate %d is zero" % a)
    return tuple(x)


def t_factor(x: Sequence, site: int, space: Space) -> Factor:
    """The site reflection T(x), v_a -> x_a^{-1} v_abar and v_abar ->
    x_a v_a, placed at a site."""
    return Factor.reflection(0, [(inv(xa), xa) for xa in coordinates(x)], site, space)


def op_dT_dx(x: Sequence, a: int, site: int, space: Space, weight=1, over=1) -> Factor:
    """Derivative of T(x) in the a-th coordinate (a is 1-based), times
    weight / over, placed at a site."""
    x = coordinates(x)
    flips = [(0, 0)] * len(x)
    flips[a - 1] = (-weight * inv(x[a - 1] * x[a - 1]), weight)
    return Factor.reflection(0, flips, site, space, over)


def r_factor(lam, k, sites: tuple, space: Space) -> Factor:
    """The exchange operator (lam + k P)/(lam + k) placed at two sites: the
    scalars (lam + k, lam, k) of lam + k P over the divisor lam + k."""
    norm = lam + k
    if norm == 0:
        raise PoleError("exchange operator pole: argument equals -coupling")
    return Factor.exchange(norm, lam, k, sites, space, over=norm)


def k_factor(lam, x: Sequence, beta, site: int, space: Space) -> Factor:
    """The reflection factor (lam T(x) + beta)/(lam + beta) placed at a
    site: the scalars of lam T(x) + beta, beta and each label's flips
    (lam / x_a, lam x_a), over the divisor lam + beta."""
    norm = lam + beta
    if norm == 0:
        raise PoleError("reflection factor pole: argument equals -strength")
    flips = [(lam, lam) if xa == 1 else (lam * inv(xa), lam * xa) for xa in coordinates(x)]
    return Factor.reflection(beta, flips, site, space, over=norm)


def op_dK_dx(lam, x: Sequence, beta, a: int, site: int, space: Space, weight=1) -> Factor:
    """Derivative of the reflection factor K(lam|x, beta) in the a-th
    reflection coordinate, times weight, placed at a site."""
    den = lam + beta
    if den == 0:
        raise PoleError("reflection factor pole: argument equals -strength")
    return op_dT_dx(x, a, site, space, weight * lam, den)


def q_factor_list(m: int, n: int):
    """Symbolic factor sequence of the site-m transport operator, leftmost
    factor first.

    Each entry is (kind, sites, yterms, cmult): kind "R" (exchange, two
    sites), "Kx" (coordinate reflection, strength beta) or "K1" (all-ones
    reflection, strength alpha); the factor argument is
    sum(coef * y[idx] for (idx, coef) in yterms) + cmult * c.  A cmult is
    an exact constant, an int or the Fraction -1/2, that a residue and a
    complex c both accept.
    """
    if not 1 <= m <= n:
        raise ValueError("site index out of range")
    factors = []
    for j in range(m - 1, 0, -1):
        factors.append(("R", (m, j), ((m, 1), (j, -1)), -1))
    factors.append(("Kx", (m,), ((m, 1),), Fraction(-1, 2)))
    for j in range(1, m):
        factors.append(("R", (j, m), ((j, 1), (m, 1)), 0))
    for j in range(m + 1, n + 1):
        factors.append(("R", (m, j), ((m, 1), (j, 1)), 0))
    factors.append(("K1", (m,), ((m, 1),), 0))
    for j in range(n, m, -1):
        factors.append(("R", (m, j), ((m, 1), (j, -1)), 0))
    return factors


def _factor_arg(desc, y: Sequence, c):
    """cmult * c + sum(coef * y[idx]) in that order, a zero cmult left out
    and a unit coefficient read as a sign; a descriptor has at least one y
    term."""
    _, _, yterms, cmult = desc
    arg = cmult * c if cmult else None
    for idx, coef in yterms:
        v = y[idx - 1]
        if arg is None:
            arg = v if coef == 1 else -v if coef == -1 else coef * v
        else:
            arg = arg + v if coef == 1 else arg - v if coef == -1 else arg + coef * v
    return arg


def _factor_op(desc, x: Sequence, y: Sequence, params: ModelParams) -> Factor:
    kind, sites, _, _ = desc
    space = params.space
    arg = _factor_arg(desc, y, params.c)
    if kind == "R":
        return r_factor(arg, params.k, sites, space)
    if kind == "Kx":
        return k_factor(arg, x, params.beta, sites[0], space)
    if kind == "K1":
        return k_factor(arg, ones(space.half_dim), params.alpha, sites[0], space)
    raise ValueError("unknown factor kind %r" % (kind,))


def invert_descs(descs):
    """Descriptor list of the inverse product: reversed order, negated args.

    Valid because every factor satisfies F(arg)^{-1} = F(-arg).
    """
    return [
        (kind, sites, tuple((idx, -coef) for idx, coef in yterms), -cmult)
        for kind, sites, yterms, cmult in reversed(descs)
    ]


def factor_ops(descs, x, y, params: ModelParams) -> list:
    """The placed factors of a descriptor list, leftmost first; each one
    runs its own pole check as it is built."""
    return [_factor_op(desc, x, y, params) for desc in descs]


def compose_descs(descs, x, y, params: ModelParams, start=None):
    """Product of the factor descriptors applied to start, leftmost
    descriptor applied last.  Without a start the factors are applied to
    the identity block and the product is returned as a LinOp."""
    ops = factor_ops(descs, x, y, params)
    if start is None:
        return product(ops + [Block.identity(params.space)]).linop()
    return product(ops + [start])


def q_split_descs(m: int, n: int):
    """Factor descriptors of the transport operator grouped as
    (leading exchange product, middle coordinate reflection, trailing part)."""
    factors = q_factor_list(m, n)
    head = [f for f in factors if f[0] == "R" and f[3] == -1]
    return head, factors[len(head)], factors[len(head) + 1 :]


def op_Q(m: int, x: Sequence, y: Sequence, params: ModelParams) -> LinOp:
    """Transport operator for site m at coordinates x and arguments y."""
    return compose_descs(q_factor_list(m, params.space.n), x, y, params)


def op_dQ_dx(m: int, x: Sequence, y: Sequence, params: ModelParams, tail: Block,
             weights: Sequence) -> Block:
    """weights[a - 1] times the x_a-derivative of the transport operator
    applied to a start, for each a side by side, given `tail`, the trailing
    factors applied to that start.

    Only the middle reflection factor depends on x, so each derivative is
    (leading part) o (middle derivative) o (trailing part).
    """
    head, mid, _ = q_split_descs(m, params.space.n)
    arg = _factor_arg(mid, y, params.c)
    dmids = [op_dK_dx(arg, x, params.beta, a, m, params.space, w).on_block(tail)
             for a, w in enumerate(weights, start=1)]
    return product(factor_ops(head, x, y, params) + [Block.join(dmids)])


def shift_y(y: Sequence, m: int, c) -> tuple:
    """Replace the m-th argument by y_m - c."""
    y = tuple(y)
    return y[: m - 1] + (y[m - 1] - c,) + y[m:]


def ybe_defect(k, l1, l2, l3, start) -> bool:
    """Whether the two sides of the Yang-Baxter equation differ on start,
    a start on three sites."""
    sp = start.space
    r12, r13, r23 = (r_factor(l1 - l2, k, (1, 2), sp), r_factor(l1 - l3, k, (1, 3), sp),
                     r_factor(l2 - l3, k, (2, 3), sp))
    return product((r12, r13, r23, start)) != product((r23, r13, r12, start))


def bybe_defect(k, beta, x: Sequence, l1, l2, start) -> bool:
    """Whether the two sides of the boundary Yang-Baxter equation differ on
    start, a start on two sites."""
    sp = start.space
    r12, r21 = r_factor(l1 - l2, k, (1, 2), sp), r_factor(l1 + l2, k, (2, 1), sp)
    k1, k2 = k_factor(l1, x, beta, 1, sp), k_factor(l2, x, beta, 2, sp)
    return product((r12, k1, r21, k2, start)) != product((k2, r21, k1, r12, start))


def r_unitarity_defect(k, lam, start) -> bool:
    """Whether R(lam) R(-lam) differs from the identity on start, a start
    on two sites."""
    sp = start.space
    return product((r_factor(lam, k, (1, 2), sp), r_factor(-lam, k, (1, 2), sp), start)) != start


def k_unitarity_defect(lam, x: Sequence, beta, start) -> bool:
    """Whether K(lam) K(-lam) differs from the identity on start, a start
    on one site."""
    sp = start.space
    return product((k_factor(lam, x, beta, 1, sp), k_factor(-lam, x, beta, 1, sp), start)) != start


def swap_factor_defect(k, lam, start):
    """(lam P - k) - (lam - k) P R(lam)^{-1} applied to start, a start on
    two sites; zero at every regular point."""
    sp = start.space
    p = p_factor((1, 2), sp)
    return lincomb(sp, [(lam, product((p, start))), (-k, start),
                        (k - lam, product((p, r_factor(-lam, k, (1, 2), sp), start)))])


def flip_factor_defect(lam, x: Sequence, beta, start):
    """(lam T(x) - beta) - (lam - beta) K(lam|x,beta)^{-1} applied to
    start, a start on one site; zero when regular."""
    sp = start.space
    return lincomb(sp, [(lam, product((t_factor(x, 1, sp), start))), (-beta, start),
                        (beta - lam, product((k_factor(-lam, x, beta, 1, sp), start)))])


def transport_consistency_defect(m: int, l: int, x, y, params: ModelParams,
                                 q_m: Block, q_l: Block) -> bool:
    """Whether the two orders of two shifted transport operators differ on
    a start, given Q_m and Q_l at y applied to that start."""
    if m == l:
        raise ValueError("need two distinct sites")
    c = params.c
    n = params.space.n
    lhs = compose_descs(q_factor_list(m, n), x, shift_y(y, l, c), params, start=q_l)
    rhs = compose_descs(q_factor_list(l, n), x, shift_y(y, m, c), params, start=q_m)
    return lhs != rhs


def q_split_defect(m: int, n: int) -> bool:
    """Whether the (head, middle, tail) split of the site-m transport
    operator on n sites drops or reorders a factor; reads no point."""
    head, mid, tail = q_split_descs(m, n)
    return head + [mid] + tail != q_factor_list(m, n)


def q_inverse_defect(m: int, x, y, params: ModelParams, q: Block, start: Block) -> bool:
    """Whether the inverse transport factors applied to q, Q_m applied to
    start, differ from start."""
    inverse = invert_descs(q_factor_list(m, params.space.n))
    return compose_descs(inverse, x, y, params, start=q) != start
