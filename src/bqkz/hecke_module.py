"""Signed-permutation module, its two commuting actions, and the degenerate
transport factors, with every identity tied back to the transport operators.

Here the label count equals the site count (N = n).  The signed permutation
group acts on site labels (left action, sitewise relabeling); a second,
anti-homomorphic action works by slot swaps and reflection operators (right
action), each generator's image the placed factor `rqkz.p_factor` or
`rqkz.t_factor` (`rhoR_generator`).  The orbit of v_1 x ... x v_n under
the left action spans a coordinate subspace whose basis vectors are
indexed by group elements: `phi` maps an element to its basis vector's
linear index, and `orbit_states` lists those indices.  A group element is
its tuple of images of the labels 1..n: `SignedPerm.generator`, `elem_r`
(negate one label) and `elem_s` (swap two) write that tuple directly; a
word's element is the product of its generators (`SignedPerm.from_word`).

The interesting identities of this module hold on the orbit subspace only,
so each check reads its identity applied to a start on the orbit: a
residual, each term applied to the start before the one sum, must vanish
on it, and a two-sided identity compares its two sides applied to it,
True when they differ.  The degenerate cross relations
(`check_AHA_relations`) form each product through `tensor_ops.product`
on the start the suite passes, one `tensor_ops.Block` holding a seeded
random column over F_p supported on the orbit states (Freivalds' check),
so every operator is applied to it entry by entry; a test may pass the
orbit block, the identity's columns at the orbit states, to prove the
relations on the whole orbit.  The restriction check's terms read no
point, so each keeps only its orbit columns (`LinOp.restricted`), once
per process (`restriction_images`), and each point only weights and sums
them; the point-free pair-sum identities (`pair_sum_identities`) read the
same images.

The degenerate product Cbar_m has two independent constructions: `op_Cbar`
from normalized factors and `cbar_grouped` with the denominators pulled
into one scalar.  Each computes its own factors' scalars and order and
keeps each factor as a `tensor_ops.Factor` of its shape (exchange on two
sites, reflection on one), the only code the two share; the factors are
applied to a start by their gather, and no factor operator is written.
The suite's start is a `tensor_ops.Block` holding a seeded random integer
column and one supported on the orbit states (Freivalds' check); a test
may pass the identity block to get the whole product.  A caller applies
Cbar_m once per point; the orbit check compares it with the inverse
transport operator applied to the start's orbit-supported columns only.

Left-action images, the orbit states and the restriction images depend
on the space alone, so `rhoL`, `orbit_states` and `restriction_images`
are cached: each is built once per process, as `compat_ops` builds its
matrix units, and every check reads them from there.  The pair-sum
identities between fixed operators read no point at all, so one check per
space proves them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from . import compat_ops
from .rqkz import (
    ModelParams,
    compose_descs,
    coordinates,
    invert_descs,
    ones,
    p_factor,
    q_factor_list,
    t_factor,
)
from .scalar_field import PoleError, div, inv
from .tensor_ops import Block, Factor, LinOp, Space, lincomb, product


@dataclass(frozen=True)
class SignedPerm:
    """Signed permutation: images of 1..n as signed integers.

    Acts on signed labels by w(-a) = -w(a); composition is function
    composition, so (w*u)(a) = w(u(a)).
    """

    images: tuple

    @property
    def n(self) -> int:
        return len(self.images)

    def __post_init__(self):
        n = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)):
            raise ValueError("not a signed permutation: %r" % (self.images,))

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def generator(cls, n: int, i: int) -> "SignedPerm":
        """s_i for 1 <= i < n swaps labels i, i+1; s_n negates label n."""
        if not 1 <= i <= n:
            raise ValueError("generator index out of range")
        imgs = list(range(1, n + 1))
        if i < n:
            imgs[i - 1], imgs[i] = imgs[i], imgs[i - 1]
        else:
            imgs[n - 1] = -n
        return cls(tuple(imgs))

    def apply(self, label: int) -> int:
        if label > 0:
            return self.images[label - 1]
        return -self.images[-label - 1]

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        return SignedPerm(tuple(self.apply(v) for v in other.images))

    @classmethod
    def from_word(cls, n: int, word: Sequence[int]) -> "SignedPerm":
        out = cls.identity(n)
        for i in word:
            out = out * cls.generator(n, i)
        return out


def all_elements(n: int):
    """Every signed permutation, 2^n n! of them."""
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPerm(tuple(s * p for s, p in zip(signs, perm)))


def elem_r(a: int, n: int) -> SignedPerm:
    """The reflection that negates label a and fixes the rest."""
    return SignedPerm(tuple(-j if j == a else j for j in range(1, n + 1)))


def elem_s(a: int, b: int, n: int) -> SignedPerm:
    """The transposition of labels a and b."""
    swap = {a: b, b: a}
    return SignedPerm(tuple(swap.get(j, j) for j in range(1, n + 1)))


def elem_s_tilde(a: int, b: int, n: int) -> SignedPerm:
    """Negates both labels a and b and swaps them."""
    return elem_r(a, n) * elem_r(b, n) * elem_s(a, b, n)


def _label_code(label: int, n: int) -> int:
    return label - 1 if label > 0 else n - label - 1


@cache
def rhoL(w: SignedPerm, space: Space) -> LinOp:
    """Left action: relabel every site's label by w.  A permutation of the
    basis, so each column holds one index."""
    if space.half_dim != space.n or w.n != space.n:
        raise ValueError("left action needs label count equal to site count")
    n, d = space.n, space.site_dim
    site_map = []
    for code in range(d):
        label = code + 1 if code < n else n - code - 1
        site_map.append(_label_code(w.apply(label), n))
    cols = {}
    for col, state in enumerate(space.states()):
        row = 0
        for code in state:
            row = row * d + site_map[code]
        cols[col] = {row: 1}
    return LinOp.of(space, cols)


def phi(w: SignedPerm, space: Space) -> int:
    """Image of a group element: the index of the basis vector whose j-th
    site carries the label w(j)."""
    if space.half_dim != space.n or w.n != space.n:
        raise ValueError("need label count equal to site count")
    n = space.n
    return space.index(_label_code(w.apply(j), n) for j in range(1, n + 1))


@cache
def orbit_states(space: Space) -> tuple:
    """Indices of the orbit subspace's basis vectors, one per group element."""
    return tuple(phi(w, space) for w in all_elements(space.n))


def rhoR_generator(g, x: Sequence, space: Space) -> Factor:
    """Right-action image of one generator, the factor placed where it
    acts: "s0" -> coordinate reflection at site 1, integer i in 1..n-1 ->
    swap of slots i, i+1, n (or "sn") -> the all-ones reflection at site n."""
    n = space.n
    if space.half_dim != n:
        raise ValueError("right action needs label count equal to site count")
    if g == "s0":
        return t_factor(x, 1, space)
    if g == "sn" or g == n:
        return t_factor(ones(n), n, space)
    if isinstance(g, int) and 1 <= g < n:
        return p_factor((g, g + 1), space)
    raise ValueError("unknown generator %r" % (g,))


def check_AHA_relations(y: Sequence, params: ModelParams, start):
    """The degenerate cross relations applied to start, which hold on the
    orbit only: yields (name, residual) of each three-term relation and
    (name, whether its sides differ) of each commutation.  Each product
    applies its right factor to start first (`product`), so none is wider
    than start."""
    space = params.space
    n = space.n
    gens = [rhoL(SignedPerm.generator(n, i), space) for i in range(1, n + 1)]
    ops_a = {i: compat_ops.op_A(i, y, params) for i in range(1, n + 1)}
    a_start = {i: product((op_a, start)) for i, op_a in ops_a.items()}
    s_start = [product((s_i, start)) for s_i in gens]
    for i in range(1, n):
        yield ("lower-%d" % i, lincomb(space, [(1, product((ops_a[i], s_start[i - 1]))),
                                               (-1, product((gens[i - 1], a_start[i + 1]))),
                                               (-params.k, start)]))
    yield ("top", lincomb(space, [(1, product((ops_a[n], s_start[n - 1]))),
                                  (1, product((gens[n - 1], a_start[n]))),
                                  (-2 * params.alpha, start)]))
    for i in range(1, n + 1):
        for jj in range(1, n + 1):
            if abs(i - jj) > 1 or (i, jj) == (n - 1, n):
                yield ("comm-%d-%d" % (i, jj), product((ops_a[i], s_start[jj - 1]))
                       != product((gens[jj - 1], a_start[i])))


def cbar_factor_list(m: int, n: int):
    """Symbolic factor sequence of the degenerate transport product,
    leftmost factor first.

    Entries are (kind, slot, yterms, cmult): kind "Rb" (slot-swap factor at
    slots slot, slot+1), "Kn" (all-ones end factor), "K0" (coordinate end
    factor); the argument is sum(coef * y[idx]) + cmult * c.
    """
    if not 1 <= m <= n:
        raise ValueError("site index out of range")
    fs = []
    for i in range(m, n):
        fs.append(("Rb", i, ((i + 1, 1), (m, -1)), 0))
    fs.append(("Kn", None, ((m, 1),), 0))
    for i in range(n - 1, m - 1, -1):
        fs.append(("Rb", i, ((m, -1), (i + 1, -1)), 0))
    for i in range(m - 1, 0, -1):
        fs.append(("Rb", i, ((i, -1), (m, -1)), 0))
    fs.append(("K0", None, ((m, -1),), 0))
    for i in range(1, m):
        fs.append(("Rb", i, ((i, 1), (m, -1)), 1))
    return fs


def _cbar_factor(desc, x, y, params: ModelParams) -> Factor:
    """One degenerate factor, kept as the scalars of its shape and placed
    at its slots."""
    kind, slot, yterms, cmult = desc
    space = params.space
    n = space.n
    arg = cmult * params.c
    for idx, coef in yterms:
        arg = arg + coef * y[idx - 1]
    if kind == "Rb":
        den = arg + params.k
        if den == 0:
            raise PoleError("slot-swap factor pole")
        # (arg P + k)/(arg + k) fixes a column with equal codes.
        keep, swap = div(params.k, den), div(arg, den)
        return Factor.exchange(1, keep, swap, (slot, slot + 1), space)
    if kind == "Kn":
        den = arg - params.alpha
        if den == 0:
            raise PoleError("all-ones end factor pole")
        # (arg T(1) - alpha)/(arg - alpha) at site n.
        w = div(arg, den)
        flips = [(w, w)] * n
        diag, site = div(-params.alpha, den), n
    elif kind == "K0":
        half_c = div(params.c, 2)
        den = arg + params.beta + half_c
        if den == 0:
            raise PoleError("coordinate end factor pole")
        # ((arg + c/2) T(x) + beta)/(arg + beta + c/2) at site 1.
        w = div(arg + half_c, den)
        flips = [(w * inv(xa), w * xa) for xa in coordinates(x)]
        diag, site = div(params.beta, den), 1
    else:
        raise ValueError("unknown factor kind %r" % (kind,))
    return Factor.reflection(diag, flips, site, space)


def op_Cbar(m: int, x: Sequence, y: Sequence, params: ModelParams, start: Block) -> Block:
    """Degenerate transport product for site m applied to start: the
    product of the factors of cbar_factor_list, leftmost first, each
    built by _cbar_factor."""
    return product([_cbar_factor(desc, x, y, params)
                    for desc in cbar_factor_list(m, params.space.n)] + [start])


def p_m_scalar(m: int, y: Sequence, params: ModelParams):
    """Product of the linear-factor denominators of the grouped form."""
    ym = y[m - 1]
    out = (ym - params.alpha) * (ym - params.beta - div(params.c, 2))
    for j in range(1, m):
        out = out * (ym - y[j - 1] - params.c - params.k)
    for j in range(m + 1, len(y) + 1):
        out = out * (ym - y[j - 1] - params.k)
    for j in range(1, len(y) + 1):
        if j != m:
            out = out * (ym + y[j - 1] - params.k)
    return out


def _grouped_swap(arg, k, slot: int, space: Space) -> Factor:
    """arg P - k at slots slot, slot + 1: a linear factor of the grouped form."""
    return Factor.exchange(arg - k, -k, arg, (slot, slot + 1), space)


def _grouped_end(weight, coords, shift, site: int, space: Space) -> Factor:
    """weight T(coords) - shift at a site: a linear factor of the grouped form."""
    flips = [(weight * inv(xa), weight * xa) for xa in coordinates(coords)]
    return Factor.reflection(-shift, flips, site, space)


def cbar_grouped(m: int, x: Sequence, y: Sequence, params: ModelParams,
                 start: Block) -> Block:
    """Same product applied to start, with every denominator pulled into
    one scalar; each linear factor is built by _grouped_swap or
    _grouped_end."""
    space = params.space
    n = space.n
    ym = y[m - 1]
    k = params.k

    factors = []
    for j in range(m + 1, n + 1):
        factors.append(_grouped_swap(ym - y[j - 1], k, j - 1, space))
    factors.append(_grouped_end(ym, ones(n), params.alpha, n, space))
    for j in range(n, m, -1):
        factors.append(_grouped_swap(ym + y[j - 1], k, j - 1, space))
    for j in range(m - 1, 0, -1):
        factors.append(_grouped_swap(ym + y[j - 1], k, j, space))
    factors.append(_grouped_end(ym - div(params.c, 2), tuple(x), params.beta, 1, space))
    for j in range(1, m):
        factors.append(_grouped_swap(ym - y[j - 1] - params.c, k, j, space))

    p = p_m_scalar(m, y, params)
    if p == 0:
        raise PoleError("grouped-form scalar vanishes")
    return product(factors + [start]).scale(inv(p))


def cbar_vs_inverse_transport_defect(m: int, x, y, params: ModelParams, cbar: Block,
                                     start: Block, columns) -> bool:
    """Whether the site-m degenerate product, cbar = `op_Cbar(m, x, y,
    params, start)`, and the inverse transport operator differ on the
    positions `columns` of the block start, to which alone the inverse
    factors are applied.  With the identity block as start and the orbit
    states as columns, this compares the whole operators on the orbit."""
    inverse = compose_descs(invert_descs(q_factor_list(m, params.space.n)), x, y, params,
                            start=start.take(columns))
    return cbar.take(columns) != inverse


def pair_sum_identities(a: int, space: Space) -> list:
    """The point-free restriction identities for label a on the orbit
    columns, where alone they hold: (name, residual) of the reflection sum
    and the self pair, (name, whether its sides differ) of each swap pair.
    They sum the images that check_L_restriction weights
    (`restriction_images`), so no operator is built twice."""
    n = space.n
    images = restriction_images(a, space)
    # rhoL(r_a), then rhoL(s_ab) and rhoL(s~_ab) for each b != a; then
    # op_B_ops: op_Ebar(a, a) at each site, and for each label b
    # coll_X_swap(a, b) unless b == a, then coll_YZ(a, b).
    r_a, *pairs = images[:2 * n - 1]
    ebar = images[2 * n - 1:3 * n - 1]
    colls = iter(images[3 * n - 1:])
    swap_yz = {b: (None if b == a else next(colls), next(colls)) for b in range(1, n + 1)}
    out = [("reflection-sum", lincomb(space, [(1, op) for op in ebar] + [(-1, r_a)])),
           ("self-pair", swap_yz[a][1])]
    others = [b for b in range(1, n + 1) if b != a]
    for b, s, s_tilde in zip(others, pairs[::2], pairs[1::2], strict=True):
        swap, yz = swap_yz[b]
        out += [("swap-pair-%d" % b, swap != s), ("signed-swap-pair-%d" % b, yz != s_tilde)]
    return out


@cache
def restriction_images(a: int, space: Space) -> tuple:
    """The orbit columns of the operators of check_L_restriction for label
    a, in the order of its weights: the left-action images of r_a, then of
    s_ap and s~_ap for each p != a, then op_B's operators.  None of them
    reads a point, so each is built once per process."""
    n = space.n
    ops = [rhoL(elem_r(a, n), space)]
    for p in range(1, n + 1):
        if p != a:
            ops += [rhoL(elem_s(a, p, n), space), rhoL(elem_s_tilde(a, p, n), space)]
    states = orbit_states(space)
    return tuple(op.restricted(states) for op in ops + list(compat_ops.op_B_ops(a, space)))


def check_L_restriction(a: int, x, params: ModelParams, images: list) -> LinOp:
    """Residual of L_a against its group-algebra form on the orbit columns,
    given images = restriction_images(a, space); zero on the orbit only.

    Both sides of the identity hold the argument part op_A(a, y); exact
    addition cancels it, so the residual is the group part minus the
    coordinate part B_a(x), the terms of op_B_terms(a, x), and reads no
    y: one `lincomb` of the images weighted at x.
    """
    n = params.space.n
    k = params.k
    x = tuple(x)
    xa = x[a - 1]
    weights = [div(2 * (params.alpha + params.beta * xa), xa * xa - 1)]
    for p in range(1, n + 1):
        if p == a:
            continue
        w = div(xa, xa - x[p - 1]) if p < a else div(x[p - 1], xa - x[p - 1])
        weights += [k * w, k * inv(xa * x[p - 1] - 1)]
    weights += [-w for w, _ in compat_ops.op_B_terms(a, x, params)]
    return lincomb(params.space, list(zip(weights, images, strict=True)))
