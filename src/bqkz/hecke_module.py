"""Signed-permutation module, its two commuting actions, and the degenerate
transport factors, with every identity tied back to the transport operators.

Here the label count equals the site count (N = n).  The signed permutation
group acts on site labels (left action, sitewise relabeling); a second,
anti-homomorphic action works by slot swaps and reflection operators (right
action).  The orbit of v_1 x ... x v_n under the left action spans a
coordinate subspace whose basis vectors are indexed by group elements; the
interesting identities of this module hold on that subspace only, so checks
restrict to it explicitly.

The degenerate product Cbar_m has two independent constructions: `op_Cbar`
from normalized factors and `cbar_grouped` with the denominators pulled
into one scalar.  Each writes its factors' entries down directly on one or
two sites and embeds them, with its own builder, and applies them to a
start: the suite's start holds a seeded random integer column and one
supported on the orbit states (Freivalds' check), a test's the identity.
A caller applies Cbar_m once per point; the orbit check compares it with
the inverse transport operator applied to the start's orbit-supported
columns only.

Left-action images and the orbit states depend on the space alone, so
`rhoL` and `orbit_states` are cached: each is built once per process, as
`compat_ops` builds its matrix units, and every check reads them from
there.  The pair-sum identities between fixed operators read no point at
all, so one check per space proves them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .rqkz import (
    ModelParams,
    compose_descs,
    invert_descs,
    ones,
    op_P,
    op_T,
    q_factor_list,
)
from .scalar_field import PoleError, div, inv
from .tensor_ops import LinOp, Space, Vec, embed_pair, embed_site, lincomb, product


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

    def inverse(self) -> "SignedPerm":
        imgs = [0] * self.n
        for a, v in enumerate(self.images, start=1):
            imgs[abs(v) - 1] = a if v > 0 else -a
        return SignedPerm(tuple(imgs))

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


def word_r(a: int, n: int) -> list:
    """Word for the reflection that negates label a and fixes the rest."""
    return list(range(a, n + 1)) + list(range(n - 1, a - 1, -1))


def word_s(a: int, b: int, n: int) -> list:
    """Word for the transposition of labels a and b (a < b)."""
    if not a < b:
        raise ValueError("need a < b")
    return list(range(a, b)) + list(range(b - 2, a - 1, -1))


def elem_r(a: int, n: int) -> SignedPerm:
    return SignedPerm.from_word(n, word_r(a, n))


def elem_s(a: int, b: int, n: int) -> SignedPerm:
    if a > b:
        a, b = b, a
    return SignedPerm.from_word(n, word_s(a, b, n))


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


def phi(w: SignedPerm, space: Space) -> Vec:
    """Image of a group element: the basis vector whose j-th site carries
    the label w(j)."""
    if space.half_dim != space.n or w.n != space.n:
        raise ValueError("need label count equal to site count")
    n = space.n
    state = tuple(_label_code(w.apply(j), n) for j in range(1, n + 1))
    return Vec.basis(space, state)


@cache
def orbit_states(space: Space) -> tuple:
    """Basis states of the orbit subspace, one per group element."""
    return tuple(next(iter(phi(w, space).entries)) for w in all_elements(space.n))


def zero_on_orbit(op: LinOp) -> bool:
    """Whether an operator kills every orbit basis vector."""
    index = op.space.index
    return all(index(s) not in op.cols for s in orbit_states(op.space))


def rhoR_generator(g, x: Sequence, space: Space) -> LinOp:
    """Right-action image of one generator: "s0" -> coordinate reflection at
    site 1, integer i in 1..n-1 -> swap of slots i, i+1, n (or "sn") -> the
    all-ones reflection at site n."""
    n = space.n
    if space.half_dim != n:
        raise ValueError("right action needs label count equal to site count")
    if g == "s0":
        return embed_site(op_T(x), 1, space)
    if g == "sn" or g == n:
        return embed_site(op_T(ones(n)), n, space)
    if isinstance(g, int) and 1 <= g < n:
        return embed_pair(op_P(n), g, g + 1, space)
    raise ValueError("unknown generator %r" % (g,))


def rhoR_word(word, x: Sequence, space: Space) -> LinOp:
    """Right-action image of a word: generator images composed in reversed
    order (anti-homomorphism)."""
    images = [rhoR_generator(g, x, space) for g in reversed(word)]
    return product(images or [LinOp.identity(space)])


def eta_L_push(a: int, word: tuple, y: Sequence, params: ModelParams):
    """Normal ordering of (argument generator a) times (group word).

    Pushes the argument generator rightward through the word using the
    degenerate cross relations; a generator that reaches the right end
    becomes the scalar y_a.  Returns {word: coefficient}.
    """
    n = len(y)
    if not word:
        return {(): y[a - 1]}
    j, rest = word[0], tuple(word[1:])

    def prepend(table, scale=1):
        return {(j,) + u: scale * c for u, c in table.items()}

    def merged(base, extra_word, extra_coeff):
        out = dict(base)
        cur = out.get(extra_word, 0)
        cur = cur + extra_coeff
        if cur == 0:
            out.pop(extra_word, None)
        else:
            out[extra_word] = cur
        return out

    if j < n:
        if a == j:
            out = prepend(eta_L_push(j + 1, rest, y, params))
            return merged(out, rest, params.k)
        if a == j + 1:
            out = prepend(eta_L_push(j, rest, y, params))
            return merged(out, rest, -params.k)
        return prepend(eta_L_push(a, rest, y, params))
    if a == n:
        out = prepend(eta_L_push(n, rest, y, params), scale=-1)
        return merged(out, rest, 2 * params.alpha)
    return prepend(eta_L_push(a, rest, y, params))


def check_AHA_relations(y: Sequence, params: ModelParams):
    """Residuals of the degenerate cross relations; zero on the orbit only.

    Yields (name, residual LinOp).  Callers restrict to the orbit basis.
    """
    from .compat_ops import op_A

    space = params.space
    n = space.n
    ident = LinOp.identity(space)
    gens = [rhoL(SignedPerm.generator(n, i), space) for i in range(1, n + 1)]
    ops_a = {i: op_A(i, y, params) for i in range(1, n + 1)}
    for i in range(1, n):
        s_i = gens[i - 1]
        yield ("lower-%d" % i, lincomb(space, [(1, ops_a[i] @ s_i), (-1, s_i @ ops_a[i + 1]),
                                               (-params.k, ident)]))
    s_n = gens[n - 1]
    yield ("top", lincomb(space, [(1, ops_a[n] @ s_n), (1, s_n @ ops_a[n]),
                                  (-2 * params.alpha, ident)]))
    for i in range(1, n + 1):
        for jj in range(1, n + 1):
            if abs(i - jj) > 1 or (i, jj) == (n - 1, n):
                s_j = gens[jj - 1]
                yield ("comm-%d-%d" % (i, jj), ops_a[i] @ s_j - s_j @ ops_a[i])


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


def _cbar_factor(desc, x, y, params: ModelParams) -> LinOp:
    """One degenerate factor, its entries written down directly on one or
    two sites and embedded at its slots."""
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
        cols = {}
        for a in range(2 * n):
            for b in range(2 * n):
                col = {(a, b): 1} if a == b else {(a, b): keep, (b, a): swap}
                cols[(a, b)] = {r: v for r, v in col.items() if v != 0}
        return embed_pair(LinOp(Space(2, n), cols), slot, slot + 1, space)
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
        flips = []
        for a, xa in enumerate(x):
            if xa == 0:
                raise PoleError("reflection coordinate %d is zero" % (a + 1))
            flips.append((w * inv(xa), w * xa))
        diag, site = div(params.beta, den), 1
    else:
        raise ValueError("unknown factor kind %r" % (kind,))
    cols = {}
    for a, (down, up) in enumerate(flips):
        for col, row, v in ((a, n + a, down), (n + a, a, up)):
            cols[(col,)] = {r: e for r, e in {(row,): v, (col,): diag}.items() if e != 0}
    return embed_site(LinOp(Space(1, n), cols), site, space)


def op_Cbar(m: int, x: Sequence, y: Sequence, params: ModelParams, start: LinOp) -> LinOp:
    """Degenerate transport product for site m applied to start: the
    product of the factors of cbar_factor_list, leftmost first, each with
    its entries written down directly by _cbar_factor."""
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


def cbar_grouped(m: int, x: Sequence, y: Sequence, params: ModelParams,
                 start: LinOp) -> LinOp:
    """Same product applied to start, with every denominator pulled into
    one scalar; each linear factor is written down directly on one or two
    sites."""
    space = params.space
    n = space.n
    ym = y[m - 1]
    k = params.k

    def nonzero(cols):
        cols = {c: {r: v for r, v in col.items() if v != 0} for c, col in cols.items()}
        return {c: col for c, col in cols.items() if col}

    def swap_factor(arg, slot):
        # arg P - k on slots slot and slot + 1.
        cols = {}
        for a in range(2 * n):
            for b in range(2 * n):
                cols[(a, b)] = {(a, b): arg - k} if a == b else {(a, b): -k, (b, a): arg}
        return embed_pair(LinOp(Space(2, n), nonzero(cols)), slot, slot + 1, space)

    def end_factor(weight, coords, shift, site):
        # weight T(coords) - shift at one site.
        cols = {}
        for a, xa in enumerate(coords):
            if xa == 0:
                raise PoleError("reflection coordinate %d is zero" % (a + 1))
            cols[(a,)] = {(n + a,): weight * inv(xa), (a,): -shift}
            cols[(n + a,)] = {(a,): weight * xa, (n + a,): -shift}
        return embed_site(LinOp(Space(1, n), nonzero(cols)), site, space)

    factors = []
    for j in range(m + 1, n + 1):
        factors.append(swap_factor(ym - y[j - 1], j - 1))
    factors.append(end_factor(ym, ones(n), params.alpha, n))
    for j in range(n, m, -1):
        factors.append(swap_factor(ym + y[j - 1], j - 1))
    for j in range(m - 1, 0, -1):
        factors.append(swap_factor(ym + y[j - 1], j))
    factors.append(end_factor(ym - div(params.c, 2), tuple(x), params.beta, 1))
    for j in range(1, m):
        factors.append(swap_factor(ym - y[j - 1] - params.c, j))

    p = p_m_scalar(m, y, params)
    if p == 0:
        raise PoleError("grouped-form scalar vanishes")
    return product(factors + [start]).scale(inv(p))


def cbar_vs_inverse_transport_defects(m: int, x, y, params: ModelParams, cbar: LinOp,
                                      start: LinOp, columns) -> list:
    """The columns, among `columns`, of start on which the site-m degenerate
    product and the inverse transport operator differ; cbar is
    `op_Cbar(m, x, y, params, start)`.

    The inverse transport factors are applied to those columns of start
    only, and the difference is read on them alone: with the identity as
    start and the orbit states' indices as columns, this is the whole
    operator on the orbit.
    """
    space = params.space
    picked = LinOp.of(space, {c: start.cols[c] for c in columns if c in start.cols}, start.den)
    inverse = compose_descs(
        invert_descs(q_factor_list(m, space.n)), x, y, params, start=picked
    )
    diff = cbar - inverse
    return [c for c in columns if c in diff.cols]


def pair_sum_identities(a: int, space: Space):
    """Residuals of the point-free restriction identities for label a:
    (name, residual) pairs between fixed integer operators.

    Callers restrict to the orbit basis: all are generally nonzero on the
    full space.
    """
    from .compat_ops import coll_X_swap, coll_YZ, op_Ebar

    n = space.n
    ebar_sum = [(1, embed_site(op_Ebar(n, a, a), j, space)) for j in range(1, n + 1)]
    yield ("reflection-sum", lincomb(space, ebar_sum + [(-1, rhoL(elem_r(a, n), space))]))
    yield ("self-pair", coll_YZ(a, a, space))
    for b in range(1, n + 1):
        if b == a:
            continue
        yield ("swap-pair-%d" % b, coll_X_swap(a, b, space) - rhoL(elem_s(a, b, n), space))
        yield ("signed-swap-pair-%d" % b,
               coll_YZ(a, b, space) - rhoL(elem_s_tilde(a, b, n), space))


def check_L_restriction(a: int, x, params: ModelParams) -> LinOp:
    """Residual of L_a against its group-algebra form; zero on the orbit
    only.

    Both sides of the identity hold the argument part op_A(a, y); exact
    addition cancels it, so the residual is the group part minus the
    coordinate part op_B(a, x) and reads no y.
    """
    from .compat_ops import op_B_terms

    space = params.space
    n = space.n
    k = params.k
    x = tuple(x)
    xa = x[a - 1]
    terms = [(div(2 * (params.alpha + params.beta * xa), xa * xa - 1), rhoL(elem_r(a, n), space))]
    for p in range(1, n + 1):
        if p == a:
            continue
        w = div(xa, xa - x[p - 1]) if p < a else div(x[p - 1], xa - x[p - 1])
        terms.append((k * w, rhoL(elem_s(a, p, n), space)))
        terms.append((k * inv(xa * x[p - 1] - 1), rhoL(elem_s_tilde(a, p, n), space)))
    return lincomb(space, terms + [(-w, op) for w, op in op_B_terms(a, x, params)])
