"""Sparse linear algebra on tensor powers of a 2N-dimensional site space.

The site space V has basis v_1, ..., v_N, v_1bar, ..., v_Nbar.  A label is a
pair (index, barred); its integer code is index-1 for unbarred and
N+index-1 for barred, so codes run 0..2N-1.  A basis state of V^(x)n is the
tuple of its site codes, site 1 first; its linear index makes site 1 most
significant, which is the order `Space.states` yields.

Operators are stored column-major as {col_index: {row_index: entry}}, keyed
by linear state index, with no explicitly stored zeros.  A vector is one
such column, {index: value}, and `apply` maps columns to columns.  The
package writes index keys only.  Every exchange and reflection factor is
written by the writer of its shape, `exchange_op` on two sites or
`reflection_op` on one, which clears its few scalars once and stores no
zero entry or empty column; other operators come from `LinOp.of`,
`lincomb`, `compose` or `Placed.embedded`.  `entry` reads by state, and
the constructor converts state keys once, for operators written by hand.

One loop, `_compose_at`, multiplies operator entries.  It composes an
operator placed on some sites with one on the whole space, reading each
index as a local code and a base index (the digits at every other site)
from a table cached per placement.  `Placed.compose` runs it at a one- or
two-site placement, `LinOp.compose` at the whole-space one (every site,
each index its own code, every base 0), `apply` on a one-column operator
and `site_tensor` with op1 placed at site 1; `Placed.embedded` writes a
whole operator from a placed one by the same table.

An exact operator holds int numerators over one positive int denominator,
reduced so that the two share no factor; a floating-point operator (the
contour solver's) holds complex values over 1.  Equality of exact operators
is therefore structural equality of numerators and denominator.

Exact arithmetic never leaves the integers: a linear combination
(`lincomb`, and `+`, `-` and `scale` through it) meets over one lcm and
reduces once by the gcd, `compose` multiplies numerators and denominators
and reduces once, and `product` (or `@`) folds `compose`, placed ones too,
embedding only a placed last factor.
Values are read as rationals only at the edges: `entry`, `to_dense`,
`apply` and `max_abs`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import gcd, lcm

from .scalar_field import inv as _inv_scalar, is_exact, rat


@dataclass(frozen=True)
class Space:
    """Tensor power V^(x)n with dim V = 2*half_dim."""

    n: int
    half_dim: int

    def __post_init__(self):
        if self.n < 1 or self.half_dim < 1:
            raise ValueError("need n >= 1 and half_dim >= 1")

    @property
    def site_dim(self) -> int:
        return 2 * self.half_dim

    @property
    def dim(self) -> int:
        return self.site_dim ** self.n

    def states(self):
        """All basis states in linear-index order (site 1 most significant)."""
        return itertools.product(range(self.site_dim), repeat=self.n)

    def index(self, state) -> int:
        """Linear index of a basis state."""
        i = 0
        for code in state:
            i = i * self.site_dim + code
        return i

    def stride(self, site: int) -> int:
        """Index step of one code step at a site (1-based)."""
        return self.site_dim ** (self.n - site)


class LinOp:
    """Sparse operator on a Space, column-major, no stored zeros.

    `cols` is keyed by linear state index.  An exact operator stores int
    numerators in `cols` over the positive int `den`, reduced so that
    gcd(den, every numerator) is 1; the zero operator has den 1.  A
    floating-point operator stores its values, with den 1.  No operation
    modifies an operator in place, so operators may be shared.
    """

    __slots__ = ("space", "cols", "den", "exact")

    def __init__(self, space: Space, cols=None):
        """cols may be keyed by linear index or by state tuple (converted
        here, once) and may hold ints, rationals (cleared here, once) or
        floats (an operator with any float entry keeps every entry as
        given).  The package writes index keys (`of` and the shape
        writers); state keys remain for operators written by hand in tests."""
        cols = {} if cols is None else cols
        nums, self.den, self.exact = clear([v for col in cols.values() for v in col.values()])
        it = iter(nums)
        self.space = space

        def key(k):
            return k if type(k) is int else space.index(k)

        self.cols = {key(c): {key(r): next(it) for r in col} for c, col in cols.items()}

    @classmethod
    def of(cls, space: Space, cols, den=1, exact=True) -> "LinOp":
        """Operator from entries already in canonical form, unchecked."""
        op = object.__new__(cls)
        op.space, op.cols, op.den, op.exact = space, cols, den, exact
        return op

    @classmethod
    def zero(cls, space: Space) -> "LinOp":
        return cls.of(space, {})

    @classmethod
    def identity(cls, space: Space) -> "LinOp":
        return cls.of(space, {i: {i: 1} for i in range(space.dim)})

    def _values(self):
        """The column map with every entry read as its value."""
        if self.den == 1:
            return self.cols
        return {c: {r: rat(v, self.den) for r, v in col.items()} for c, col in self.cols.items()}

    def entry(self, row, col):
        """Value at a (row state, col state) pair."""
        index = self.space.index
        v = self.cols.get(index(col), {}).get(index(row), 0)
        return v if self.den == 1 else rat(v, self.den)

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other):
        return (
            isinstance(other, LinOp)
            and self.space == other.space
            and self.den == other.den
            and self.cols == other.cols
        )

    def __repr__(self):
        return "LinOp(dim=%d, nnz=%d)" % (self.space.dim, self.nnz())

    def apply(self, column: dict) -> dict:
        """The image of an {index: value} column, zero-free: self composed
        with the one-column operator that holds it, read as values."""
        return self.compose(LinOp(self.space, {0: column}))._values().get(0, {})

    def compose(self, other: "LinOp") -> "LinOp":
        """self o other (apply other first): the product kernel with self
        placed on every site, where each index is its own local code and
        every base index is 0."""
        space = self.space
        return _compose_at(self, tuple(map(space.stride, range(1, space.n + 1))), space, other)

    def __matmul__(self, other):
        return self.compose(other)

    def add(self, other: "LinOp") -> "LinOp":
        return lincomb(self.space, ((1, self), (1, other)))

    __add__ = add

    def __sub__(self, other):
        return lincomb(self.space, ((1, self), (-1, other)))

    def scale(self, a) -> "LinOp":
        return lincomb(self.space, ((a, self),))

    def __neg__(self):
        return self.scale(-1)

    def max_abs(self) -> float:
        m = 0.0
        for col in self._values().values():
            for v in col.values():
                a = abs(complex(v))
                if a > m:
                    m = a
        return m

    def to_dense(self):
        """Nested row-major list of values (ints where unset)."""
        dim = self.space.dim
        dense = [[0] * dim for _ in range(dim)]
        for c, col in self._values().items():
            for r, v in col.items():
                dense[r][c] = v
        return dense

    @classmethod
    def from_dense(cls, space: Space, dense) -> "LinOp":
        dim = space.dim
        cols = {j: {i: dense[i][j] for i in range(dim) if dense[i][j] != 0} for j in range(dim)}
        return cls(space, {c: col for c, col in cols.items() if col})


def clear(values):
    """(numerators, den, exact): exact scalars as ints over their least
    common denominator, which shares no factor with them all; with any float
    among them, the values as given over 1."""
    if not all(map(is_exact, values)):
        return list(values), 1, False
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den, True


def exchange_op(half: int, diag, keep, swap) -> LinOp:
    """Two-site operator of the exchange shape: column a*d + b holds diag
    when a == b, else keep at a*d + b and then swap at b*d + a.  The three
    scalars are cleared once; no zero entry or empty column is stored."""
    (diag, keep, swap), den, exact = clear((diag, keep, swap))
    d = 2 * half
    cols = {}
    for a in range(d):
        for b in range(d):
            col = {}
            if a == b:
                if diag != 0:
                    col[a * d + b] = diag
            else:
                if keep != 0:
                    col[a * d + b] = keep
                if swap != 0:
                    col[b * d + a] = swap
            if col:
                cols[a * d + b] = col
    return LinOp.of(Space(2, half), cols, den, exact)


def reflection_op(diag, flips) -> LinOp:
    """One-site operator of the reflection shape, one (down, up) pair of
    flips per label a: column a holds down at abar, column abar up at a,
    and each then diag on itself.  The scalars are cleared once; no zero
    entry or empty column is stored."""
    (diag, *ends), den, exact = clear([diag, *itertools.chain.from_iterable(flips)])
    half = len(ends) // 2
    cols = {}
    for a in range(half):
        for col, row, v in ((a, half + a, ends[2 * a]), (half + a, a, ends[2 * a + 1])):
            entries = {r: w for r, w in ((row, v), (col, diag)) if w != 0}
            if entries:
                cols[col] = entries
    return LinOp.of(Space(1, half), cols, den, exact)


def lincomb(space: Space, terms) -> LinOp:
    """sum(coef * op) over (coef, op) pairs on `space`, in one pass: exact
    terms meet over the lcm of every op.den * coef.denominator and the sum
    is reduced once; with any inexact term the values are summed in term
    order.  No term's columns are modified or shared by the result."""
    live = []
    for a, op in terms:
        if op.space != space:
            raise ValueError("space mismatch in lincomb")
        if a != 0:
            live.append((a, op))
    exact = all(op.exact and is_exact(a) for a, op in live)
    if exact:
        den = lcm(*(op.den * a.denominator for a, op in live))
        live = [(a.numerator * (den // (op.den * a.denominator)), op.cols) for a, op in live]
    else:
        den = 1
        live = [(a, op._values()) for a, op in live]
    out = {}
    for f, cols in live:
        for c, col in cols.items():
            dst = out.get(c)
            if dst is None:
                out[c] = dict(col) if f == 1 else {r: f * v for r, v in col.items()}
            elif f == 1:
                for r, v in col.items():
                    w = dst.get(r)
                    dst[r] = v if w is None else w + v
            else:
                for r, v in col.items():
                    w = dst.get(r)
                    dst[r] = f * v if w is None else w + f * v
    for c, col in list(out.items()):
        if 0 in col.values():
            out[c] = col = {r: v for r, v in col.items() if v != 0}
            if not col:
                del out[c]
    return _built(space, out, den, exact)


def _built(space: Space, cols, den, exact) -> LinOp:
    """Exact operator from int numerators over den > 0, divided by their
    gcd; a floating-point one from its values (den is then 1)."""
    g = den
    for col in cols.values():
        if g == 1:
            break
        g = gcd(g, *col.values())
    if g != 1:
        cols = {c: {r: v // g for r, v in col.items()} for c, col in cols.items()}
    return LinOp.of(space, cols, den // g, exact)


def _operands(*ops):
    """((cols, den) of each operand, exact): the stored numerators when
    every operand is exact, else every operand's values over 1."""
    if all(op.exact for op in ops):
        return [(op.cols, op.den) for op in ops] + [True]
    return [(op._values(), 1) for op in ops] + [False]


def product(ops) -> LinOp:
    """ops[0] o ops[1] o ... o ops[-1], the last applied first (embedded if placed)."""
    *rest, out = ops
    out = out.embedded() if isinstance(out, Placed) else out
    for op in reversed(rest):
        out = op.compose(out)
    return out


def commutator(a: LinOp, b: LinOp) -> LinOp:
    return a @ b - b @ a


def _embedded(op: LinOp, strides, space: Space) -> LinOp:
    """op acting on the sites whose index strides are given, in slot order:
    each index's local code picks op's column, and its base index, the
    digits at every other site, is added to each row's offset."""
    shift, codes, bases = _placement(strides, space)
    local = {c: [(shift[r], v) for r, v in col.items()] for c, col in op.cols.items()}
    cols = {}
    for c, (code, base) in enumerate(zip(codes, bases)):
        rows = local.get(code)
        if rows is not None:
            cols[c] = {base + dr: v for dr, v in rows}
    return LinOp.of(space, cols, op.den, op.exact)


class Placed:
    """A one- or two-site operator at given sites (slot order), applied
    without embedding: `compose` runs the product kernel at this placement,
    with the result `embedded().compose` would give."""

    __slots__ = ("local", "strides", "space")

    def __init__(self, local: LinOp, sites: tuple, space: Space):
        sites = tuple(sites)
        if local.space.n != len(sites) or local.space.half_dim != space.half_dim:
            raise ValueError("need a %d-site operator over the same labels" % len(sites))
        if len(set(sites)) != len(sites) or not all(1 <= j <= space.n for j in sites):
            raise ValueError("need distinct sites in range")
        self.local, self.strides, self.space = local, tuple(map(space.stride, sites)), space

    def embedded(self) -> LinOp:
        """The whole operator on the space."""
        return _embedded(self.local, self.strides, self.space)

    def compose(self, other: LinOp) -> LinOp:
        return _compose_at(self.local, self.strides, self.space, other)


def _compose_at(local: LinOp, strides: tuple, space: Space, other: LinOp) -> LinOp:
    """The one product kernel: local, acting on the sites of `space` whose
    index strides are given, composed with other.  Each index k of a
    column of other picks local's column codes[k], read in place; each of
    its rows adds at bases[k] plus that row's shift.  Exact operands
    multiply numerators and denominators and reduce once; with a
    floating-point operand the values are multiplied."""
    if space != other.space:
        raise ValueError("space mismatch in compose")
    (acols, da), (bcols, db), exact = _operands(local, other)
    shift, codes, bases = _placement(strides, space)
    out = {}
    for c, bcol in bcols.items():
        acc = {}
        get = acc.get
        for k, bkc in bcol.items():
            acol = acols.get(codes[k])
            if acol is None:
                continue
            base = bases[k]
            for lr, ark in acol.items():
                r = base + shift[lr]
                acc[r] = get(r, 0) + ark * bkc
        if 0 in acc.values():
            acc = {r: w for r, w in acc.items() if w != 0}
        if acc:
            out[c] = acc
    return _built(space, out, da * db, exact)


def _offsets(strides, d: int) -> list:
    """Index offset of every digit tuple over the given strides, first
    stride most significant."""
    out = [0]
    for s in strides:
        out = [base + digit * s for base in out for digit in range(d)]
    return out


@cache
def _placement(strides: tuple, space: Space) -> tuple:
    """(shift, codes, bases) at these strides: shift[code] is a local code's
    index offset; index i has local code codes[i] and base index bases[i],
    the offset of its digits at every other site.  Reads no point: cached."""
    d = space.site_dim
    shift = _offsets(strides, d)
    others = [t for t in map(space.stride, range(1, space.n + 1)) if t not in strides]
    codes, bases = [0] * space.dim, [0] * space.dim
    for base in _offsets(others, d):
        for code, s in enumerate(shift):
            codes[base + s], bases[base + s] = code, base
    return tuple(shift), tuple(codes), tuple(bases)


def site_tensor(op1: LinOp, op2: LinOp) -> LinOp:
    """Two-site operator op1 (x) op2 from two site operators: op1 placed at
    site 1 composed with op2 embedded at site 2."""
    sp = Space(2, op1.space.half_dim)
    return Placed(op1, (1,), sp).compose(Placed(op2, (2,), sp).embedded())


class PoleSingular(ZeroDivisionError):
    """Attempted to invert a singular operator."""


def invert(op: LinOp) -> LinOp:
    """Inverse by Gauss-Jordan elimination.

    Exact over rationals (any nonzero pivot); over complex floats uses
    partial pivoting and treats pivots below 1e-12 * max|entry| as singular.
    """
    space = op.space
    dim = space.dim
    a = op.to_dense()
    exact = op.exact
    tol = 0.0 if exact else 1e-12 * max(op.max_abs(), 1e-300)

    inv = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        inv[i][i] = 1

    for col in range(dim):
        piv_row = -1
        if exact:
            for r in range(col, dim):
                if a[r][col] != 0:
                    piv_row = r
                    break
        else:
            best = tol
            for r in range(col, dim):
                m = abs(complex(a[r][col]))
                if m > best:
                    best = m
                    piv_row = r
        if piv_row < 0:
            raise PoleSingular("operator is singular at column %d" % col)
        if piv_row != col:
            a[piv_row], a[col] = a[col], a[piv_row]
            inv[piv_row], inv[col] = inv[col], inv[piv_row]
        piv = a[col][col]
        rp = _inv_scalar(piv)
        a[col] = [v * rp if v != 0 else v for v in a[col]]
        inv[col] = [v * rp if v != 0 else v for v in inv[col]]
        for r in range(dim):
            if r == col:
                continue
            f = a[r][col]
            if f == 0:
                continue
            ar, ac, ir, ic = a[r], a[col], inv[r], inv[col]
            for j in range(dim):
                if ac[j] != 0:
                    ar[j] = ar[j] - f * ac[j]
                if ic[j] != 0:
                    ir[j] = ir[j] - f * ic[j]
    return LinOp.from_dense(space, inv)
