"""Sparse linear algebra on tensor powers of a 2N-dimensional site space.

The site space V has basis v_1, ..., v_N, v_1bar, ..., v_Nbar.  A label is a
pair (index, barred); its integer code is index-1 for unbarred and
N+index-1 for barred, so codes run 0..2N-1.  A basis state of V^(x)n is the
tuple of its site codes, site 1 first; its linear index makes site 1 most
significant, which is the order `Space.states` yields.

Operators are stored column-major as {col_index: {row_index: entry}}, keyed
by linear state index, with no explicitly stored zeros.  A vector is one
such column, {index: value}, and `apply` maps columns to columns.  The
package writes index keys only; operators come from `LinOp.of`, `lincomb`,
`compose`, `restricted`, `site_tensor` and `Placed.embedded`.  `entry`
reads by state, and the constructor converts state keys once, for
operators written by hand.

Every exchange and reflection factor is a `Factor`: one flat tuple of
scalars, divided by an optional `over` and placed at its sites, whose
layout, the slot each local code reads on itself and on its partner, is
the one cached table of its shape (`factor_shape`), two-site exchange or
one-site reflection.  No exact code writes a factor as an operator.

A chain starts from a `Block`: dense columns of int numerators over one
positive den, reduced as an exact operator is; `Block.join` sets blocks
side by side, so one chain carries the columns of several starts.
`product` applies a chain to its start, the last operator first, each by
its `on_block`, and refuses any other start:

* A `Factor` is applied by one gather: index i with local code c gets
  own[c] w[i] + other[c] w[src i], where src swaps the two sites' digits or
  flips the bar, from its shape's table read at each index, cached per
  placement.  A factor reads no dict.
* Any other operator (a whole `LinOp`, or a `Placed` one on one or two
  sites) is applied to the columns entry by entry (`on_block`).
  `lincomb` sums blocks column by column.

`LinOp.compose` (or `@`) is the one product of two operators, a plain
sparse product of two whole operators.  Only `apply` calls it: no other
module composes, and an operator read on some columns only, such as a
left-action image on the orbit, keeps them by `restricted`.

Every operator is exact: it holds int numerators over one positive int
denominator, reduced so that the two share no factor, and no operation
takes a float or complex entry.  Equality of operators and of blocks is
therefore structural equality of numerators and denominator, and a
two-sided identity is decided by comparing its sides with `==`.  The
contour solver writes its few complex matrices in numpy instead, each
factor's from its shape's table.

Exact arithmetic never leaves the integers: a linear combination
(`lincomb`, and `+`, `-` and `scale` through it) meets over one lcm and
reduces once by the gcd, and `compose` and each application to a block
multiply numerators and denominators and reduce once.
Values are read as rationals only at the edges: `entry`, `to_dense` and
`apply`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import gcd, lcm
from operator import add, floordiv, itemgetter, mul

from .scalar_field import inv as _inv_scalar, rat


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

    `cols` is keyed by linear state index and stores int numerators over
    the positive int `den`, reduced so that gcd(den, every numerator) is 1;
    the zero operator has den 1.  No operation modifies an operator in
    place, so operators may be shared.
    """

    __slots__ = ("space", "cols", "den")

    def __init__(self, space: Space, cols=None):
        """cols may be keyed by linear index or by state tuple (converted
        here, once) and holds ints or rationals, cleared here once; zero
        entries and empty columns are dropped.  State keys are for
        operators written by hand in tests."""
        cols = {} if cols is None else cols
        nums, self.den = clear([v for col in cols.values() for v in col.values()])
        it = iter(nums)
        self.space = space

        def key(k):
            return k if type(k) is int else space.index(k)

        cols = [(c, {key(r): v for r in col if (v := next(it)) != 0}) for c, col in cols.items()]
        self.cols = {key(c): col for c, col in cols if col}

    @classmethod
    def of(cls, space: Space, cols, den=1) -> "LinOp":
        """Operator from entries already in canonical form, unchecked."""
        op = object.__new__(cls)
        op.space, op.cols, op.den = space, cols, den
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
        """self o other (apply other first), two whole operators: each entry
        of a column of other spreads over self's column at its row.
        Numerators and denominators multiply, and the product is reduced
        once."""
        if self.space != other.space:
            raise ValueError("space mismatch in compose")
        acols = self.cols
        out = {}
        for c, bcol in other.cols.items():
            acc = {}
            get = acc.get
            for k, bkc in bcol.items():
                acol = acols.get(k)
                if acol is not None:
                    for r, ark in acol.items():
                        acc[r] = get(r, 0) + ark * bkc
            if 0 in acc.values():
                acc = {r: w for r, w in acc.items() if w != 0}
            if acc:
                out[c] = acc
        return _built(self.space, out, self.den * other.den)

    def restricted(self, columns) -> "LinOp":
        """self composed with the projector onto the given columns: those
        columns kept, the rest dropped, and the result reduced."""
        return _built(self.space, {c: self.cols[c] for c in columns if c in self.cols}, self.den)

    def on_block(self, block: "Block") -> "Block":
        """self applied to every column of an exact block."""
        return _sparse_on_block(self, _whole(self.space), self.space, block)

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
        return cls(space, {j: {i: dense[i][j] for i in range(dim)} for j in range(dim)})


def _exact_lcm(dens):
    """lcm(*dens); as in `clear`, a float or complex scalar is refused."""
    try:
        return lcm(*dens)
    except AttributeError:
        raise TypeError("an operator takes exact scalars only") from None


def clear(values, over=1):
    """(numerators, den): exact scalars divided by `over` as ints over one
    positive den that shares no factor with them all.  A float or complex
    scalar has no numerator and is refused."""
    try:
        den = lcm(*(v.denominator for v in values))
        p, q = over.numerator, over.denominator
    except AttributeError:
        raise TypeError("an operator takes exact scalars only") from None
    nums = [v.numerator * (den // v.denominator) for v in values]
    if over == 1:
        return nums, den
    # Dividing by over = p/q multiplies the numerators by q and den by p.
    if p < 0:
        p, q = -p, -q
    nums, den = [q * v for v in nums], den * p
    g = gcd(den, *nums)
    return [v // g for v in nums], den // g


def lincomb(space: Space, terms) -> LinOp:
    """sum(coef * op) over (coef, op) pairs on `space`, in one pass: the
    terms meet over the lcm of every op.den * coef.denominator and the sum
    is reduced once.  No term's columns are modified or shared by the
    result.  Terms that are blocks are summed column by column
    (`_block_lincomb`)."""
    terms = list(terms)
    if terms and isinstance(terms[0][1], Block):
        return _block_lincomb(space, terms)
    if any(op.space != space for _, op in terms):
        raise ValueError("space mismatch in lincomb")
    # A zero term adds nothing, but its coefficient's denominator is read
    # all the same, so a float or complex zero is refused like any other.
    den = _exact_lcm(a.denominator * op.den if a != 0 else a.denominator for a, op in terms)
    live = [(a.numerator * (den // (op.den * a.denominator)), op.cols)
            for a, op in terms if a != 0]
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
    return _built(space, out, den)


def _built(space: Space, cols, den) -> LinOp:
    """Operator from int numerators over den > 0, divided by their gcd."""
    g = den
    for col in cols.values():
        if g == 1:
            break
        g = gcd(g, *col.values())
    if g != 1:
        cols = {c: {r: v // g for r, v in col.items()} for c, col in cols.items()}
    return LinOp.of(space, cols, den // g)


def product(ops):
    """ops[0] o ops[1] o ... o ops[-2] applied to the start ops[-1], a
    `Block`: the last operator first, each by its `on_block`.  Any other
    start is refused."""
    *rest, out = ops
    if not isinstance(out, Block):
        raise TypeError("a chain starts from a Block, not a %s" % type(out).__name__)
    for op in reversed(rest):
        if op.space != out.space:
            raise ValueError("space mismatch in product")
        out = op.on_block(out)
    return out


def _embedded(op: LinOp, strides, space: Space) -> LinOp:
    """op acting on the sites whose index strides are given, in slot order:
    each index's local code picks op's column, and its base index, the
    digits at every other site, is added to each row's offset."""
    shift, codes, bases, _ = _placement(strides, space)
    local = {c: [(shift[r], v) for r, v in col.items()] for c, col in op.cols.items()}
    cols = {}
    for c, (code, base) in enumerate(zip(codes, bases)):
        rows = local.get(code)
        if rows is not None:
            cols[c] = {base + dr: v for dr, v in rows}
    return LinOp.of(space, cols, op.den)


@cache
def _strides(sites: tuple, space: Space) -> tuple:
    """The index strides of distinct in-range sites, in slot order."""
    if len(set(sites)) != len(sites) or not all(1 <= j <= space.n for j in sites):
        raise ValueError("need distinct sites in range")
    return tuple(map(space.stride, sites))


def _whole(space: Space) -> tuple:
    """The strides of every site: an operator on the whole space placed on it."""
    return tuple(map(space.stride, range(1, space.n + 1)))


class Placed:
    """A one- or two-site operator `local` at given sites (slot order):
    `on_block` applies its entries to a block's columns at this placement,
    and `embedded` writes the whole operator on the space."""

    __slots__ = ("local", "strides", "space")

    def __init__(self, local: LinOp, sites: tuple, space: Space):
        sites = tuple(sites)
        if local.space.n != len(sites) or local.space.half_dim != space.half_dim:
            raise ValueError("need a %d-site operator over the same labels" % len(sites))
        self.local, self.strides, self.space = local, _strides(sites, space), space

    def embedded(self) -> LinOp:
        return _embedded(self.local, self.strides, self.space)

    def on_block(self, block: "Block") -> "Block":
        return _sparse_on_block(self.local, self.strides, self.space, block)


@cache
def factor_shape(sites: int, half: int) -> tuple:
    """(own, other, partner), the layout of the factor shape on one or two
    sites over `half` labels, by local code c: row c reads scalar slot
    own[c] at column c and slot other[c] at column partner[c], and slot -1
    reads zero.  An exchange factor's scalars are (diag, keep, swap): code
    a*d + b has partner b*d + a and reads diag when a == b, else keep, and
    swap at its partner.  A reflection factor's are (diag, down_1, up_1,
    ..., down_h, up_h): code a has partner abar, the bar flipped, and reads
    diag, and at its partner up_a if a is unbarred, down_a if barred.  The
    layout of both shapes is written here only.  Reads no point: cached."""
    d = 2 * half
    if sites == 2:
        codes = range(d * d)
        return (tuple(0 if c // d == c % d else 1 for c in codes),
                tuple(-1 if c // d == c % d else 2 for c in codes),
                tuple((c % d) * d + c // d for c in codes))
    return ((0,) * d,
            tuple(2 + 2 * c if c < half else 1 + 2 * (c - half) for c in range(d)),
            tuple((c + half) % d for c in range(d)))


class Factor:
    """A factor of the exchange shape on two sites or of the reflection
    shape on one, kept as one flat tuple of the scalars its shape reads
    (`factor_shape`), each divided by `over`, and placed at its sites.

    On a column w each index i, with local code c, is
        out[i] = own[c] w[i] + other[c] w[src[i]],
    where src[i] swaps the digits at the two sites (exchange) or flips the
    bar at the site (reflection): `on_block` applies the factor to a block
    by that one gather, reading its cleared scalars and a table cached per
    placement."""

    __slots__ = ("scalars", "over", "strides", "space")

    def __init__(self, scalars: tuple, over, sites: tuple, space: Space):
        """A factor from the flat scalars of its shape, unchecked."""
        self.scalars, self.over = scalars, over
        self.strides, self.space = _strides(tuple(sites), space), space

    @classmethod
    def exchange(cls, diag, keep, swap, sites: tuple, space: Space, over=1) -> "Factor":
        return cls((diag, keep, swap), over, sites, space)

    @classmethod
    def reflection(cls, diag, flips, site: int, space: Space, over=1) -> "Factor":
        """flips holds one (down, up) pair per label of the space."""
        if len(flips) != space.half_dim:
            raise ValueError("need one (down, up) pair per label")
        return cls((diag, *itertools.chain.from_iterable(flips)), over, (site,), space)

    def on_block(self, block: "Block") -> "Block":
        """The gather: per index two products of int numerators, over the
        block's den times the factor's, reduced once; slot -1 reads 0."""
        nums, den = clear(self.scalars, self.over)
        nums.append(0)
        own, other, src = _gather(self.strides, self.space)
        a, b = own(nums), other(nums)
        cols = [list(map(add, map(mul, a, w), map(mul, b, src(w)))) for w in block.cols]
        return _reduced(self.space, cols, block.den * den)


@cache
def _gather(strides: tuple, space: Space) -> tuple:
    """(own, other, src) of the gather at these strides, each an itemgetter
    over the indices: own(nums) and other(nums) list the scalar each index
    reads at itself and at its partner (`factor_shape`), and src(w) the
    entry of w at each index's partner.  Reads no point: cached."""
    shift, codes, bases, _ = _placement(strides, space)
    own, other, partner = factor_shape(len(strides), space.half_dim)
    return (itemgetter(*(own[c] for c in codes)), itemgetter(*(other[c] for c in codes)),
            itemgetter(*(base + shift[partner[c]] for c, base in zip(codes, bases))))


def _sparse_on_block(local: LinOp, strides: tuple, space: Space, block: "Block") -> "Block":
    """An operator, acting on the sites whose index strides are given,
    applied to each column of a block: at every origin (the digits
    at every other site) the column's entry at each local code spreads
    over local's column there, each index read as the origin plus a local
    code's shift (its own index on the whole space)."""
    shift, _, _, origins = _placement(strides, space)
    if strides == _whole(space):
        lcols = [(c, col.items()) for c, col in local.cols.items()]
    else:
        lcols = [(shift[c], [(shift[r], v) for r, v in col.items()])
                 for c, col in local.cols.items()]
    cols = []
    for w in block.cols:
        out = [0] * space.dim
        for base in origins:
            for dc, rows in lcols:
                wc = w[base + dc]
                if wc:
                    for dr, v in rows:
                        out[base + dr] += v * wc
        cols.append(out)
    return _reduced(space, cols, block.den * local.den)


def _offsets(strides, d: int) -> list:
    """Index offset of every digit tuple over the given strides, first
    stride most significant."""
    out = [0]
    for s in strides:
        out = [base + digit * s for base in out for digit in range(d)]
    return out


@cache
def _placement(strides: tuple, space: Space) -> tuple:
    """(shift, codes, bases, origins) at these strides: shift[code] is a
    local code's index offset; index i has local code codes[i] and base
    index bases[i], the offset of its digits at every other site; origins
    lists every base index once.  Reads no point: cached."""
    d = space.site_dim
    shift = _offsets(strides, d)
    origins = _offsets([t for t in _whole(space) if t not in strides], d)
    codes, bases = [0] * space.dim, [0] * space.dim
    for base in origins:
        for code, s in enumerate(shift):
            codes[base + s], bases[base + s] = code, base
    return tuple(shift), tuple(codes), tuple(bases), tuple(origins)


def site_tensor(op1: LinOp, op2: LinOp) -> LinOp:
    """Two-site operator op1 (x) op2 from two site operators, written
    directly: entry (a d + b, c d + e) is op1's (a, c) times op2's (b, e)."""
    d = op1.space.site_dim
    cols = {c * d + e: {a * d + b: u * v for a, u in col1.items() for b, v in col2.items()}
            for c, col1 in op1.cols.items() for e, col2 in op2.cols.items()}
    return _built(Space(2, op1.space.half_dim), cols, op1.den * op2.den)


class Block:
    """A dense block of exact columns, the start of a factor chain: `cols`
    holds each column as a list of `space.dim` int numerators over the one
    positive int `den`, reduced so that gcd(den, every numerator) is 1 (a
    zero block has den 1).  Column j of a block is column j of the operator
    it stands for; no operation modifies a block in place."""

    __slots__ = ("space", "cols", "den")

    def __init__(self, space: Space, cols, den=1):
        """A block from columns already in canonical form, unchecked."""
        self.space, self.cols, self.den = space, tuple(cols), den

    @classmethod
    def of(cls, space: Space, *columns) -> "Block":
        """The block of exact {index: value} columns, in order."""
        den = _exact_lcm(v.denominator for column in columns for v in column.values())
        cols = []
        for column in columns:
            col = [0] * space.dim
            for i, v in column.items():
                col[i] = v.numerator * (den // v.denominator)
            cols.append(col)
        return _reduced(space, cols, den)

    @classmethod
    def identity(cls, space: Space) -> "Block":
        dim = space.dim
        return cls(space, ([int(i == j) for i in range(dim)] for j in range(dim)))

    @classmethod
    def join(cls, blocks) -> "Block":
        """The blocks of one space side by side, in order, over the lcm of
        their dens: reduced, as a block whose den holds a prime's full power
        has a numerator the prime does not divide."""
        space, den = blocks[0].space, lcm(*(b.den for b in blocks))
        if any(b.space != space for b in blocks):
            raise ValueError("space mismatch in join")
        return cls(space, [col if b.den == den
                           else list(map(mul, itertools.repeat(den // b.den), col))
                           for b in blocks for col in b.cols], den)

    def is_zero(self) -> bool:
        return not any(map(any, self.cols))

    def __eq__(self, other):
        return (
            isinstance(other, Block)
            and self.space == other.space
            and self.den == other.den
            and self.cols == other.cols
        )

    def __repr__(self):
        return "Block(dim=%d, width=%d)" % (self.space.dim, len(self.cols))

    def __sub__(self, other):
        return _block_lincomb(self.space, ((1, self), (-1, other)))

    def scale(self, a) -> "Block":
        return _block_lincomb(self.space, ((a, self),))

    def take(self, columns) -> "Block":
        """The block of the given columns, in that order."""
        return _reduced(self.space, [self.cols[j] for j in columns], self.den)

    def linop(self) -> LinOp:
        """The operator whose column j is the block's column j."""
        cols = {j: {i: v for i, v in enumerate(col) if v} for j, col in enumerate(self.cols)}
        return LinOp.of(self.space, {j: col for j, col in cols.items() if col}, self.den)


def _block_lincomb(space: Space, terms) -> Block:
    """sum(coef * block) over (coef, block) pairs of one width on `space`,
    with exact coefficients: the blocks meet over the lcm of every
    block.den * coef.denominator and the sum is reduced once."""
    width = len(terms[0][1].cols)
    if any(b.space != space or len(b.cols) != width for _, b in terms):
        raise ValueError("shape mismatch in lincomb")
    den = _exact_lcm(b.den * a.denominator for a, b in terms)
    cols = None
    for a, b in terms:
        f = a.numerator * (den // (b.den * a.denominator))
        scaled = b.cols if f == 1 else [list(map(mul, itertools.repeat(f), col)) for col in b.cols]
        cols = scaled if cols is None else [list(map(add, x, y)) for x, y in zip(cols, scaled)]
    return _reduced(space, cols, den)


def _reduced(space: Space, cols, den) -> Block:
    """Block from int numerator columns over den > 0, divided by their gcd."""
    g = den
    for col in cols:
        if g == 1:
            break
        g = gcd(g, *col)
    if g != 1:
        cols = [list(map(floordiv, col, itertools.repeat(g))) for col in cols]
    return Block(space, cols, den // g)


class PoleSingular(ZeroDivisionError):
    """Attempted to invert a singular operator."""


def invert(op: LinOp) -> LinOp:
    """Inverse by Gauss-Jordan elimination over the rationals, each pivot
    the first nonzero entry of its column."""
    space = op.space
    dim = space.dim
    a = op.to_dense()
    inv = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for col in range(dim):
        piv_row = next((r for r in range(col, dim) if a[r][col] != 0), None)
        if piv_row is None:
            raise PoleSingular("operator is singular at column %d" % col)
        if piv_row != col:
            a[piv_row], a[col] = a[col], a[piv_row]
            inv[piv_row], inv[col] = inv[col], inv[piv_row]
        rp = _inv_scalar(a[col][col])
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
