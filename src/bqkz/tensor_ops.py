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

A chain starts from a `Block`: dense columns of canonical residues;
`Block.join` sets blocks side by side, so one chain carries the columns
of several starts.
`product` applies a chain to its start, the last operator first, each by
its `on_block`, and refuses any other start:

* A `Factor` is applied by one gather: index i with local code c gets
  own[c] w[i] + other[c] w[src i] mod P, where src swaps the two sites'
  digits or flips the bar, from its shape's table read at each index,
  cached per placement.  A factor reads no dict.
* Any other operator (a whole `LinOp`, or a `Placed` one on one or two
  sites) is applied to the columns entry by entry (`on_block`).
  `lincomb` sums blocks column by column.

`LinOp.compose` (or `@`) is the one product of two operators, a plain
sparse product of two whole operators.  Only `apply` calls it: no other
module composes, and an operator read on some columns only, such as a
left-action image on the orbit, keeps them by `restricted`.

Every operator is exact over F_p (`scalar_field.P`): it holds canonical
ints in [0, P) with no stored zero, and no operation takes a float or
complex entry.  Equality of operators and of blocks is therefore
structural equality of their entries, and a two-sided identity is
decided by comparing its sides with `==`.  A linear combination
(`lincomb`, and `+`, `-` and `scale` through it), `compose` and each
application to a block sum int products and reduce each entry once with
`%`.  The contour solver writes its few complex matrices in numpy
instead, each factor's from its shape's table, and reads a fixed integer
operator by the balanced lift of its entries (`scalar_field.lift`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from operator import add, itemgetter, mod, mul

from .scalar_field import P, inv, residue


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

    `cols` is keyed by linear state index and stores canonical residues in
    [0, P).  No operation modifies an operator in place, so operators may
    be shared.
    """

    __slots__ = ("space", "cols")

    def __init__(self, space: Space, cols=None):
        """cols may be keyed by linear index or by state tuple (converted
        here, once) and holds exact scalars, reduced here once; zero
        entries and empty columns are dropped.  State keys are for
        operators written by hand in tests."""
        self.space = space

        def key(k):
            return k if type(k) is int else space.index(k)

        cols = ((key(c), {key(r): w for r, v in col.items() if (w := residue(v))})
                for c, col in ({} if cols is None else cols).items())
        self.cols = {c: col for c, col in cols if col}

    @classmethod
    def of(cls, space: Space, cols) -> "LinOp":
        """Operator from entries already in canonical form, unchecked."""
        op = object.__new__(cls)
        op.space, op.cols = space, cols
        return op

    @classmethod
    def zero(cls, space: Space) -> "LinOp":
        return cls.of(space, {})

    @classmethod
    def identity(cls, space: Space) -> "LinOp":
        return cls.of(space, {i: {i: 1} for i in range(space.dim)})

    def entry(self, row, col) -> int:
        """Residue at a (row state, col state) pair."""
        index = self.space.index
        return self.cols.get(index(col), {}).get(index(row), 0)

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other):
        return isinstance(other, LinOp) and self.space == other.space and self.cols == other.cols

    def __repr__(self):
        return "LinOp(dim=%d, nnz=%d)" % (self.space.dim, self.nnz())

    def apply(self, column: dict) -> dict:
        """The image of an {index: value} column, zero-free: self composed
        with the one-column operator that holds it."""
        return self.compose(LinOp(self.space, {0: column})).cols.get(0, {})

    def compose(self, other: "LinOp") -> "LinOp":
        """self o other (apply other first), two whole operators: each entry
        of a column of other spreads over self's column at its row, and
        each entry of the product is reduced once."""
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
            out[c] = acc
        return _built(self.space, out)

    def restricted(self, columns) -> "LinOp":
        """self composed with the projector onto the given columns: those
        columns kept and the rest dropped."""
        return LinOp.of(self.space, {c: self.cols[c] for c in columns if c in self.cols})

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
        """Nested row-major list of residues."""
        dim = self.space.dim
        dense = [[0] * dim for _ in range(dim)]
        for c, col in self.cols.items():
            for r, v in col.items():
                dense[r][c] = v
        return dense

    @classmethod
    def from_dense(cls, space: Space, dense) -> "LinOp":
        dim = space.dim
        return cls(space, {j: {i: dense[i][j] for i in range(dim)} for j in range(dim)})


def _built(space: Space, cols) -> LinOp:
    """Operator from int columns, each entry reduced mod P once, zeros and
    empty columns dropped."""
    out = {}
    for c, col in cols.items():
        col = {r: w for r, v in col.items() if (w := v % P)}
        if col:
            out[c] = col
    return LinOp.of(space, out)


def lincomb(space: Space, terms) -> LinOp:
    """sum(coef * op) over (coef, op) pairs on `space`, in one pass, each
    entry of the sum reduced once.  No term's columns are modified or
    shared by the result.  Terms that are blocks are summed column by
    column (`_block_lincomb`)."""
    terms = list(terms)
    if terms and isinstance(terms[0][1], Block):
        return _block_lincomb(space, terms)
    if any(op.space != space for _, op in terms):
        raise ValueError("space mismatch in lincomb")
    # A zero term adds nothing, but its coefficient is read all the same,
    # so a float or complex zero is refused like any other.
    live = [(f, op.cols) for f, op in ((residue(a), op) for a, op in terms) if f]
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
    return _built(space, out)


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
    return LinOp.of(space, cols)


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
    by that one gather, reading its scalars as residues and a table cached
    per placement."""

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
        """The gather: per index two products of residues, summed and
        reduced once; slot -1 reads 0.  A divisor that is 0 mod P is a
        pole."""
        scale = residue(inv(self.over))
        nums = [residue(v) * scale % P for v in self.scalars]
        nums.append(0)
        own, other, src = _gather(self.strides, self.space)
        a, b = own(nums), other(nums)
        return _reduced(self.space, (map(add, map(mul, a, w), map(mul, b, src(w)))
                                     for w in block.cols))


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
    return _reduced(space, cols)


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
    directly: entry (a d + b, c d + e) is op1's (a, c) times op2's (b, e),
    nonzero as P is prime."""
    d = op1.space.site_dim
    cols = {c * d + e: {a * d + b: u * v % P for a, u in col1.items() for b, v in col2.items()}
            for c, col1 in op1.cols.items() for e, col2 in op2.cols.items()}
    return LinOp.of(Space(2, op1.space.half_dim), cols)


class Block:
    """A dense block of exact columns, the start of a factor chain: `cols`
    holds each column as a list of `space.dim` canonical residues.  Column
    j of a block is column j of the operator it stands for; no operation
    modifies a block in place."""

    __slots__ = ("space", "cols")

    def __init__(self, space: Space, cols):
        """A block from columns already in canonical form, unchecked."""
        self.space, self.cols = space, tuple(cols)

    @classmethod
    def of(cls, space: Space, *columns) -> "Block":
        """The block of exact {index: value} columns, in order."""
        cols = []
        for column in columns:
            col = [0] * space.dim
            for i, v in column.items():
                col[i] = residue(v)
            cols.append(col)
        return cls(space, cols)

    @classmethod
    def identity(cls, space: Space) -> "Block":
        dim = space.dim
        return cls(space, ([int(i == j) for i in range(dim)] for j in range(dim)))

    @classmethod
    def join(cls, blocks) -> "Block":
        """The blocks of one space side by side, in order."""
        space = blocks[0].space
        if any(b.space != space for b in blocks):
            raise ValueError("space mismatch in join")
        return cls(space, [col for b in blocks for col in b.cols])

    def is_zero(self) -> bool:
        return not any(map(any, self.cols))

    def __eq__(self, other):
        return isinstance(other, Block) and self.space == other.space and self.cols == other.cols

    def __repr__(self):
        return "Block(dim=%d, width=%d)" % (self.space.dim, len(self.cols))

    def __sub__(self, other):
        return _block_lincomb(self.space, ((1, self), (-1, other)))

    def scale(self, a) -> "Block":
        return _block_lincomb(self.space, ((a, self),))

    def take(self, columns) -> "Block":
        """The block of the given columns, in that order."""
        return Block(self.space, [self.cols[j] for j in columns])

    def linop(self) -> LinOp:
        """The operator whose column j is the block's column j."""
        cols = {j: {i: v for i, v in enumerate(col) if v} for j, col in enumerate(self.cols)}
        return LinOp.of(self.space, {j: col for j, col in cols.items() if col})


def _block_lincomb(space: Space, terms) -> Block:
    """sum(coef * block) over (coef, block) pairs of one width on `space`,
    with exact coefficients, each entry of the sum reduced once."""
    width = len(terms[0][1].cols)
    if any(b.space != space or len(b.cols) != width for _, b in terms):
        raise ValueError("shape mismatch in lincomb")
    cols = None
    for a, b in terms:
        f = residue(a)
        scaled = b.cols if f == 1 else [list(map(mul, itertools.repeat(f), col)) for col in b.cols]
        cols = scaled if cols is None else [list(map(add, x, y)) for x, y in zip(cols, scaled)]
    return _reduced(space, cols)


def _reduced(space: Space, cols) -> Block:
    """Block from int columns, each entry reduced mod P once."""
    return Block(space, [list(map(mod, col, itertools.repeat(P))) for col in cols])


class PoleSingular(ZeroDivisionError):
    """Attempted to invert a singular operator."""


def invert(op: LinOp) -> LinOp:
    """Inverse by Gauss-Jordan elimination over F_p, each pivot the first
    nonzero entry of its column."""
    space = op.space
    dim = space.dim
    a = op.to_dense()
    out = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for col in range(dim):
        piv_row = next((r for r in range(col, dim) if a[r][col] != 0), None)
        if piv_row is None:
            raise PoleSingular("operator is singular at column %d" % col)
        if piv_row != col:
            a[piv_row], a[col] = a[col], a[piv_row]
            out[piv_row], out[col] = out[col], out[piv_row]
        rp = pow(a[col][col], -1, P)
        a[col] = [v * rp % P for v in a[col]]
        out[col] = [v * rp % P for v in out[col]]
        for r in range(dim):
            f = a[r][col]
            if r == col or f == 0:
                continue
            a[r] = [(x - f * y) % P for x, y in zip(a[r], a[col])]
            out[r] = [(x - f * y) % P for x, y in zip(out[r], out[col])]
    return LinOp.from_dense(space, out)
