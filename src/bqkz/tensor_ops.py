"""Sparse linear algebra on tensor powers of a 2N-dimensional site space.

The site space V has basis v_1, ..., v_N, v_1bar, ..., v_Nbar.  A label is a
pair (index, barred); its integer code is index-1 for unbarred and
N+index-1 for barred, so codes run 0..2N-1.  A basis state of V^(x)n is the
tuple of its site codes, site 1 first; the linear index of a state makes
site 1 most significant.

Operators are stored column-major as {col_state: {row_state: scalar}} with
no explicitly stored zeros, generic over the scalar domain (exact rationals
or complex floats; see fields).  Equality of operators over the rational
domain is therefore structural equality of the maps.

`LinOp.compose` is the raw multiply kernel: it multiplies whatever scalars
it is given.  Exact products go through `@` or `product`, which clear each
operand's denominators once, multiply integer matrices with `compose`, and
divide by the product of the clearing factors once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

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
        d = self.site_dim
        state = [0] * self.n
        while True:
            yield tuple(state)
            j = self.n - 1
            while j >= 0:
                state[j] += 1
                if state[j] < d:
                    break
                state[j] = 0
                j -= 1
            if j < 0:
                return

    def index_of(self, state) -> int:
        d = self.site_dim
        idx = 0
        for c in state:
            idx = idx * d + c
        return idx


@dataclass(frozen=True)
class BasisLabel:
    """Site-space basis label: v_index or v_indexbar."""

    index: int
    barred: bool = False

    def code(self, half_dim: int) -> int:
        if not 1 <= self.index <= half_dim:
            raise ValueError("label index out of range")
        return self.index - 1 + (half_dim if self.barred else 0)


def label_of_code(code: int, half_dim: int) -> BasisLabel:
    if not 0 <= code < 2 * half_dim:
        raise ValueError("code out of range")
    if code < half_dim:
        return BasisLabel(code + 1, False)
    return BasisLabel(code - half_dim + 1, True)


def bar_code(code: int, half_dim: int) -> int:
    """Code of the bar-conjugate label."""
    return code - half_dim if code >= half_dim else code + half_dim


class Vec:
    """Sparse vector over a Space; entries maps state -> scalar, zero-free."""

    __slots__ = ("space", "entries")

    def __init__(self, space: Space, entries=None):
        self.space = space
        self.entries = entries if entries is not None else {}

    @classmethod
    def basis(cls, space: Space, state, coeff=1):
        return cls(space, {tuple(state): coeff})

    def add(self, other: "Vec") -> "Vec":
        out = dict(self.entries)
        for s, v in other.entries.items():
            w = out.get(s)
            w = v if w is None else w + v
            if w == 0:
                out.pop(s, None)
            else:
                out[s] = w
        return Vec(self.space, out)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def scale(self, a) -> "Vec":
        if a == 0:
            return Vec(self.space, {})
        return Vec(self.space, {s: a * v for s, v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def norm_max(self) -> float:
        return max((abs(complex(v)) for v in self.entries.values()), default=0.0)

    def __eq__(self, other):
        return isinstance(other, Vec) and self.space == other.space and self.entries == other.entries

    def __repr__(self):
        return "Vec(%d entries)" % len(self.entries)


class LinOp:
    """Sparse operator on a Space, column-major, no stored zeros."""

    __slots__ = ("space", "cols")

    def __init__(self, space: Space, cols=None):
        self.space = space
        self.cols = cols if cols is not None else {}

    @classmethod
    def zero(cls, space: Space) -> "LinOp":
        return cls(space, {})

    @classmethod
    def identity(cls, space: Space, one=1) -> "LinOp":
        return cls(space, {s: {s: one} for s in space.states()})

    def entry(self, row, col):
        return self.cols.get(tuple(col), {}).get(tuple(row), 0)

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other):
        return (
            isinstance(other, LinOp)
            and self.space == other.space
            and self.cols == other.cols
        )

    def __repr__(self):
        return "LinOp(dim=%d, nnz=%d)" % (self.space.dim, self.nnz())

    def apply(self, vec: Vec) -> Vec:
        out = {}
        for c, v in vec.entries.items():
            col = self.cols.get(c)
            if col is None:
                continue
            for r, a in col.items():
                w = out.get(r)
                w = a * v if w is None else w + a * v
                out[r] = w
        return Vec(vec.space, {r: w for r, w in out.items() if w != 0})

    def compose(self, other: "LinOp") -> "LinOp":
        """self o other (apply other first), entry by entry in the given
        scalars; exact callers use `@` or `product` instead."""
        if self.space != other.space:
            raise ValueError("space mismatch in compose")
        out = {}
        mycols = self.cols
        for c, bcol in other.cols.items():
            acc = {}
            for k, bkc in bcol.items():
                acol = mycols.get(k)
                if acol is None:
                    continue
                for r, ark in acol.items():
                    w = acc.get(r)
                    w = ark * bkc if w is None else w + ark * bkc
                    acc[r] = w
            acc = {r: w for r, w in acc.items() if w != 0}
            if acc:
                out[c] = acc
        return LinOp(self.space, out)

    def __matmul__(self, other):
        return product((self, other))

    def add(self, other: "LinOp") -> "LinOp":
        if self.space != other.space:
            raise ValueError("space mismatch in add")
        out = {c: dict(col) for c, col in self.cols.items()}
        for c, col in other.cols.items():
            dst = out.setdefault(c, {})
            for r, v in col.items():
                w = dst.get(r)
                w = v if w is None else w + v
                if w == 0:
                    dst.pop(r, None)
                else:
                    dst[r] = w
            if not dst:
                del out[c]
        return LinOp(self.space, out)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(-other)

    def scale(self, a) -> "LinOp":
        if a == 0:
            return LinOp.zero(self.space)
        return LinOp(
            self.space,
            {c: {r: a * v for r, v in col.items()} for c, col in self.cols.items()},
        )

    def __neg__(self):
        return LinOp(
            self.space, {c: {r: -v for r, v in col.items()} for c, col in self.cols.items()}
        )

    def max_abs(self) -> float:
        m = 0.0
        for col in self.cols.values():
            for v in col.values():
                a = abs(complex(v))
                if a > m:
                    m = a
        return m

    def to_dense(self):
        """Nested row-major list of scalars (ints where unset)."""
        space = self.space
        idx = {s: i for i, s in enumerate(space.states())}
        dense = [[0] * space.dim for _ in range(space.dim)]
        for c, col in self.cols.items():
            jc = idx[c]
            for r, v in col.items():
                dense[idx[r]][jc] = v
        return dense

    @classmethod
    def from_dense(cls, space: Space, dense) -> "LinOp":
        states = list(space.states())
        cols = {}
        for j, cs in enumerate(states):
            col = {}
            for i, rs in enumerate(states):
                v = dense[i][j]
                if v != 0:
                    col[rs] = v
            if col:
                cols[cs] = col
        return cls(space, cols)


def _exact(op: LinOp) -> bool:
    """Whether op lives in the exact domain (judged by one stored entry; a
    zero operator counts as exact)."""
    sample = next((v for col in op.cols.values() for v in col.values()), None)
    return sample is None or is_exact(sample)


def product(ops) -> LinOp:
    """ops[0] o ops[1] o ... o ops[-1], the last operator applied first.

    When every operand is exact, each is cleared of its denominators once,
    the integer matrices are multiplied by `compose`, and the result is
    divided by the product of the clearing factors at the end.  With any
    floating-point operand the operands are folded by `compose` as given.
    """
    ops = list(ops)
    scale = 1
    if all(_exact(op) for op in ops):
        cleared = []
        for op in ops:
            den = lcm(*(v.denominator for col in op.cols.values() for v in col.values()))
            scale *= den
            cleared.append(LinOp(op.space, {
                c: {r: v.numerator * (den // v.denominator) for r, v in col.items()}
                for c, col in op.cols.items()
            }))
        ops = cleared
    out = ops[-1]
    for op in reversed(ops[:-1]):
        out = op.compose(out)
    if scale == 1:
        return out
    return LinOp(
        out.space, {c: {r: rat(v, scale) for r, v in col.items()} for c, col in out.cols.items()}
    )


def commutator(a: LinOp, b: LinOp) -> LinOp:
    return a @ b - b @ a


def matrix_unit(half_dim: int, row: BasisLabel, col: BasisLabel) -> LinOp:
    """Site operator e_{row,col}: sends v_col to v_row, kills the rest."""
    sp = Space(1, half_dim)
    return LinOp(sp, {(col.code(half_dim),): {(row.code(half_dim),): 1}})


def embed_site(op: LinOp, j: int, space: Space) -> LinOp:
    """Embed a site operator at site j (1-based) of the tensor power."""
    if op.space.n != 1 or op.space.half_dim != space.half_dim:
        raise ValueError("embed_site wants a site operator over the same labels")
    if not 1 <= j <= space.n:
        raise ValueError("site index out of range")
    pos = j - 1
    cols = {}
    for state in space.states():
        col = op.cols.get((state[pos],))
        if col is None:
            continue
        dst = {}
        for (rcode,), v in col.items():
            rstate = state[:pos] + (rcode,) + state[pos + 1 :]
            dst[rstate] = v
        cols[state] = dst
    return LinOp(space, cols)


def embed_pair(op: LinOp, i: int, j: int, space: Space) -> LinOp:
    """Embed a two-site operator with its first slot at site i, second at site j."""
    if op.space.n != 2 or op.space.half_dim != space.half_dim:
        raise ValueError("embed_pair wants a two-site operator over the same labels")
    if i == j or not (1 <= i <= space.n and 1 <= j <= space.n):
        raise ValueError("need two distinct sites in range")
    pi, pj = i - 1, j - 1
    cols = {}
    for state in space.states():
        col = op.cols.get((state[pi], state[pj]))
        if col is None:
            continue
        dst = {}
        for (ra, rb), v in col.items():
            rstate = list(state)
            rstate[pi] = ra
            rstate[pj] = rb
            dst[tuple(rstate)] = v
        cols[state] = dst
    return LinOp(space, cols)


def site_tensor(op1: LinOp, op2: LinOp) -> LinOp:
    """Two-site operator op1 (x) op2 from two site operators."""
    if op1.space.n != 1 or op2.space.n != 1 or op1.space.half_dim != op2.space.half_dim:
        raise ValueError("site_tensor wants two site operators over the same labels")
    sp = Space(2, op1.space.half_dim)
    cols = {}
    for (c1,), col1 in op1.cols.items():
        for (c2,), col2 in op2.cols.items():
            dst = {}
            for (r1,), v1 in col1.items():
                for (r2,), v2 in col2.items():
                    dst[(r1, r2)] = v1 * v2
            cols[(c1, c2)] = dst
    return LinOp(sp, cols)


def vec_tensor(a: Vec, b: Vec) -> Vec:
    sp = Space(a.space.n + b.space.n, a.space.half_dim)
    ent = {}
    for sa, va in a.entries.items():
        for sb, vb in b.entries.items():
            ent[sa + sb] = va * vb
    return Vec(sp, ent)


def permute_sites(vec: Vec, i: int, j: int) -> Vec:
    """Swap tensor slots i and j (1-based) of a vector."""
    pi, pj = i - 1, j - 1
    out = {}
    for s, v in vec.entries.items():
        t = list(s)
        t[pi], t[pj] = t[pj], t[pi]
        out[tuple(t)] = v
    return Vec(vec.space, out)


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
    exact = _exact(op)
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
