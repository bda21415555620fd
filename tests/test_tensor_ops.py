"""Sparse tensor-space linear algebra against dense oracles.

The oracles compute over the rationals with `Fraction` and reduce their
result mod P by their own map (`_oracles.mod_p`), so they share no
arithmetic with the F_p code they check.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from _oracles import _factor_cols, mod_p
from bqkz.hecke_module import orbit_states
import bqkz.tensor_ops as tensor_ops
from bqkz.scalar_field import P, Residue, lift, rat
from bqkz.tensor_ops import (
    Block,
    Factor,
    FixedSum,
    LinOp,
    Placed,
    PoleSingular,
    Space,
    fixed_sum,
    invert,
    lincomb,
    product,
    site_tensor,
)

rng = random.Random(20260818)

# The property tests below are derandomized and run without shrinking: a
# broken kernel fails every example at once, so shrinking one placement
# after another would only delay the report.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def reduced(dense):
    """A dense Fraction matrix reduced mod P entry by entry."""
    return [[mod_p(v) for v in row] for row in dense]


def rand_frac(r):
    return Fraction(r.randint(-9, 9), r.randint(1, 5))


def rand_dense(space, r, fill=0.3):
    """A dense Fraction matrix with about `fill` of its entries drawn."""
    return [[rand_frac(r) if r.random() < fill else Fraction(0) for _ in range(space.dim)]
            for _ in range(space.dim)]


def rand_op(space, r, fill=0.3):
    return LinOp.from_dense(space, rand_dense(space, r, fill))


def dense_mul(a, b):
    """Product of row-major nested lists: each nonzero b[t][j] adds its
    multiple of column t of a to column j, in increasing t."""
    a_cols = [[(i, v) for i, v in enumerate(col) if v != 0] for col in zip(*a)]
    out = [[0] * len(b[0]) for _ in a]
    for j, col in enumerate(zip(*b)):
        for t, w in enumerate(col):
            if w != 0:
                for i, v in a_cols[t]:
                    out[i][j] += v * w
    return out


def test_space_dimensions():
    sp = Space(3, 2)
    assert sp.site_dim == 4
    assert sp.dim == 64
    states = list(sp.states())
    assert len(states) == 64
    assert len(set(states)) == 64
    assert states == sorted(states)


def test_compose_matches_dense_oracle():
    """With a whole and with a one-column right operand."""
    sp = Space(2, 1)
    for trial in range(8):
        da, db = rand_dense(sp, rng), rand_dense(sp, rng)
        got = (LinOp.from_dense(sp, da) @ LinOp.from_dense(sp, db)).to_dense()
        assert got == reduced(dense_mul(da, db)), trial
    for sp in (Space(2, 2), Space(3, 2)):
        da, db = rand_dense(sp, rng, fill=0.1), rand_dense(sp, rng, fill=0.2)
        column = [row[9] for row in db] if any(row[9] for row in db) else [Fraction(3, 7)]
        dense_one = [[column[i] if j == 5 and i < len(column) else 0 for j in range(sp.dim)]
                     for i in range(sp.dim)]
        a = LinOp.from_dense(sp, da)
        for right in (db, dense_one):
            got = (a @ LinOp.from_dense(sp, right)).to_dense()
            assert got == reduced(dense_mul(da, right)), sp


def test_restricted_equals_composing_with_the_column_projector():
    """Keeping some columns is composing with the projector onto them, in
    canonical form, and keeping none gives the zero operator."""
    sp = Space(2, 2)

    def projector(cols):
        return LinOp.of(sp, {c: {c: 1} for c in cols})

    for trial in range(6):
        op = rand_op(sp, rng, fill=0.1)
        cols = rng.sample(range(sp.dim), rng.randint(0, sp.dim))
        assert op.restricted(cols) == op @ projector(cols), trial
    halves = LinOp(sp, {0: {0: rat(1, 2)}, 1: {1: rat(1, 3)}})
    assert halves.restricted([1]).cols == {1: {1: mod_p(Fraction(1, 3))}}
    assert halves.restricted([1]) == halves @ projector([1])
    assert halves.restricted([]) == LinOp.zero(sp)


def dense_product(dense):
    out = dense[-1]
    for d in reversed(dense[:-1]):
        out = dense_mul(d, out)
    return out


def test_product_matches_dense_oracle():
    """product is exact: one, two and four operands applied to the identity
    block, rational, integer-only and mixed, with and without a zero
    operator.  A product of small integer operators has entries far inside
    (-P/2, P/2), so the balanced lift of its residues is the integer
    product itself."""
    sp = Space(2, 1)
    ident = Block.identity(sp)
    zero = [[Fraction(0)] * sp.dim for _ in range(sp.dim)]
    for trial in range(6):
        rats = [rand_dense(sp, rng) for _ in range(4)]
        ints = [[[v.numerator for v in row] for row in rand_dense(sp, rng, fill=0.6)]
                for _ in range(4)]
        mixed = [rats[0], ints[1], rats[2], ints[3]]
        with_zero = [rats[0], zero, rats[2], rats[3]]
        for dense in (rats[:1], rats[:2], rats, ints[:1], ints[:2], ints, mixed, with_zero):
            got = product([LinOp.from_dense(sp, d) for d in dense] + [ident])
            assert got.linop().to_dense() == reduced(dense_product(dense)), trial
            assert got.linop() == LinOp.from_dense(sp, dense_product(dense))
        assert product([LinOp.from_dense(sp, d) for d in with_zero] + [ident]).is_zero()
        got = product([LinOp.from_dense(sp, d) for d in ints] + [ident]).linop().to_dense()
        assert [[lift(v) for v in row] for row in got] == dense_product(ints)


def test_product_refuses_a_start_that_is_not_a_block():
    """A chain starts from a Block: an operator or a placed factor as the
    start is refused with a TypeError naming its type, before any operator
    is applied."""
    sp = Space(2, 1)
    for start in (LinOp.identity(sp), Factor.exchange(1, 0, 1, (1, 2), sp),
                  Placed(LinOp.identity(Space(1, 1)), (1,), sp)):
        with pytest.raises(TypeError, match=type(start).__name__):
            product([LinOp.identity(sp), start])
        with pytest.raises(TypeError, match=type(start).__name__):
            product([start])


def test_apply_matches_dense():
    sp = Space(2, 1)
    dense = rand_dense(sp, rng)
    vec = {i: rand_frac(rng) for i in range(sp.dim) if rng.random() < 0.5}
    out = LinOp.from_dense(sp, dense).apply(vec)
    col = [vec.get(j, 0) for j in range(sp.dim)]
    want = [sum(dense[i][j] * col[j] for j in range(sp.dim)) for i in range(sp.dim)]
    assert 0 not in out.values()
    for i in range(sp.dim):
        assert out.get(i, 0) == mod_p(want[i])


def test_from_dense_roundtrip():
    sp = Space(1, 2)
    op = rand_op(sp, rng)
    assert LinOp.from_dense(sp, op.to_dense()) == op


def test_algebra_ops():
    sp = Space(1, 2)
    a = rand_op(sp, rng)
    b = rand_op(sp, rng)
    ident = LinOp.identity(sp)
    assert a + b == b + a
    assert (a - a).is_zero()
    assert (-a) + a == LinOp.zero(sp)
    assert a @ ident == a
    assert ident @ a == a
    assert (a @ a - a @ a).is_zero()
    assert a.scale(0).is_zero()


def test_no_stored_zeros():
    sp = Space(1, 1)
    a = LinOp(sp, {(1,): {(0,): 1}})
    b = a.scale(rat(1, 3)) - a.scale(rat(1, 3))
    assert b.is_zero()
    assert b.nnz() == 0


def test_an_operator_refuses_a_float_or_complex_scalar():
    """Every operator is exact: a float or complex entry, a factor's
    scalar or divisor as it is applied to a block, a linear combination's
    coefficient, a scale or a block's entry raises TypeError instead of
    being rounded in, a float or complex zero too."""
    sp = Space(2, 1)
    site = Space(1, 1)
    for build in (lambda: LinOp(sp, {0: {0: 0.5}}),
                  lambda: LinOp(sp, {(0, 1): {(1, 0): rat(1, 2), (0, 0): 1j}}),
                  lambda: Factor.exchange(0.5, 0, 1, (1, 2), sp).on_block(Block.identity(sp)),
                  lambda: Factor.reflection(1, [(1 + 2j, 2)], 1, site).on_block(
                      Block.identity(site)),
                  lambda: Factor.reflection(1, [(1, 2)], 1, site, over=1.5).on_block(
                      Block.identity(site)),
                  lambda: product([Factor.exchange(1, 0.25, 1, (1, 2), sp), Block.identity(sp)]),
                  lambda: lincomb(Space(1, 1), [(0.5, LinOp.identity(Space(1, 1)))]),
                  lambda: lincomb(Space(1, 1), [(0.0, LinOp.identity(Space(1, 1)))]),
                  lambda: LinOp.identity(sp).scale(0.5),
                  lambda: LinOp.identity(Space(1, 1)).scale(0.0),
                  lambda: Block.identity(sp).scale(0.5),
                  lambda: Block.of(sp, {0: 0.5})):
        with pytest.raises(TypeError):
            build()


def test_embed_pair_equals_embedded_product():
    sp = Space(3, 1)
    a = rand_op(Space(1, 1), rng)
    b = rand_op(Space(1, 1), rng)
    two = site_tensor(a, b)
    for i, j in ((1, 2), (1, 3), (2, 3), (3, 1)):
        lhs = Placed(two, (i, j), sp).embedded()
        rhs = Placed(a, (i,), sp).embedded() @ Placed(b, (j,), sp).embedded()
        assert lhs == rhs, (i, j)


# Every one- and two-site placement at n <= 3 and half <= 3.
PLACEMENTS = [
    (n, half, sites)
    for n in (1, 2, 3)
    for half in (1, 2, 3)
    for sites in [(j,) for j in range(1, n + 1)]
    + [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
]
ENTRIES = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def _random_entries(data, space) -> dict:
    """Drawn {(col, row): Fraction} entries on a space, zeros among them."""
    return data.draw(st.dictionaries(
        st.tuples(st.integers(0, space.dim - 1), st.integers(0, space.dim - 1)),
        ENTRIES, max_size=12))


def _random_op(data, space):
    """A sparse exact operator with drawn entries, zeros among them."""
    cols = {}
    for (c, r), v in _random_entries(data, space).items():
        cols.setdefault(c, {})[r] = v
    return LinOp(space, cols)


def _random_dense(data, space):
    """A dense Fraction matrix with drawn entries, zeros among them."""
    dense = [[Fraction(0)] * space.dim for _ in range(space.dim)]
    for (c, r), v in _random_entries(data, space).items():
        dense[r][c] = v
    return dense


@pytest.mark.parametrize("n,half,sites", PLACEMENTS, ids=[
    "n%d-half%d-at%s" % (n, half, "".join(map(str, sites))) for n, half, sites in PLACEMENTS])
@settings(max_examples=6, derandomize=True, database=None, deadline=None,
          phases=NO_SHRINK)
@given(data=st.data())
def test_a_block_gets_what_the_embedded_operator_gives(n, half, sites, data):
    """An exchange- or reflection-shaped factor applied to a block by its
    gather, and a general placed or whole operator applied to it entry by
    entry, equal the embedded operator composed with the block's columns,
    in canonical form: for zero and negative scalars, and for columns with
    zeros, an orbit-supported one among them where the orbit exists.  The
    factor's local matrix is written from its shape's definition by the
    oracle (`_oracles._factor_cols`), which reads neither the shape's table
    nor the gather."""
    space = Space(n, half)
    columns = [data.draw(st.dictionaries(st.integers(0, space.dim - 1), ENTRIES,
                                         max_size=space.dim))
               for _ in range(data.draw(st.integers(1, 2)))]
    if n == half:
        columns.append({i: data.draw(ENTRIES) for i in orbit_states(space)})
    block = Block.of(space, *columns)
    over = data.draw(ENTRIES.filter(bool))
    if len(sites) == 2:
        factor = Factor.exchange(*data.draw(st.tuples(ENTRIES, ENTRIES, ENTRIES)), sites, space,
                                 over=over)
    else:
        flips = data.draw(st.lists(st.tuples(ENTRIES, ENTRIES), min_size=half, max_size=half))
        factor = Factor.reflection(data.draw(ENTRIES), flips, sites[0], space, over=over)
    written = LinOp(*_factor_cols(factor, half))
    local = _random_op(data, written.space)
    for op, whole in ((factor, Placed(written, sites, space).embedded()),
                      (Placed(local, sites, space), Placed(local, sites, space).embedded()),
                      (_random_op(data, space),) * 2):
        got = product([op, block])
        assert_canonical_block(got)
        assert got.linop() == whole @ block.linop()


def test_block_arithmetic_matches_the_operator_arithmetic():
    """Differences, scalings, sums and column picks of blocks are those of
    the operators holding the same columns, and a sum that cancels is the
    canonical zero block."""
    space = Space(2, 2)
    r = random.Random(3)
    b1, b2 = (Block.of(space, *({i: rand_frac(r) for i in r.sample(range(16), 6)}
                                for _ in range(3))) for _ in range(2))
    q = rat(-5, 3)
    assert (b1 - b2).linop() == b1.linop() - b2.linop()
    assert b1.scale(q).linop() == b1.linop().scale(q)
    assert lincomb(space, [(q, b1), (1, b2)]).linop() == lincomb(space, [(q, b1.linop()),
                                                                         (1, b2.linop())])
    values = b1.linop().cols
    assert b1.take((2, 0)).linop() == LinOp(space, {0: values[2], 1: values[0]})
    zero = b1 - b1
    assert zero.is_zero() and zero == Block(space, [[0] * 16] * 3)
    assert Block.identity(space).linop() == LinOp.identity(space)
    with pytest.raises(ValueError):
        b1 - b1.take((0,))


def test_embed_site_wrong_half_dim():
    op = LinOp.identity(Space(1, 1))
    with pytest.raises(ValueError):
        Placed(op, (1,), Space(2, 2))
    # A reflection factor takes one pair of flips per label of its space.
    with pytest.raises(ValueError):
        Factor.reflection(0, [(1, 1)], 1, Space(2, 2))


# ------------------------------------------------------ canonical residues


def assert_canonical(op):
    """Canonical form: every stored entry an int in [1, P), no empty
    column."""
    assert all(op.cols.values())
    assert all(type(v) is int and 0 < v < P for col in op.cols.values() for v in col.values())


def assert_canonical_block(block):
    """Canonical form: every entry of every column an int in [0, P)."""
    assert all(len(col) == block.space.dim for col in block.cols)
    assert all(type(v) is int and 0 <= v < P for col in block.cols for v in col)


def dense_add(a, b, fb=1):
    return [[x + fb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_embed(site, positions, space):
    """Dense embedding of an operator on the sites at `positions`."""
    states = list(space.states())
    d = space.site_dim

    def local(state):
        idx = 0
        for p in positions:
            idx = idx * d + state[p]
        return idx

    return [
        [
            site[local(r)][local(c)]
            if all(r[p] == c[p] for p in range(space.n) if p not in positions) else 0
            for c in states
        ]
        for r in states
    ]


def test_exact_arithmetic_matches_the_fraction_oracle_in_canonical_form():
    site, pair, three = Space(1, 1), Space(2, 1), Space(3, 1)
    r = random.Random(11)
    for trial in range(10):
        da, db = rand_dense(pair, r, fill=0.5), rand_dense(pair, r, fill=0.5)
        d1, d2 = rand_dense(site, r, fill=0.7), rand_dense(site, r, fill=0.7)
        a, b, s1, s2 = (LinOp.from_dense(sp, d) for sp, d in
                        ((pair, da), (pair, db), (site, d1), (site, d2)))
        q = rand_frac(r) or Fraction(2, 3)
        cases = [
            (a + b, dense_add(da, db)),
            (a - b, dense_add(da, db, -1)),
            (-a, [[-v for v in row] for row in da]),
            (a.scale(q), [[q * v for v in row] for row in da]),
            (a.scale(7), [[7 * v for v in row] for row in da]),
            (a @ b @ a, dense_mul(dense_mul(da, db), da)),
            (site_tensor(s1, s2), [[d1[i // 2][j // 2] * d2[i % 2][j % 2] for j in range(4)]
                                   for i in range(4)]),
            (Placed(s1, (2,), three).embedded(), dense_embed(d1, (1,), three)),
            (Placed(a, (3, 1), three).embedded(), dense_embed(da, (2, 0), three)),
        ]
        for got, want in cases:
            assert_canonical(got)
            assert got.to_dense() == reduced(want), trial
            assert got == LinOp.from_dense(got.space, want)
        states = list(pair.states())
        for col in states:
            for row in states:
                assert a.entry(row, col) == mod_p(da[states.index(row)][states.index(col)])


# Residues anywhere in F_p, the largest among them, so that sums and
# products wrap.
RESIDUES = st.sampled_from([1, 2, P - 1, P - 2, P // 2]) | st.integers(0, P - 1)


@pytest.mark.parametrize("n,half", [(1, 2), (2, 1), (2, 2)])
@settings(max_examples=10, derandomize=True, database=None, deadline=None,
          phases=NO_SHRINK)
@given(data=st.data())
def test_every_operation_leaves_canonical_residues(n, half, data):
    """Every Block and LinOp that the gather, the entry-by-entry
    application, lincomb, compose, restricted, join and take return holds
    ints in [0, P) only, and an operator no stored zero, for entries and
    scalars drawn anywhere in F_p."""
    space = Space(n, half)
    dim = space.dim

    def op():
        entries = data.draw(st.dictionaries(
            st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), RESIDUES, max_size=12))
        cols = {}
        for (c, r), v in entries.items():
            cols.setdefault(c, {})[r] = v
        return LinOp(space, cols)

    def column():
        return data.draw(st.dictionaries(st.integers(0, dim - 1), RESIDUES, max_size=dim))

    a, b = op(), op()
    block, other = Block.of(space, column(), column()), Block.of(space, column(), column())
    over = data.draw(RESIDUES.filter(bool))
    if n == 2:
        factor = Factor.exchange(*data.draw(st.tuples(RESIDUES, RESIDUES, RESIDUES)), (2, 1),
                                 space, over=over)
    else:
        flips = data.draw(st.lists(st.tuples(RESIDUES, RESIDUES), min_size=half, max_size=half))
        factor = Factor.reflection(data.draw(RESIDUES), flips, 1, space, over=over)
    local = LinOp(Space(1, half), {0: {0: P - 1, 1: data.draw(RESIDUES)}})
    coefs = data.draw(st.tuples(RESIDUES, RESIDUES))
    for got in (factor.on_block(block), a.on_block(block), Placed(local, (n,), space).on_block(block),
                lincomb(space, zip(coefs, (block, other))), block - other,
                Block.join([block, other]), block.take((1, 0, 1))):
        assert_canonical_block(got)
    columns = data.draw(st.lists(st.integers(0, dim - 1), max_size=dim))
    for got in (a @ b, a.restricted(columns), lincomb(space, zip(coefs, (a, b))), a - b,
                a.scale(P - 1) + a):
        assert_canonical(got)
    assert (a.scale(P - 1) + a).is_zero()


def _equal_exactly_when_the_difference_vanishes(items):
    for p, q in itertools.product(items, repeat=2):
        assert (p == q) == (p - q).is_zero(), (p, q)


@pytest.mark.parametrize("n,half", [(1, 1), (1, 2), (2, 1)])
@settings(max_examples=10, derandomize=True, database=None, deadline=None,
          phases=NO_SHRINK)
@given(data=st.data())
def test_equal_exactly_when_the_difference_vanishes(n, half, data):
    """Exact operators and blocks are canonical whatever builds them, so
    two are equal exactly when their difference is zero: for operators
    from every constructor, hand-written entries with zeros and empty
    columns among them, and for blocks from every constructor."""
    space = Space(n, half)
    dim = space.dim
    a, b = _random_op(data, space), _random_op(data, space)
    values = a.cols
    zero_rows = data.draw(st.lists(st.integers(0, dim - 1), max_size=3))
    padded = {c: {**dict.fromkeys(zero_rows, 0), **values.get(c, {})} for c in range(dim)}
    states = list(space.states())
    ops = [
        a, b, LinOp(space, padded),
        LinOp(space, {states[c]: {states[r]: v for r, v in col.items()}
                      for c, col in values.items()}),
        LinOp.from_dense(space, a.to_dense()),
        LinOp.zero(space), LinOp(space, {0: {0: 0}}), LinOp(space, {dim - 1: {}}),
        LinOp.identity(space), LinOp(space, {i: {i: rat(2, 2)} for i in range(dim)}),
        lincomb(space, [(2, a), (-1, a)]), (a - b) + b, a @ LinOp.identity(space), a @ b,
        Block.of(space, *(values.get(c, {}) for c in range(dim))).linop(),
    ]
    scalars = data.draw(st.lists(ENTRIES, min_size=4, max_size=4))
    over = data.draw(ENTRIES.filter(bool))
    if n == 2:
        local = _random_op(data, Space(1, half))
        factors = [Factor.exchange(*scalars[:3], (1, 2), space, over=over)]
        ops += [site_tensor(local, local), Placed(local, (2,), space).embedded(),
                invert(LinOp.identity(space))]
    else:
        flips = [tuple(scalars[1:3])] * half
        factors = [Factor.reflection(scalars[0], flips, 1, space, over),
                   Factor.reflection(scalars[0], flips, 1, space)]
    ops += [factor.on_block(Block.identity(space)).linop() for factor in factors]
    _equal_exactly_when_the_difference_vanishes(ops)
    for op in ops:
        assert_canonical(op)

    width = 2
    columns = [{data.draw(st.integers(0, dim - 1)): data.draw(ENTRIES) for _ in range(3)}
               for _ in range(width)]
    block = Block.of(space, *columns)
    zeros = [{**dict.fromkeys(range(dim), 0), **column} for column in columns]
    blocks = [
        block, Block.of(space, *zeros), Block.of(space, *([{}] * width)), block - block,
        Block.join([block.take([0]), block.take([1])]), block.scale(1), block.scale(scalars[3]),
        lincomb(space, [(2, block), (-1, block)]), Block.identity(space).take(range(width)),
        Block.join([Block.identity(space).take([0]), block.take([1])]),
        a.on_block(block), product([Placed(a, tuple(range(1, n + 1)), space), block]),
    ]
    blocks.append(product([factors[0], block]))
    _equal_exactly_when_the_difference_vanishes(blocks)


def test_sum_cancelling_across_denominators_is_the_canonical_zero():
    sp = Space(1, 1)
    third = LinOp(sp, {(0,): {(1,): rat(1, 3)}, (1,): {(1,): rat(1, 6)}})
    half = LinOp(sp, {(0,): {(1,): rat(1, 2)}})
    sixth = LinOp(sp, {(0,): {(1,): rat(-5, 6)}, (1,): {(1,): rat(-1, 6)}})
    total = third + half + sixth
    assert total.is_zero() and total.nnz() == 0
    assert_canonical(total)
    assert total == LinOp.zero(sp)
    partial = third + sixth
    assert_canonical(partial)
    assert partial.cols == {sp.index((0,)): {sp.index((1,)): mod_p(Fraction(-1, 2))}}
    assert partial.entry((1,), (0,)) == rat(-1, 2)


# ------------------------------------------------------ linear combination


def dense_lincomb(space, terms):
    """Fraction oracle: sum of coef * (dense op) over (coef, dense) terms."""
    dim = space.dim
    out = [[0] * dim for _ in range(dim)]
    for a, dense in terms:
        for i, row in enumerate(dense):
            for j, v in enumerate(row):
                out[i][j] += a * v
    return out


def snapshot(ops):
    """Deep copies of every operator's columns."""
    return [{c: dict(col) for c, col in op.cols.items()} for op in ops]


def test_lincomb_matches_the_fraction_oracle_in_canonical_form():
    sp = Space(2, 1)
    r = random.Random(13)
    for trial in range(12):
        dense = [[[v / r.randint(1, 6) for v in row] for row in rand_dense(sp, r, fill=0.4)]
                 for _ in range(4)]
        ops = [LinOp.from_dense(sp, d) for d in dense]
        coefs = [rand_frac(r) for _ in ops]
        coefs[trial % 4] = 0
        before = snapshot(ops)
        got = lincomb(sp, iter(zip(coefs, ops)))
        assert_canonical(got)
        assert got.to_dense() == reduced(dense_lincomb(sp, zip(coefs, dense))), trial
        assert snapshot(ops) == before


def test_lincomb_sums_the_residues_of_rational_terms():
    sp = Space(1, 1)
    sixth = LinOp(sp, {(0,): {(1,): rat(1, 6)}, (1,): {(0,): rat(1, 4)}})
    third = LinOp(sp, {(0,): {(1,): rat(1, 3)}})
    got = lincomb(sp, [(1, sixth), (rat(1, 2), third), (rat(2, 3), sixth)])
    assert_canonical(got)
    # 1/6 + 1/6 + 1/9 = 4/9 and 1/4 + 1/6 = 5/12.
    assert got.to_dense() == [[0, mod_p(Fraction(5, 12))], [mod_p(Fraction(4, 9)), 0]]
    # (3/2)(1/6) - (1/2)(1/2) empties column 0; 3/8 is left.
    half = LinOp(sp, {(0,): {(1,): rat(1, 2)}})
    got = lincomb(sp, [(rat(3, 2), sixth), (rat(-1, 2), half)])
    assert_canonical(got)
    assert got.cols == {1: {0: mod_p(Fraction(3, 8))}}


def test_lincomb_cancels_to_the_canonical_zero():
    sp = Space(1, 1)
    a = LinOp(sp, {(0,): {(1,): rat(1, 3)}, (1,): {(0,): rat(1, 6), (1,): rat(2, 5)}})
    b = LinOp(sp, {(1,): {(0,): rat(1, 2)}})
    before = snapshot([a, b])
    # Column 1 of a + (-1/3) b keeps (1, 1) only; of a - a every column empties.
    partial = lincomb(sp, [(1, a), (rat(-1, 3), b)])
    assert_canonical(partial)
    assert partial.to_dense() == [[0, 0], [rat(1, 3), rat(2, 5)]]
    for terms in ([(1, a), (-1, a)], [(rat(1, 2), a), (1, b), (rat(-1, 2), a), (-1, b)],
                  [(0, a), (0, b)], []):
        total = lincomb(sp, terms)
        assert_canonical(total)
        assert total.is_zero() and total == LinOp.zero(sp)
    assert snapshot([a, b]) == before


def test_lincomb_leaves_shared_units_unchanged():
    from bqkz.compat_ops import op_E, site_unit

    unit = site_unit(2, 0, 1)
    pair = op_E(2, 1, 2)
    before = snapshot([unit, pair])
    sp = unit.space
    for terms in ([(1, unit), (1, pair)], [(rat(3, 7), unit), (2, pair), (-1, unit)],
                  [(1, unit)]):
        lincomb(sp, terms)
    assert unit + pair - pair == unit
    assert snapshot([unit, pair]) == before
    assert site_unit(2, 0, 1) is unit and unit.to_dense()[0][1] == 1


COEFFICIENTS = st.integers(-9, 9) | ENTRIES | RESIDUES.map(Residue) | st.just(0)


@pytest.mark.parametrize("n,half", [(1, 2), (2, 1), (2, 2)])
@settings(max_examples=10, derandomize=True, database=None, deadline=None,
          phases=NO_SHRINK)
@given(data=st.data())
def test_a_fixed_sum_is_lincomb(n, half, data):
    """A FixedSum of random operators, with int, negative, Fraction and
    Residue coefficients, some of them zero, and copies of the first
    operator whose coefficients cancel it on some columns or on all, is
    the Fraction oracle's sum of the same terms reduced mod P, in
    canonical form, and with columns= the oracle's columns there and no
    other; `lincomb`, which compiles one for the call, is too, and a float
    coefficient is refused.  The sum cached under one key compiles again
    when handed an operator it was not compiled from, and still matches
    the oracle."""
    space = Space(n, half)
    dim = space.dim
    dense = [_random_dense(data, space) for _ in range(data.draw(st.integers(1, 3)))]
    coefs = [data.draw(COEFFICIENTS) for _ in dense]
    cut = set(data.draw(st.lists(st.integers(0, dim - 1), max_size=dim)))
    dense += [[[v if j in cut else 0 for j, v in enumerate(row)] for row in dense[0]],
              [[2 * v for v in row] for row in dense[0]]]
    c0 = coefs[0]
    coefs += data.draw(st.sampled_from([(-c0, 0), (0, Fraction(-1, 2) * c0), (c0, 1)]))
    ops = [LinOp.from_dense(space, d) for d in dense]
    terms = list(zip(coefs, ops))

    def oracle(coefs, dense):
        exact = [Fraction(int(a)) if isinstance(a, Residue) else a for a in coefs]
        return reduced(dense_lincomb(space, zip(exact, dense)))

    want = oracle(coefs, dense)
    for got in (FixedSum(space, ops)(coefs), lincomb(space, terms),
                fixed_sum("test", space, terms)):
        assert_canonical(got)
        assert got.to_dense() == want
    columns = tuple(data.draw(st.lists(st.integers(0, dim - 1), max_size=dim)))
    kept = FixedSum(space, ops, columns)(coefs)
    assert_canonical(kept)
    assert kept.to_dense() == [[v if j in columns else 0 for j, v in enumerate(row)]
                               for row in want]
    for bad in (0.5, 0.0):
        with pytest.raises(TypeError):
            FixedSum(space, ops)([bad] + coefs[1:])
    other = _random_dense(data, space)
    swapped = [(coefs[0], LinOp.from_dense(space, other))] + terms[1:]
    assert fixed_sum("test", space, swapped).to_dense() == oracle(coefs, [other] + dense[1:])
    assert tensor_ops._SUMS["test", space, None].ops[0] is swapped[0][1]


def test_lincomb_space_mismatch():
    a = LinOp.identity(Space(1, 1))
    b = LinOp.identity(Space(2, 1))
    for terms in ([(1, a), (1, b)], [(0, b)]):
        with pytest.raises(ValueError):
            lincomb(Space(1, 1), terms)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b


def test_invert_rational():
    sp = Space(1, 2)
    for trial in range(6):
        op = LinOp.identity(sp) + rand_op(sp, rng, fill=0.2).scale(rat(1, 7))
        try:
            iop = invert(op)
        except PoleSingular:
            continue
        assert iop @ op == LinOp.identity(sp)
        assert op @ iop == LinOp.identity(sp)


def test_invert_singular():
    op = LinOp(Space(1, 2), {(0,): {(0,): 1}})
    with pytest.raises(PoleSingular):
        invert(op)
