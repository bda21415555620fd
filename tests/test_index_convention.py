"""Operators are keyed by linear state index, in `Space.states()` order.

The oracles here never compute an index by strides: a state's position is
its position in the list `Space.states()` yields, and embedded operators
are written down state tuple by state tuple.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from _oracles import _exchange_cols, _reflection_cols, mod_p
from bqkz.compat_ops import op_L, site_unit
from bqkz.hecke_module import (
    SignedPerm,
    _cbar_factor,
    _grouped_end,
    _grouped_swap,
    cbar_factor_list,
    op_Cbar,
    orbit_states,
    rhoL,
)
from bqkz.integral_solver import _local_matrix
from bqkz.rqkz import ModelParams, k_factor, op_dT_dx, op_Q, p_factor, r_factor, t_factor
from bqkz.scalar_field import inv, rat
from bqkz.tensor_ops import Block, Factor, LinOp, Placed, Space, site_tensor

SIZES = [(n, half) for n in (1, 2, 3) for half in (1, 2, 3)]
X = (Fraction(2), Fraction(3), Fraction(5))
Y = (Fraction(1, 3), Fraction(2, 7), Fraction(-5, 4))


def _params(space):
    return ModelParams(c=Fraction(1, 2), k=Fraction(2, 3), alpha=Fraction(3, 5),
                       beta=Fraction(-4, 7), space=space)


def _whole(factor):
    """A placed factor's whole operator: its gather on the identity block."""
    return factor.on_block(Block.identity(factor.space)).linop()


def _local(factor):
    """A factor's operator on its own sites: the gather, on the identity
    block there, of the same scalars placed on sites 1 (and 2)."""
    sites = tuple(range(1, len(factor.strides) + 1))
    return _whole(Factor(factor.scalars, factor.over, sites,
                         Space(len(sites), factor.space.half_dim)))


def _built_operators(n, half):
    """Every builder's output that lives on Space(n, half)."""
    space = Space(n, half)
    x, y, params = X[:half], Y[:n], _params(space)
    ops = [LinOp.identity(space)]
    t = _local(t_factor(x, 1, space))
    if n == 1:
        ops += [t, _whole(op_dT_dx(x, half, 1, space)),
                _whole(k_factor(Fraction(7, 3), x, Fraction(1, 2), 1, space)),
                site_unit(half, 0, 2 * half - 1)]
    if n == 2:
        ops += [_whole(p_factor((1, 2), space)),
                _whole(r_factor(Fraction(5, 2), Fraction(2, 3), (1, 2), space)),
                site_tensor(t, site_unit(half, 1, 0))]
    ops += [_whole(k_factor(Fraction(7, 3), x, Fraction(1, 2), j, space)) for j in range(1, n + 1)]
    if n >= 2:
        r = _local(r_factor(Fraction(5, 2), Fraction(2, 3), (1, 2), space))
        ops += [Placed(r, (1, n), space).embedded(), Placed(r, (n, 1), space).embedded()]
    ops += [op_Q(m, x, y, params) for m in range(1, n + 1)]
    ops += [op_L(half, x, y, params)]
    if n == half:
        ops += [rhoL(SignedPerm.generator(n, n), space),
                op_Cbar(1, x, y, params, Block.identity(space)).linop()]
        ops += [_whole(_cbar_factor(desc, x, y, params)) for desc in cbar_factor_list(n, n)]
    return space, ops


@pytest.mark.parametrize("n,half", SIZES)
def test_builders_key_by_index_and_entry_reads_the_states_position(n, half):
    space, ops = _built_operators(n, half)
    states = list(space.states())
    position = {s: i for i, s in enumerate(states)}
    assert [space.index(s) for s in states] == list(range(space.dim))
    for op in ops:
        assert op.space == space
        for c, col in op.cols.items():
            assert type(c) is int and 0 <= c < space.dim
            assert all(type(r) is int and 0 <= r < space.dim for r in col)
        dense = op.to_dense()
        for row, col in itertools.product(states, repeat=2):
            assert op.entry(row, col) == dense[position[row]][position[col]]


def _tuple_op(space, r):
    """A random operator as {col_state: {row_state: value}}."""
    states = list(space.states())
    out = {}
    for c in states:
        for row in states:
            if r.random() < 0.4:
                out.setdefault(c, {})[row] = Fraction(r.randint(-9, 9) or 1, r.randint(1, 4))
    return out


def _dense_from_tuples(space, value_at):
    """Dense matrix whose (row, col) entry is value_at(row_state,
    col_state) reduced mod P, positions read from the list of states."""
    states = list(space.states())
    return [[mod_p(value_at(row, col)) for col in states] for row in states]


def _read(cols, row, col):
    return cols.get(col, {}).get(row, 0)


@pytest.mark.parametrize("n,half", SIZES)
def test_embeddings_match_oracles_written_by_state(n, half):
    r = random.Random(100 * n + half)
    space, site, pair = Space(n, half), Space(1, half), Space(2, half)
    one, two, local = _tuple_op(site, r), _tuple_op(site, r), _tuple_op(pair, r)

    def embedded(cols, sites):
        """Oracle of an operator on `sites` (0-based, slot order)."""

        def value_at(row, col):
            if any(row[p] != col[p] for p in range(n) if p not in sites):
                return 0
            return _read(cols, tuple(row[p] for p in sites), tuple(col[p] for p in sites))

        return _dense_from_tuples(space, value_at)

    for j in range(1, n + 1):
        got = Placed(LinOp(site, one), (j,), space).embedded().to_dense()
        assert got == embedded(one, (j - 1,)), j
    for i, j in itertools.permutations(range(1, n + 1), 2):
        got = Placed(LinOp(pair, local), (i, j), space).embedded().to_dense()
        assert got == embedded(local, (i - 1, j - 1)), (i, j)

    def tensor_value(row, col):
        return _read(one, row[:1], col[:1]) * _read(two, row[1:], col[1:])

    tensor = site_tensor(LinOp(site, one), LinOp(site, two))
    assert tensor.to_dense() == _dense_from_tuples(pair, tensor_value)


def test_orbit_check_reads_orbit_states_by_index():
    space = Space(2, 2)
    position = {s: i for i, s in enumerate(space.states())}
    states = orbit_states(space)
    # Each site carries label 1 or 2, barred or not (codes 0, 2 and 1, 3),
    # and the two sites carry different labels.
    pairs = [(a, b) for a in (0, 2) for b in (1, 3)]
    assert sorted(states) == sorted(position[s] for p in pairs for s in (p, p[::-1]))
    on, off = states[0], position[(0, 0)]
    assert off not in states
    assert not LinOp(space, {on: {off: 1}}).restricted(states).is_zero()
    assert LinOp(space, {off: {on: 1}}).restricted(states).is_zero()


@pytest.mark.parametrize("scalar", [rat, lambda v: rat(v, 3)])
def test_compose_stores_no_zero_and_drops_an_emptied_column(scalar):
    """With unit entries and with entries 1/3: a cancelled entry is not
    stored, and a column that cancels entirely is dropped."""
    sp = Space(1, 1)
    one = scalar(1)
    a = LinOp(sp, {(0,): {(0,): one, (1,): one}, (1,): {(0,): one, (1,): one + one}})
    b = LinOp(sp, {(0,): {(0,): one, (1,): -one}, (1,): {(1,): one}})
    partly = a @ b
    assert partly.cols[0] == {1: -(one * one)}
    assert all(v != 0 for col in partly.cols.values() for v in col.values())
    whole = LinOp(sp, {(0,): {(0,): one}, (1,): {(0,): one}})
    emptied = whole @ b
    assert emptied.cols == {1: {0: one * one}}


def test_apply_reads_and_returns_index_columns():
    for n, half in ((1, 2), (2, 1), (3, 1)):
        space = Space(n, half)
        op = op_Q(1, X[:half], Y[:n], _params(space))
        vec = {i: rat(i + 1) for i in range(space.dim) if i % 3 == 0}
        out = op.apply(vec)
        assert out
        assert all(type(i) is int and 0 <= i < space.dim for i in out)
        assert 0 not in out.values()
        dense = op.to_dense()
        for i in range(space.dim):
            want = sum(dense[i][j] * vec.get(j, 0) for j in range(space.dim))
            assert out.get(i, 0) == want


# Factor layout: each shape's table as its two readers see it (the gather
# on a block and the contour solver's complex local matrix), and the
# builders of factors, against the oracles written state by state in
# _oracles.

HALVES = (1, 2, 3)


def _exchange_oracle(*scalars):
    return LinOp(*_exchange_cols(*scalars))


def _reflection_oracle(diag, flips):
    return LinOp(*_reflection_cols(diag, flips))


def _assert_written(op, oracle):
    """op equals the oracle built through the state-keyed constructor (the
    canonical form) and stores no zero entry and no empty column."""
    assert op == oracle
    assert all(op.cols.values())
    assert all(v != 0 for col in op.cols.values() for v in col.values())


def _assert_matrix(factor, oracle):
    """The solver's complex local matrix of a factor is the oracle's
    (space, cols), each state at its position in Space.states()."""
    space, cols = oracle
    position = {s: i for i, s in enumerate(space.states())}
    want = np.zeros((space.dim, space.dim), dtype=complex)
    for col, rows in cols.items():
        for row, v in rows.items():
            want[position[row], position[col]] = v
    assert np.array_equal(_local_matrix(factor), want)


def _rational(*values):
    return not any(isinstance(v, (float, complex)) for v in values)


# (diag, keep or down, swap or up): rational, float, and with zeros.  A
# rational row reaches both readers, the gather as the residues of its
# Fractions; the float rows reach only the solver's complex local
# matrices.
SCALARS = [
    (Fraction(2, 3), Fraction(-5, 7), Fraction(1, 4)),
    (0.5, -1.25 + 0.5j, 3.0),
    (0, Fraction(3, 4), Fraction(-1, 6)),
    (Fraction(1, 2), 0, Fraction(1, 3)),
    (Fraction(1, 2), Fraction(1, 3), 0),
    (0.0, 0.25, 0.0),
    (0, 0, 0),
]


@pytest.mark.parametrize("half", HALVES)
@pytest.mark.parametrize("diag,first,second", SCALARS)
def test_layout_writers_match_their_oracles(half, diag, first, second):
    """Each factor's gather on the identity block (`Factor.on_block`), on
    rational rows, and its complex local matrix (`_local_matrix`), on
    every row, are its shape's oracle."""
    factors = [(Factor.exchange(diag, first, second, (1, 2), Space(2, half)),
                _exchange_cols(half, diag, first, second))]
    # Every label flips, or only the last, as in a coordinate derivative.
    for flips in ([(first * (a + 1), second * (a + 2)) for a in range(half)],
                  [(0, 0)] * (half - 1) + [(first, second)]):
        factors.append((Factor.reflection(diag, flips, 1, Space(1, half)),
                        _reflection_cols(diag, flips)))
    for factor, oracle in factors:
        _assert_matrix(factor, oracle)
        if _rational(diag, first, second):
            _assert_written(_whole(factor), LinOp(*oracle))


# (x, lam, k, beta), exact and float; the float row reaches only the
# solver's complex local matrices.
POINTS = [((Fraction(2), Fraction(-3, 4), Fraction(5, 7)), Fraction(5, 2), Fraction(2, 3),
           Fraction(-4, 7)),
          ((0.5, -2.0, 1.5 + 0.5j), 0.75, -1.5, 2.5)]


@pytest.mark.parametrize("half", HALVES)
@pytest.mark.parametrize("x,lam,k,beta", POINTS)
def test_transport_builders_match_their_oracles(half, x, lam, k, beta):
    x = x[:half]
    rational = _rational(*x, lam, k, beta)
    for arg in (lam, 0 * lam):
        s = inv(arg + k)
        want = _exchange_cols(half, s * (arg + k), s * arg, s * k)
        r = r_factor(arg, k, (1, 2), Space(2, half))
        _assert_matrix(r, want)
        if rational:
            _assert_written(_whole(r), LinOp(*want))
    _assert_written(_whole(p_factor((1, 2), Space(2, half))), _exchange_oracle(half, 1, 0, 1))
    s = inv(lam + beta)
    want = _reflection_cols(s * beta, [(s * (lam * inv(xa)), s * (lam * xa)) for xa in x])
    _assert_matrix(k_factor(lam, x, beta, 1, Space(1, half)), want)
    if not rational:
        return
    _assert_written(_whole(k_factor(lam, x, beta, 1, Space(1, half))), LinOp(*want))
    _assert_written(_whole(t_factor(x, 1, Space(1, half))),
                    _reflection_oracle(0, [(inv(xa), xa) for xa in x]))
    for a in range(1, half + 1):
        flips = [(-inv(xa * xa), 1) if b == a else (0, 0) for b, xa in enumerate(x, start=1)]
        _assert_written(_whole(op_dT_dx(x, a, 1, Space(1, half))), _reflection_oracle(0, flips))


@pytest.mark.parametrize("n", HALVES)
def test_degenerate_builders_match_their_oracles(n):
    space = Space(n, n)
    params = _params(space)
    c, k, alpha, beta = params.c, params.k, params.alpha, params.beta
    x = X[:n]
    for arg in (Fraction(5, 3), Fraction(0)):
        y = (arg,) + Y[1:n]
        if n > 1:
            rb = _cbar_factor(("Rb", 1, ((1, 1),), 0), x, y, params)
            assert rb.strides == (space.stride(1), space.stride(2))
            _assert_written(_local(rb), _exchange_oracle(n, 1, k / (arg + k), arg / (arg + k)))
            swap = _grouped_swap(arg, k, 1, space)
            assert swap.strides == rb.strides
            _assert_written(_local(swap), _exchange_oracle(n, arg - k, -k, arg))
        kn = _cbar_factor(("Kn", None, ((1, 1),), 0), x, y, params)
        assert kn.strides == (space.stride(n),)
        w = arg / (arg - alpha)
        _assert_written(_local(kn), _reflection_oracle(-alpha / (arg - alpha), [(w, w)] * n))
        k0 = _cbar_factor(("K0", None, ((1, 1),), 0), x, y, params)
        assert k0.strides == (space.stride(1),)
        den = arg + beta + c / 2
        w = (arg + c / 2) / den
        _assert_written(_local(k0), _reflection_oracle(beta / den, [(w / xa, w * xa) for xa in x]))
        end = _grouped_end(arg, x, beta, 1, space)
        assert end.strides == k0.strides
        _assert_written(_local(end), _reflection_oracle(-beta, [(arg / xa, arg * xa) for xa in x]))


@pytest.mark.parametrize("half", HALVES)
def test_site_units_match_their_oracle(half):
    for row, col in itertools.product(range(2 * half), repeat=2):
        _assert_written(site_unit(half, row, col), LinOp(Space(1, half), {(col,): {(row,): 1}}))
