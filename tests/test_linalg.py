"""Certified elimination against an independent exact rational oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest

from tatehk.errors import AmbiguousPivot, AmbiguousSolve
from tatehk.field import FieldDescriptor, parse_eisenstein
from tatehk.linalg import (PrecMatrix, _solve_echelon, int_echelon,
                           int_kernel_sparse, int_rank_sparse, kernel_basis,
                           rank_at, row_reduce, solve)
from tatehk.padic import PadicContext, PadicScalar


# -- oracle: plain Fraction Gaussian elimination, no package code ---------------


def oracle_rank_and_kernel(rows):
    """Row echelon over Q with Fractions; returns (pivot_columns, kernel_basis),
    one basis vector per free column f, with 1 at f and 0 at the other free
    columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -m[i][f]
        basis.append(vec)
    return pivots, basis


def primitive(vec):
    """A Fraction vector scaled to coprime integers with the same signs."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return {j: x // g for j, x in enumerate(ints) if x}


CTX = PadicContext(5, 20)
QP = FieldDescriptor.base(CTX)
RAM = parse_eisenstein("s^2-5", CTX)


def random_int_matrix(rng, nrows, ncols, lo=-9, hi=9, density=0.7):
    return [[rng.randint(lo, hi) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def check_exact_integer_path(sparse, data, ncols):
    """int_echelon, int_rank_sparse and int_kernel_sparse on sparse rows whose
    first ncols columns are the dense data, against the Fraction oracle."""
    pivots, basis = oracle_rank_and_kernel(data)
    ech = int_echelon(sparse, ncols)
    assert sorted(ech) == pivots
    for col, row in ech.items():
        assert min(row) == col and max(row) < ncols
        g = 0
        for v in row.values():
            g = gcd(g, v)
        assert g == 1
    assert int_rank_sparse(sparse, ncols) == len(pivots)
    assert int_kernel_sparse(sparse, ncols) == [primitive(vec) for vec in basis]


def test_rank_matches_rational_oracle():
    rng = random.Random(20260814)
    for _ in range(50):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        data = random_int_matrix(rng, nrows, ncols)
        pivots, basis = oracle_rank_and_kernel(data)
        want_rank, want_nullity = len(pivots), len(basis)
        m = PrecMatrix.from_rows(QP, data)
        assert rank_at(m, 15) == want_rank
        assert len(kernel_basis(m, 15)) == want_nullity
        sparse = [{j: v for j, v in enumerate(row) if v} for row in data]
        assert int_rank_sparse(sparse, ncols) == want_rank
        check_exact_integer_path(sparse, data, ncols)
    # low-rank products (long reduction chains), all-zero rows, explicit zero
    # entries, and entries at columns >= ncols, which are ignored
    rng = random.Random(41)
    for _ in range(60):
        nrows, ncols, extra = rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 3)
        inner = rng.randint(1, 4)
        left = random_int_matrix(rng, nrows, inner, -3, 3)
        right = random_int_matrix(rng, inner, ncols + extra, -3, 3)
        wide = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                for row in left]
        for i in rng.sample(range(nrows), rng.randint(0, nrows // 2)):
            wide[i] = [0] * (ncols + extra)
        sparse = [{j: v for j, v in enumerate(row) if v or rng.random() < 0.2}
                  for row in wide]
        check_exact_integer_path(sparse, [row[:ncols] for row in wide], ncols)


def test_kernel_vectors_certify():
    rng = random.Random(7)
    for _ in range(20):
        data = random_int_matrix(rng, 5, 7)
        m = PrecMatrix.from_rows(QP, data)
        for vec in kernel_basis(m, 15):
            res = m.apply_to(vec)
            assert all(v.is_zero_at(15) for v in res.values())


def test_solve_consistent_and_certified():
    rng = random.Random(11)
    for _ in range(30):
        data = random_int_matrix(rng, 5, 4)
        m = PrecMatrix.from_rows(QP, data)
        x_true = {j: QP.from_int(rng.randint(-5, 5)) for j in range(4)}
        b = m.apply_to(x_true)
        x = solve(m, b, 15)
        assert x is not None
        bx = m.apply_to(x)
        for i in range(5):
            d = bx.get(i, QP.zero()) - b.get(i, QP.zero())
            assert d.is_zero_at(15)


def test_solve_certified_no_solution():
    # x = 0 and x = 1 simultaneously
    m = PrecMatrix.from_rows(QP, [[1], [1]])
    b = {0: QP.from_int(0), 1: QP.from_int(1)}
    assert solve(m, b, 15) is None


def test_solve_ambiguous_raises():
    # residual is zero only at O(pi^2), below the floor
    m = PrecMatrix.from_rows(QP, [[1], [0]])
    low = QP.embed_scalar(__import__("tatehk.padic", fromlist=["PadicScalar"]).PadicScalar.zero(CTX, 2))
    b = {0: QP.from_int(1), 1: low}
    with pytest.raises(AmbiguousSolve):
        solve(m, b, 15)


def test_solve_echelon_matches_row_reduce():
    """The echelon that comes with a solution has the pivots and ambiguity of
    row_reduce on the matrix alone, so class solving eliminates once."""
    rng = random.Random(37)
    seen_ambiguity = seen_obstruction = 0
    for fld in (QP, RAM):
        for _ in range(40):
            nrows, ncols = rng.randint(2, 6), rng.randint(2, 6)
            m = PrecMatrix.from_rows(fld, random_int_matrix(rng, nrows, ncols))
            # numerically-zero columns: entries known only to O(p^k)
            for col in rng.sample(range(ncols), rng.randint(0, 2)):
                for i in range(nrows):
                    if rng.random() < 0.6:
                        m.rows[i][col] = fld.embed_scalar(
                            PadicScalar.zero(CTX, rng.randint(3, 14)))
                    else:
                        m.rows[i].pop(col, None)
            b = {i: fld.from_int(rng.randint(-9, 9)) for i in range(nrows)
                 if rng.random() < 0.7}
            aug = PrecMatrix.from_rows(fld, [[m.entry(i, j) for j in range(ncols)]
                                             + [b.get(i, fld.zero())] for i in range(nrows)])
            (sol,), res = _solve_echelon(aug, ncols, 1)
            ref = row_reduce(m)
            assert res.pivots == ref.pivots
            assert res.ambiguity == ref.ambiguity
            public = solve(m, b, 1)
            assert (public is None) == (sol is None)
            if sol is not None:
                assert {k: repr(v) for k, v in public.items()} == \
                    {k: repr(v) for k, v in sol.items()}
            seen_ambiguity += bool(ref.ambiguity)
            seen_obstruction += sol is None
    assert seen_ambiguity and seen_obstruction


def test_rank_at_refuses_a_pivotless_column_below_its_floor():
    # column 0 holds only a zero known to O(p^12): rank 1 is certified at
    # floor 12, and at floor 13 that zero might be a pivot
    z = QP.embed_scalar(PadicScalar.zero(CTX, 12))
    res = row_reduce(PrecMatrix.from_rows(QP, [[z, 1], [0, 2]]))
    assert res.rank_at(12) == 1
    with pytest.raises(AmbiguousPivot, match="column 0"):
        res.rank_at(13)


def test_valuation_pivoting_keeps_precision():
    # [[p, 1], [1, 0]]: a valuation-0 pivot exists in column 0 and must be used
    m = PrecMatrix.from_rows(QP, [[5, 1], [1, 0]])
    res = row_reduce(m)
    assert len(res.pivots) == 2
    first_pivot_row = res.pivots[0][0]
    assert res.pivots[0][1] == 0
    # the chosen pivot was the unit, not p
    assert m.entry(first_pivot_row, 0).ord_pi() == 0


def test_precision_monotonicity_of_rank():
    # doubling precision never decreases certified rank
    rng = random.Random(23)
    for _ in range(20):
        data = random_int_matrix(rng, 4, 4)
        lo_ctx = PadicContext(5, 8)
        hi_ctx = PadicContext(5, 16)
        lo = PrecMatrix.from_rows(FieldDescriptor.base(lo_ctx), data)
        hi = PrecMatrix.from_rows(FieldDescriptor.base(hi_ctx), data)
        assert rank_at(hi, 12) >= rank_at(lo, 6)


def test_ramified_field_elimination():
    pi = RAM.pi()
    m = PrecMatrix.from_rows(RAM, [[pi, RAM.one()], [RAM.from_int(5), pi]])
    # rows are pi * (1, pi^-1) and pi^2 * (pi^-1 ... ) -- rank 1: row2 = pi*row1
    assert rank_at(m, 30) == 1
    ker = kernel_basis(m, 30)
    assert len(ker) == 1


def test_matmul_and_apply():
    a = PrecMatrix.from_rows(QP, [[1, 2], [3, 4]])
    b = PrecMatrix.from_rows(QP, [[0, 1], [1, 0]])
    c = a.matmul(b)
    assert (c.entry(0, 0) - 2).is_zero_at(15) and (c.entry(0, 1) - 1).is_zero_at(15)
    assert (c.entry(1, 0) - 4).is_zero_at(15) and (c.entry(1, 1) - 3).is_zero_at(15)
