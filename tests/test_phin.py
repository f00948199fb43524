import random
from fractions import Fraction

import pytest

from tatehk.errors import AmbiguousValuation, NotNilpotent
from tatehk.field import FieldDescriptor, KElement, parse_eisenstein
from tatehk.linalg import PrecMatrix
from tatehk.padic import PadicContext, PadicScalar, vp
from tatehk.phin import (FilteredPhiNModule, PhiNModule, branch_transition,
                         exp_unipotent, matrix_det, matrix_inverse, matrix_same_at,
                         tate_object)
from tatehk.plog import LogBranch, log_one_unit

CTX = PadicContext(5, 24)
QP = FieldDescriptor.base(CTX)
RAM = parse_eisenstein("s^2 - 5", CTX)
CAP = CTX.prec


def h1_module(field, r):
    phi = PrecMatrix.from_rows(field, [[1, 0], [0, 5]])
    n_pi = PrecMatrix.from_rows(field, [[0, r], [0, 0]])
    return PhiNModule(field, phi, n_pi)


def test_matrix_det():
    m = PrecMatrix.from_rows(QP, [[1, 0], [0, 5]])
    assert matrix_det(m).same_at(QP.from_int(5), CAP)
    m3 = PrecMatrix.from_rows(QP, [[2, 1, 3], [0, 4, 1], [1, 1, 1]])
    # cofactor expansion done by hand: 2*(4-1) - 1*(0-1) + 3*(0-4)
    assert matrix_det(m3).same_at(QP.from_int(-5), CAP)
    # valuation pivoting takes row 1 first; the sign must follow the rows
    for fld in (QP, RAM):
        swap = PrecMatrix.from_rows(fld, [[5, 1], [1, 0]])
        assert matrix_det(swap).same_at(fld.from_int(-1), fld.e * CAP)
    singular = PrecMatrix.from_rows(QP, [[1, 2], [2, 4]])
    with pytest.raises(AmbiguousValuation):
        matrix_det(singular).ord_pi()
    with pytest.raises(AmbiguousValuation):
        matrix_inverse(singular)
    # 4 known to O(5^3) only: the determinant is zero to that depth, not exactly
    rough = QP.from_int(4) + QP.embed_scalar(PadicScalar.zero(CTX, 3))
    near = PrecMatrix.from_rows(QP, [[1, 2], [2, rough]])
    det = matrix_det(near)
    assert det.ord_pi_or_none() is None and det.cert_prec_pi() == 3
    with pytest.raises(AmbiguousValuation):
        matrix_inverse(near)


def _fraction_inverse(rows):
    """Gauss-Jordan over Q with any nonzero pivot; None when singular."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    return [r[n:] for r in aug]


def _regular(field, x):
    """Matrix of multiplication by x = x_0 + x_1 pi over Q (e <= 2)."""
    if field.e == 1:
        return [[x[0]]]
    a0, a1 = field.coeffs
    return [[x[0], -a0 * x[1]], [x[1], x[0] - a1 * x[1]]]


def test_matrix_inverse_against_fraction_oracle():
    """Every entry of matrix_inverse agrees with the inverse over Q(pi),
    taken by Gauss-Jordan on the matrix of multiplications over Q, to the
    depth it states, and that depth is within a few digits of the cap."""
    rng = random.Random(2024)
    for fld in (QP, RAM):
        e, p = fld.e, fld.ctx.p
        for n in (1, 2, 3, 3, 4):
            rows = [[[Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3)))
                      * p ** rng.choice((0, 0, 1, 2)) for _ in range(e)]
                     for _ in range(n)] for _ in range(n)]
            big = [[_regular(fld, rows[i // e][j // e])[i % e][j % e]
                    for j in range(n * e)] for i in range(n * e)]
            want = _fraction_inverse(big)
            if want is None:
                continue
            mat = PrecMatrix.from_rows(fld, [[KElement(fld, tuple(
                PadicScalar.from_rational(fld.ctx, c) for c in x)) for x in row]
                for row in rows])
            inv = matrix_inverse(mat)
            for i in range(n):
                for j in range(n):
                    got = inv.entry(i, j)
                    assert got.cert_prec_pi() >= e * (CAP - 4)
                    res = [Fraction(c.unit) * Fraction(p) ** c.val - want[i * e + k][j * e]
                           for k, c in enumerate(got.coeffs)]
                    if any(res):
                        assert min(e * (vp(c.numerator, p) - vp(c.denominator, p)) + k
                                   for k, c in enumerate(res) if c) >= got.cert_prec_pi()


def test_exp_unipotent():
    n = PrecMatrix.from_rows(QP, [[0, 1], [0, 0]])
    c = QP.from_int(7)
    e = exp_unipotent(n, c)
    expect = PrecMatrix.from_rows(QP, [[1, 7], [0, 1]])
    assert matrix_same_at(e, expect, CAP)
    zero = PrecMatrix(QP, 2, 2)
    assert matrix_same_at(exp_unipotent(zero, c), PrecMatrix.identity(QP, 2), CAP)
    n3 = PrecMatrix.from_rows(QP, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    e3 = exp_unipotent(n3, QP.from_int(2))
    expect3 = PrecMatrix.from_rows(QP, [[1, 2, 2], [0, 1, 2], [0, 0, 1]])
    assert matrix_same_at(e3, expect3, CAP)
    with pytest.raises(NotNilpotent):
        exp_unipotent(PrecMatrix.identity(QP, 2), c)


def test_relation_and_normalization():
    for r in (1, 2, 3):
        mod = h1_module(QP, r)
        assert mod.check_relation(CAP)
        assert mod.newton_number() == 1
        nn = mod.n_ordp()
        assert nn.entry(0, 1).same_at(QP.from_int(r), CAP)
    mod = h1_module(RAM, 2)
    assert mod.check_relation(2 * CAP)
    assert mod.n_ordp().entry(0, 1).same_at(RAM.one(), 2 * CAP)


def test_base_change_keeps_n_ordp():
    mod = h1_module(QP, 1)
    big = mod.base_change(RAM)
    assert big.field is RAM
    assert matrix_same_at(big.phi, h1_module(RAM, 2).phi, 2 * CAP)
    assert big.n_pi.entry(0, 1).same_at(RAM.from_int(2), 2 * CAP)
    assert big.n_ordp().entry(0, 1).same_at(mod.n_ordp().entry(0, 1).coeffs[0]
                                            * RAM.one(), 2 * CAP)
    assert big.check_relation(2 * CAP)


def test_branch_transition_value():
    # from the branch of q = p to the branch of q' = p(1+p):
    # c = log_q(q') / ord_p(q') = log(1+p), so the factor is [[1, r*c], [0, 1]]
    mod = h1_module(QP, 3)
    b_p = LogBranch(QP, QP.from_int(5), "p")
    b_pq = LogBranch(QP, QP.from_int(5) * QP.from_int(6), "p(1+p)")
    t = branch_transition(mod, b_p, b_pq)
    lv = log_one_unit(QP.from_int(6))
    assert t.entry(0, 0).same_at(QP.one(), CAP)
    assert t.entry(1, 1).same_at(QP.one(), CAP)
    assert t.entry(1, 0).is_zero_at(CAP)
    assert t.entry(0, 1).same_at(lv * QP.from_int(3), CAP - 2)


def test_branch_transition_cocycle():
    mod = h1_module(QP, 2)
    points = [QP.from_int(5),
              QP.from_int(5) * QP.from_int(6),
              QP.from_int(25) * QP.from_int(1 + 2 * 5)]
    branches = [LogBranch(QP, q) for q in points]
    for a in branches:
        for b in branches:
            t_ab = branch_transition(mod, a, b)
            t_ba = branch_transition(mod, b, a)
            assert matrix_same_at(t_ab.matmul(t_ba),
                                  PrecMatrix.identity(QP, 2), CAP - 3)
            for c in branches:
                t_bc = branch_transition(mod, b, c)
                t_ac = branch_transition(mod, a, c)
                assert matrix_same_at(t_ab.matmul(t_bc), t_ac, CAP - 3)
    # transition from a branch to itself is the identity
    for a in branches:
        assert matrix_same_at(branch_transition(mod, a, a),
                              PrecMatrix.identity(QP, 2), CAP - 3)


def test_tate_objects():
    k0 = tate_object(QP, 0)
    assert k0.dim == 1
    assert k0.phi.entry(0, 0).same_at(QP.one(), CAP)
    assert k0.newton_number() == 0 and k0.hodge_number() == 0
    assert k0.is_weakly_admissible_numerically()
    km1 = tate_object(QP, -1)
    assert km1.phi.entry(0, 0).same_at(QP.from_int(5), CAP)
    assert km1.newton_number() == 1 and km1.hodge_number() == 1
    assert km1.is_weakly_admissible_numerically()
    k1 = tate_object(QP, 1)
    assert k1.newton_number() == -1 and k1.hodge_number() == -1
    for m in (k0, km1, k1):
        assert m.check_relation(CAP)


def test_filtered_module_h1_shape():
    one, zero = QP.one(), QP.zero()
    filt = {0: [[one, zero], [zero, one]], 1: [[zero, one]]}
    mod = FilteredPhiNModule(QP, PrecMatrix.from_rows(QP, [[1, 0], [0, 5]]),
                             PrecMatrix.from_rows(QP, [[0, 1], [0, 0]]), filt)
    assert mod.gr_dims() == {0: 1, 1: 1}
    assert mod.hodge_number() == 1
    assert mod.newton_number() == 1
    assert mod.is_weakly_admissible_numerically()


def test_filtration_validation():
    one, zero = QP.one(), QP.zero()
    phi = PrecMatrix.from_rows(QP, [[1, 0], [0, 5]])
    n_pi = PrecMatrix(QP, 2, 2)
    full = [[one, zero], [zero, one]]
    with pytest.raises(ValueError):
        FilteredPhiNModule(QP, phi, n_pi, {0: full, 2: [[zero, one]]})
    with pytest.raises(ValueError):
        FilteredPhiNModule(QP, phi, n_pi, {0: [[zero, one]]})
    with pytest.raises(ValueError):
        FilteredPhiNModule(QP, phi, n_pi, {0: full, 1: full + [[one, one]]})
    with pytest.raises(ValueError):
        FilteredPhiNModule(QP, phi, n_pi, {})
