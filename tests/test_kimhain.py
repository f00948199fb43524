"""Divided-power algebra tests: the u-extension differential, monodromy,
Frobenius, their commutation relations, and evaluation at the fiber."""

import random

from tatehk.charts import ChartElement, W, Z
from tatehk.field import FieldDescriptor, parse_eisenstein
from tatehk.kimhain import UForm
from tatehk.padic import PadicContext

CTX = PadicContext(5, 12)
QP = FieldDescriptor.base(CTX)
RAM = parse_eisenstein("s^2 - 5", CTX)

R = 2
S = 12
T = 12
U = 4
CAP = CTX.prec


def chart_mono(kind, n, degree, i, j, slot, c):
    return ChartElement.monomial(QP, R, kind, n, degree, S, T, i, j, slot,
                                 QP.from_int(c))


def umono(u_order, kind=Z, n=1, degree=0, i=0, j=0, slot=0, c=1):
    return UForm.from_chart(chart_mono(kind, n, degree, i, j, slot, c), U, u_order)


def random_uform(rng, kind, n, degree, span=2, umax=2):
    el = UForm.zero(QP, R, kind, n, degree, S, T, U)
    for _ in range(rng.randrange(1, 5)):
        i = rng.randrange(0, span)
        j = rng.randrange(-span, span + 1)
        slot = rng.randrange(2) if degree == 1 else 0
        c = rng.randrange(-9, 10)
        el = el + umono(rng.randrange(umax + 1), kind, n, degree, i, j, slot, c)
    return el


def assert_zero(x, floor=CAP):
    assert x.is_zero_at(floor), repr(x)


def test_divided_power_products():
    x = umono(1)
    prod = x.mul(x)
    assert list(prod.levels) == [2]
    assert prod.level(2).coeffs[(0, 0, 0)].coeffs[0].lift() == 2
    cube = prod.mul(x)
    assert cube.level(3).coeffs[(0, 0, 0)].coeffs[0].lift() == 6
    # (2 u^[2])^2 = 4 * C(4,2) u^[4] = 24 u^[4]
    quad = prod.mul(prod)
    assert quad.level(4).coeffs[(0, 0, 0)].coeffs[0].lift() == 24
    over = quad.mul(x)
    assert over.ucap_overflow and not over.levels


def test_kh_d_on_u():
    # d(u^[1]) = -dlog s at u-order zero
    du = umono(1).d()
    assert list(du.levels) == [0]
    level0 = du.level(0)
    vals = {k: c.coeffs[0] for k, c in level0.items()}
    assert set(vals) == {(0, 0, 0), (0, 0, 1)}
    assert all((v + 1).is_zero() or (v + QP.one().coeffs[0]).is_zero() for v in vals.values())
    # d(f u^[0]) has no u-tail
    assert list(umono(0, i=1, j=1, c=3).d().levels) == [0]
    # one-forms: the tail of d(dlog v u^[1]) is +dlog v ^ dlog w, that of
    # d(dlog w u^[1]) is -dlog v ^ dlog w (the chart d of v^0 w^0 is zero)
    for slot, sign in ((0, 1), (1, -1)):
        dw = umono(1, degree=1, slot=slot).d()
        assert list(dw.levels) == [0]
        tail = dw.level(0)
        assert tail.degree == 2 and set(tail.coeffs) == {(0, 0, 0)}
        assert (tail.coeffs[(0, 0, 0)] - QP.from_int(sign)).is_zero()


def test_kh_d_squared_is_zero():
    rng = random.Random(53)
    for _ in range(30):
        kind = rng.choice([Z, W])
        x = random_uform(rng, kind, 1, rng.choice([0, 1]))
        assert_zero(x.d().d())
        dd = x.d().d()
        assert all(not el.coeffs for el in dd.levels.values())


def test_kh_d_leibniz():
    rng = random.Random(59)
    for _ in range(25):
        kind = rng.choice([Z, W])
        f = random_uform(rng, kind, 1, 0)
        g = random_uform(rng, kind, 1, 0)
        om = random_uform(rng, kind, 1, 1, umax=1)
        assert_zero(f.mul(g).d() - f.d().mul(g) - f.mul(g.d()))
        # f of degree 0, om of degree 1: d(f om) = df ^ om + f d(om)
        assert_zero(f.mul(om).d() - f.d().mul(om) - f.mul(om.d()))


def test_monodromy_properties():
    rng = random.Random(61)
    x = umono(3, c=7)
    assert list(x.N().levels) == [2]
    assert list(x.N().N().N().N().levels) == []
    for _ in range(25):
        kind = rng.choice([Z, W])
        f = random_uform(rng, kind, 1, 0)
        g = random_uform(rng, kind, 1, 0)
        # N is a derivation and commutes with d
        assert_zero(f.mul(g).N() - f.N().mul(g) - f.mul(g.N()))
        assert_zero(f.d().N() - f.N().d())


def test_frobenius_relations():
    rng = random.Random(67)
    for _ in range(20):
        kind = rng.choice([Z, W])
        f = random_uform(rng, kind, 1, 0, span=2, umax=2)
        g = random_uform(rng, kind, 1, 0, span=2, umax=1)
        # N phi = p phi N
        assert_zero(f.frobenius().N() - f.N().frobenius().scale(5))
        # phi is multiplicative and a chain map
        assert_zero(f.mul(g).frobenius() - f.frobenius().mul(g.frobenius()))
        assert_zero(f.frobenius().d() - f.d().frobenius())


def test_restrictions_commute_with_u_operators():
    rng = random.Random(71)
    for _ in range(20):
        x = random_uform(rng, Z, 2, rng.choice([0, 1]))
        assert_zero(x.d().restrict_nat() - x.restrict_nat().d())
        assert_zero(x.d().restrict_twist(1) - x.restrict_twist(1).d())
        assert_zero(x.N().restrict_nat() - x.restrict_nat().N())
        assert_zero(x.N().restrict_twist(1) - x.restrict_twist(1).N())


def test_psi_evaluate_substitutes():
    a = RAM.pi()
    lam = RAM.from_int(3) * a
    # f u^[0] + g u^[1] evaluates to f(a) + lam g(a)
    x = umono(0, i=1, j=0, c=2) + umono(1, i=0, j=1, c=5)
    fe = x.evaluate(lam, a, RAM)
    assert fe.kind == "XF"
    got = dict(fe.items())
    expect0 = RAM.from_int(2) * a
    expect1 = RAM.from_int(5) * lam
    assert (got[(0, 0)] - expect0).is_zero_at(2 * CAP - 4)
    assert (got[(1, 0)] - expect1).is_zero_at(2 * CAP - 4)
    # u^[2] picks up lam^2 / 2
    y = umono(2, c=4)
    fe = y.evaluate(lam, a, RAM)
    ((_, _), c), = fe.items()
    expect = RAM.from_int(2) * lam * lam
    assert (c - expect).is_zero_at(2 * CAP - 4)


def test_psi_evaluate_is_a_chain_map():
    # dlog s dies on the fiber, so evaluation intertwines UForm.d with the fiber d
    rng = random.Random(73)
    a = RAM.pi()
    lam = RAM.from_int(2) * a
    for _ in range(20):
        kind = rng.choice([Z, W])
        x = random_uform(rng, kind, 1, 0, span=2, umax=2)
        lhs = x.d().evaluate(lam, a, RAM)
        rhs = x.evaluate(lam, a, RAM).d()
        assert (lhs - rhs).is_zero_at(2 * CAP - 6)


def test_psi_evaluate_is_multiplicative():
    rng = random.Random(79)
    a = RAM.pi()
    lam = RAM.from_int(2) * a
    for _ in range(15):
        kind = rng.choice([Z, W])
        f = random_uform(rng, kind, 1, 0, span=1, umax=2)
        g = random_uform(rng, kind, 1, 0, span=1, umax=2)
        lhs = f.mul(g).evaluate(lam, a, RAM)
        rhs = f.evaluate(lam, a, RAM).mul(g.evaluate(lam, a, RAM), a)
        assert (lhs - rhs).is_zero_at(2 * CAP - 8)


def test_a_kim_hain_trial_never_scales_by_one(monkeypatch):
    """UForm.mul scales by C(i + j, i) and UForm.frobenius by p^k only when
    the factor is not 1: a kim_hain_algebra trial scales forms, but never by
    the int 1."""
    from tatehk.charts import _SparseForm
    from tatehk.pipeline import verify_suite
    factors = []
    scale = _SparseForm.scale

    def recorded(self, c):
        factors.append(c)
        return scale(self, c)

    monkeypatch.setattr(_SparseForm, "scale", recorded)
    verify_suite("kim_hain_algebra", p=3, prec=14, r=2, seed=1, trials=1)
    assert factors
    assert not any(isinstance(c, int) and c == 1 for c in factors)
