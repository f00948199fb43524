"""Chart algebra tests: differentials, products, restrictions, Frobenius,
and specialization to the fiber, checked against hand-computed values and
seeded random consistency loops."""

import random
from fractions import Fraction

import pytest

from tatehk.charts import XF, WF, ChartElement, FiberElement, W, Z
from tatehk.errors import ChartMismatch
from tatehk.field import FieldDescriptor, KElement, parse_eisenstein
from tatehk.padic import PadicContext, PadicScalar

CTX = PadicContext(5, 12)
QP = FieldDescriptor.base(CTX)
RAM = parse_eisenstein("s^2 - 5", CTX)

R = 3
S = 12
T = 12
CAP = CTX.prec  # pi-adic certificate cap over the base field


def zmono(i, j, c=1, degree=0, slot=0, n=1, field=QP):
    return ChartElement.monomial(field, R, Z, n, degree, S, T, i, j, slot,
                                 field.from_int(c))


def wmono(i, j, c=1, degree=0, slot=0, n=1, field=QP):
    return ChartElement.monomial(field, R, W, n, degree, S, T, i, j, slot,
                                 field.from_int(c))


def coeff_map(el):
    """Exact signed integer coefficients of an element (test-side view)."""
    out = {}
    for key, c in el.items():
        if el.field.e == 1:
            v = c.coeffs[0]
            if v.is_zero():
                m = 0
            else:
                m = v.lift()
                modulus = CTX.p ** v.prec
                if m > modulus // 2:
                    m -= modulus
            out[key] = m
        else:
            out[key] = c
    return {k: v for k, v in out.items() if v != 0}


def assert_same(x, y, floor=CAP):
    assert x.kind == y.kind and x.n == y.n and x.degree == y.degree
    assert (x - y).is_zero_at(floor)


def random_function(rng, kind, n, field=QP, span=3):
    el = ChartElement.zero(field, R, kind, n, 0, S, T)
    for _ in range(rng.randrange(1, 5)):
        i = rng.randrange(0, span)
        j = rng.randrange(-span, span + 1)
        c = rng.randrange(-9, 10)
        el = el + ChartElement.monomial(field, R, kind, n, 0, S, T, i, j, 0,
                                        field.from_int(c))
    return el


def random_one_form(rng, kind, n, field=QP, span=3):
    el = ChartElement.zero(field, R, kind, n, 1, S, T)
    for _ in range(rng.randrange(1, 5)):
        i = rng.randrange(0, span)
        j = rng.randrange(-span, span + 1)
        slot = rng.randrange(2)
        c = rng.randrange(-9, 10)
        el = el + ChartElement.monomial(field, R, kind, n, 1, S, T, i, j, slot,
                                        field.from_int(c))
    return el


# -- differentials ---------------------------------------------------------


def test_d_on_z_generators():
    assert coeff_map(zmono(0, 1).d()) == {(0, 1, 0): 1}            # d(v)
    assert coeff_map(zmono(0, -1).d()) == {(0, -1, 1): 1}          # d(w)
    assert coeff_map(zmono(1, 0).d()) == {(1, 0, 0): 1, (1, 0, 1): 1}  # d(s)
    assert coeff_map(zmono(2, 3).d()) == {(2, 3, 0): 5, (2, 3, 1): 2}
    assert coeff_map(zmono(2, -3).d()) == {(2, -3, 0): 2, (2, -3, 1): 5}
    assert zmono(0, 0, 7).d().coeffs == {}


def test_d_on_w_generators():
    assert coeff_map(wmono(0, 1).d()) == {(0, 1, 1): 1}            # d(w)
    assert coeff_map(wmono(0, -1).d()) == {(0, -1, 1): -1}         # d(1/w)
    assert coeff_map(wmono(1, 0).d()) == {(1, 0, 0): 1, (1, 0, 1): 1}
    assert coeff_map(wmono(2, -5).d()) == {(2, -5, 0): 2, (2, -5, 1): -3}


def test_d_squared_is_exactly_zero():
    rng = random.Random(11)
    for _ in range(40):
        kind = rng.choice([Z, W])
        f = random_function(rng, kind, 1)
        dd = f.d().d()
        assert dd.coeffs == {} and not dd.overflow


def test_d_on_one_forms():
    # d(v dlog w) = 1 * v dlog v ^ dlog w, d(v dlog v) = 0
    assert coeff_map(zmono(0, 1, degree=1, slot=1).d()) == {(0, 1, 0): 1}
    assert coeff_map(zmono(0, 1, degree=1, slot=0).d()) == {}
    # d(w dlog v) = -1 * w vw-form
    assert coeff_map(zmono(0, -1, degree=1, slot=0).d()) == {(0, -1, 0): -1}
    # from the top degree d is the zero map
    top = zmono(0, 0, degree=2).d()
    assert top.degree == 3 and top.coeffs == {}


# -- products --------------------------------------------------------------


def test_v_times_w_is_s():
    prod = zmono(0, 1).mul(zmono(0, -1))
    assert coeff_map(prod) == {(1, 0, 0): 1}


def test_mixed_products_reduce():
    # (s v^2) * (s w^3) = s^2 v^2 w^3 = s^4 w
    prod = zmono(1, 2).mul(zmono(1, -3))
    assert coeff_map(prod) == {(4, -1, 0): 1}
    # on W charts indices just add
    prod = wmono(1, 2, 3).mul(wmono(2, -5, 2))
    assert coeff_map(prod) == {(3, -3, 0): 6}


def test_function_product_commutative_and_associative():
    rng = random.Random(23)
    for _ in range(25):
        kind = rng.choice([Z, W])
        f = random_function(rng, kind, 2)
        g = random_function(rng, kind, 2)
        h = random_function(rng, kind, 2)
        assert_same(f.mul(g), g.mul(f))
        assert_same(f.mul(g).mul(h), f.mul(g.mul(h)))


def test_wedge_antisymmetry():
    rng = random.Random(29)
    for _ in range(25):
        kind = rng.choice([Z, W])
        a = random_one_form(rng, kind, 1)
        b = random_one_form(rng, kind, 1)
        assert_same(a.mul(b), -(b.mul(a)))
        assert a.mul(b).mul(a).coeffs == {}  # three-fold wedges vanish


def test_d_is_a_derivation():
    rng = random.Random(31)
    for _ in range(25):
        kind = rng.choice([Z, W])
        f = random_function(rng, kind, 3)
        g = random_function(rng, kind, 3)
        assert_same(f.mul(g).d(), f.mul(g.d()) + g.mul(f.d()))


# -- restrictions ----------------------------------------------------------


def test_restrict_nat_on_generators():
    assert coeff_map(zmono(0, 1).restrict_nat()) == {(1, -1, 0): 1}   # v -> s/w
    assert coeff_map(zmono(0, -1).restrict_nat()) == {(0, 1, 0): 1}   # w -> w
    assert coeff_map(zmono(1, 0).restrict_nat()) == {(1, 0, 0): 1}    # s -> s
    form = zmono(2, 3, 4, degree=1, slot=0).restrict_nat()
    assert coeff_map(form) == {(5, -3, 0): 4}


def test_restrict_twist_on_generators():
    # gluing Z_2 -> W_1: v -> 1/w, w -> s w, s -> s
    assert coeff_map(zmono(0, 1, n=2).restrict_twist(1)) == {(0, -1, 0): 1}
    assert coeff_map(zmono(0, -1, n=2).restrict_twist(1)) == {(1, 1, 0): 1}
    assert coeff_map(zmono(1, 0, n=2).restrict_twist(1)) == {(1, 0, 0): 1}
    # wrap-around: Z_1 glues onto W_r
    assert coeff_map(zmono(0, 1, n=1).restrict_twist(R)) == {(0, -1, 0): 1}
    with pytest.raises(ChartMismatch):
        zmono(0, 1, n=3).restrict_twist(1)


def test_restrict_twist_on_forms():
    # dlog v -> -dlog w, dlog w -> dlog v + 2 dlog w
    dv = zmono(0, 0, degree=1, slot=0, n=2).restrict_twist(1)
    assert coeff_map(dv) == {(0, 0, 1): -1}
    dw = zmono(0, 0, degree=1, slot=1, n=2).restrict_twist(1)
    assert coeff_map(dw) == {(0, 0, 0): 1, (0, 0, 1): 2}
    # dlog s = dlog v + dlog w is preserved by both restrictions
    dlogs = zmono(0, 0, degree=1, slot=0, n=2) + zmono(0, 0, degree=1, slot=1, n=2)
    assert coeff_map(dlogs.restrict_twist(1)) == {(0, 0, 0): 1, (0, 0, 1): 1}
    assert coeff_map(dlogs.restrict_nat()) == {(0, 0, 0): 1, (0, 0, 1): 1}
    # top forms transform with determinant one; s v^2 -> s w^{-2}
    vw = zmono(1, 2, 3, degree=2, slot=0, n=2).restrict_twist(1)
    assert coeff_map(vw) == {(1, -2, 0): 3}


def test_restrictions_are_ring_and_chain_maps():
    rng = random.Random(37)
    for _ in range(25):
        f = random_function(rng, Z, 2)
        g = random_function(rng, Z, 2)
        a = random_one_form(rng, Z, 2)
        assert_same(f.mul(g).restrict_nat(), f.restrict_nat().mul(g.restrict_nat()))
        assert_same(f.mul(g).restrict_twist(1),
                    f.restrict_twist(1).mul(g.restrict_twist(1)))
        assert_same(f.d().restrict_nat(), f.restrict_nat().d())
        assert_same(f.d().restrict_twist(1), f.restrict_twist(1).d())
        assert_same(a.d().restrict_nat(), a.restrict_nat().d())
        assert_same(a.d().restrict_twist(1), a.restrict_twist(1).d())


# -- Frobenius ---------------------------------------------------------------


def test_frobenius_on_monomials():
    assert coeff_map(zmono(1, -2).frobenius()) == {(5, -10, 0): 1}
    assert coeff_map(zmono(0, 0, 3, degree=1, slot=1).frobenius()) == {(0, 0, 1): 15}
    assert coeff_map(zmono(0, 0, 1, degree=2).frobenius()) == {(0, 0, 0): 25}


def test_frobenius_commutes_with_d_and_products():
    rng = random.Random(41)
    for _ in range(25):
        kind = rng.choice([Z, W])
        f = random_function(rng, kind, 1, span=2)
        g = random_function(rng, kind, 1, span=2)
        assert_same(f.d().frobenius(), f.frobenius().d())
        assert_same(f.mul(g).frobenius(), f.frobenius().mul(g.frobenius()))


def test_frobenius_overflow_is_flagged():
    el = zmono(3, 0)
    fr = el.frobenius()  # s^15 falls outside S = 12
    assert fr.overflow and fr.coeffs == {}
    total = fr + zmono(0, 0)
    assert total.overflow


# -- specialization to the fiber ---------------------------------------------


def fiber_point(field):
    return field.pi()


def test_specialize_monomials():
    a = fiber_point(RAM)
    el = zmono(2, 3, 7).specialize(a, RAM)
    assert el.kind == XF and el.degree == 0
    ((j, slot), c), = el.items()
    assert (j, slot) == (3, 0)
    assert (c - RAM.from_int(7) * a ** 2).is_zero_at(2 * CAP)
    wl = wmono(1, -2, 3).specialize(a, RAM)
    assert wl.kind == WF
    ((j, slot), c), = wl.items()
    assert (j, slot) == (-2, 0)
    assert (c - RAM.from_int(3) * a).is_zero_at(2 * CAP)


def test_specialize_collapses_forms():
    a = fiber_point(RAM)
    # f dlog v + g dlog w -> (f - g) dlog v
    omega = zmono(0, 1, 4, degree=1, slot=0) + zmono(0, 1, 9, degree=1, slot=1)
    sp = omega.specialize(a, RAM)
    ((j, slot), c), = sp.items()
    assert (j, slot) == (1, 0)
    assert (c - RAM.from_int(-5)).is_zero_at(2 * CAP)
    top = zmono(1, 1, 3, degree=2).specialize(a, RAM)
    assert top.degree == 2 and top.coeffs == {}


def test_specialize_is_a_ring_and_chain_map():
    rng = random.Random(43)
    a = fiber_point(RAM)
    for _ in range(20):
        kind = rng.choice([Z, W])
        f = random_function(rng, kind, 1, span=2)
        g = random_function(rng, kind, 1, span=2)
        lhs = f.mul(g).specialize(a, RAM)
        rhs = f.specialize(a, RAM).mul(g.specialize(a, RAM), a)
        assert (lhs - rhs).is_zero_at(2 * CAP - 8)
        assert (f.d().specialize(a, RAM) - f.specialize(a, RAM).d()).is_zero_at(2 * CAP - 8)


def test_specialize_commutes_with_restrictions():
    rng = random.Random(47)
    a = fiber_point(RAM)
    for _ in range(20):
        f = random_function(rng, Z, 2, span=2)
        om = random_one_form(rng, Z, 2, span=2)
        for x in (f, om):
            lhs = x.restrict_nat().specialize(a, RAM)
            rhs = x.specialize(a, RAM).restrict_nat(a)
            assert (lhs - rhs).is_zero_at(2 * CAP - 8)
            lhs = x.restrict_twist(1).specialize(a, RAM)
            rhs = x.specialize(a, RAM).restrict_twist(1, a)
            assert (lhs - rhs).is_zero_at(2 * CAP - 8)


def test_fiber_differential():
    a = fiber_point(RAM)
    x = FiberElement.monomial(RAM, R, XF, 1, 0, T, 3, 0, RAM.from_int(2))
    assert [(k, c.coeffs[0].lift()) for k, c in x.d().items()] == [((3, 0), 6)]
    w = FiberElement.monomial(RAM, R, WF, 1, 0, T, 2, 0, RAM.from_int(1))
    ((j, slot), c), = w.d().items()
    assert (j, slot) == (2, 0) and (c + RAM.from_int(2)).is_zero_at(2 * CAP)
    om = FiberElement.monomial(RAM, R, XF, 1, 1, T, 3, 0, RAM.one())
    assert om.d().degree == 2 and om.d().coeffs == {}
    # v w = pi on the fiber
    v = FiberElement.monomial(RAM, R, XF, 1, 0, T, 1, 0, RAM.one())
    winv = FiberElement.monomial(RAM, R, XF, 1, 0, T, -1, 0, RAM.one())
    prod = v.mul(winv, a)
    ((j, slot), c), = prod.items()
    assert (j, slot) == (0, 0) and (c - a).is_zero_at(2 * CAP)
    # d multiplies by j as a Q_p scalar: on d((1/5 + 3 pi) w^2) coefficient
    # 1 keeps O(p^CAP), where the product in K by the embedded -2 drops a digit
    c = RAM.from_rational(Fraction(1, 5)) + 3 * RAM.pi()
    w2 = FiberElement.monomial(RAM, R, XF, 1, 0, T, -2, 0, c)
    ((j, slot), dc), = w2.d().items()
    assert (j, slot) == (-2, 0)
    assert [dc.coeff(i) for i in (0, 1)] == [c.scale(-2).coeff(i) for i in (0, 1)]
    assert dc.coeff(1)[2] == CAP


def test_chart_mismatch_guards():
    with pytest.raises(ChartMismatch):
        zmono(0, 0) + wmono(0, 0)
    with pytest.raises(ChartMismatch):
        zmono(0, 0, n=1) + zmono(0, 0, n=2)
    with pytest.raises(ChartMismatch):
        zmono(0, 0, degree=1) + zmono(0, 0)
    with pytest.raises(ChartMismatch):
        wmono(0, 0).restrict_nat()


# -- the sparse core shared by chart and fiber forms ------------------------


def chart_form(key, c=1, degree=0, n=1, window=(S, T), field=QP):
    return ChartElement.monomial(field, R, Z, n, degree, *window, *key,
                                 field.from_int(c))


def fiber_form(key, c=1, degree=0, n=1, window=(T,), field=RAM):
    return FiberElement.monomial(field, R, XF, n, degree, *window, *key,
                                 field.from_int(c))


# (form factory, its field, three keys in the window, a key outside the
# window, a smaller window, a form of the other class over the same field)
SPARSE_CORES = {
    "chart": (chart_form, QP, [(0, 1, 0), (2, -1, 0), (1, 0, 0)], (S + 1, 0, 0),
              (S, T - 1), lambda: fiber_form((0, 0), field=QP)),
    "fiber": (fiber_form, RAM, [(1, 0), (-2, 0), (0, 0)], (T + 1, 0),
              (T - 1,), lambda: chart_form((0, 0, 0), field=RAM)),
}


@pytest.mark.parametrize("core", sorted(SPARSE_CORES))
def test_shared_sparse_core(core):
    form, field, (k0, k1, k2), outside, small, other_class = SPARSE_CORES[core]
    cap = field.e * CTX.prec

    def assert_coeffs(el, want):
        assert set(el.coeffs) == set(want)
        for key, n in want.items():
            assert (el.coeffs[key] - field.from_int(n)).is_zero_at(cap)

    # sum, difference and negation; a cancelled term is pruned
    a = form(k0, 3) + form(k1, 5)
    b = form(k1, -5) + form(k2, 7)
    assert_coeffs(a + b, {k0: 3, k2: 7})
    assert_coeffs(a - b, {k0: 3, k1: 10, k2: -7})
    assert_coeffs(-a, {k0: -3, k1: -5})
    assert_coeffs(a - a, {})
    assert [k for k, _ in (a + b).items()] == sorted([k0, k2])
    # scaling by a K element and by a base scalar; a zero scale is pruned
    assert_coeffs(a.scale(field.from_int(-2)), {k0: -6, k1: -10})
    assert_coeffs(a.scale(PadicScalar.from_int(CTX, 4)), {k0: 12, k1: 20})
    assert a.scale(field.zero()).coeffs == {}
    assert a.scale(PadicScalar.zero(CTX)).coeffs == {}
    # zero tests at a floor and the certified residual depth
    deep = form(k0, 5 ** 3) + form(k2, 5 ** 4)
    assert deep.is_zero_at(3 * field.e) and not deep.is_zero_at(3 * field.e + 1)
    assert deep.residual_prec() == 3 * field.e
    assert form(k0, 0).coeffs == {} and form(k0, 0).residual_prec() == cap
    assert form(k0, 0).is_zero_at(cap)
    # a monomial outside the window is dropped and taints every sum
    out = form(outside, 1)
    assert out.overflow and out.coeffs == {}
    assert not a.overflow
    assert (a + out).overflow and (out + a).overflow and (-out).overflow
    assert (a + out).coeffs == a.coeffs
    assert out.scale(field.from_int(2)).overflow
    # guards: chart index, degree, window, and a form of the other class
    for bad in (form(k0, n=2), form(k0, degree=1), form(k0, window=small),
                other_class()):
        with pytest.raises(ChartMismatch):
            form(k0) + bad
        with pytest.raises(ChartMismatch):
            bad + form(k0)
        with pytest.raises(ChartMismatch):
            form(k0) - bad


def test_scale_by_one_is_the_full_product_or_skips_it_exactly():
    """scale(1) gives, key for key, what scaling every coefficient by 1 gives,
    with a prunable zero dropped: over Q_5 and s^2 - 5, for coefficients of
    negative valuation, known below the cap, and zero below the cap. A
    coefficient known beyond the cap still comes back capped."""
    def triples(x):
        return [x.coeff(i) for i in range(x.field.e)]

    for field in (QP, RAM):
        e = field.e
        high = KElement(field, (PadicScalar.from_int(CTX, 1, prec=CAP + 5),)
                        + (PadicScalar.zero(CTX),) * (e - 1))
        within = {(0, 0, 0): field.from_int(7),
                  (1, 2, 0): field.from_rational(Fraction(3, 5)),
                  (2, -1, 0): KElement(field, (PadicScalar.from_int(CTX, 4, prec=CAP - 3),) * e),
                  (1, 1, 0): KElement(field, (PadicScalar.zero(CTX, CAP - 2),) * e),
                  (3, 0, 0): field.zero()}
        for coeffs in (within, {**within, (2, 2, 0): high}):
            form = ChartElement(field, R, Z, 1, 0, S, T, coeffs=dict(coeffs))
            got = form.scale(1)
            want = {k: v.scale(1) for k, v in coeffs.items()}
            assert set(got.coeffs) == set(coeffs) - {(3, 0, 0)}
            assert all(triples(got.coeffs[k]) == triples(want[k]) for k in got.coeffs)
    high = KElement(QP, (PadicScalar.from_int(CTX, 1, prec=CAP + 5),))
    form = ChartElement(QP, R, Z, 1, 0, S, T, coeffs={(0, 0, 0): high})
    assert form.scale(1).coeffs[(0, 0, 0)].coeff(0) == (0, 1, CAP)
