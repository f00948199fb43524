"""Scalar and extension-field arithmetic against exact rational oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatehk.errors import (AmbiguousValuation, DivisionByIndistinguishableZero,
                           NotAOneUnit)
from tatehk.field import (FieldDescriptor, KElement, k_teichmuller, parse_eisenstein,
                          parse_element, unit_decompose)
from tatehk.padic import (PRIME_BOUND, PadicContext, PadicScalar, _is_prime,
                          teichmuller, vp)


def frac_vp(q: Fraction, p: int) -> int:
    assert q != 0
    return vp(q.numerator, p) - vp(q.denominator, p)


def agrees_with_fraction(x: PadicScalar, q: Fraction) -> bool:
    """x == q modulo p^(x.prec), checked with exact rationals."""
    d = Fraction(x.lift()) - q
    if d == 0:
        return True
    return frac_vp(d, x.ctx.p) >= x.prec


CTX5 = PadicContext(5, 20)
CTX3 = PadicContext(3, 20)


def test_embed_and_normal_form():
    x = PadicScalar.from_int(CTX5, 50)
    assert x.val == 2 and x.unit == 2 and x.prec == 22
    assert x.ord() == 2
    z = PadicScalar.from_int(CTX5, 0)
    assert z.is_zero() and z.prec == 20
    with pytest.raises(AmbiguousValuation):
        z.ord()


def test_add_full_precision():
    one = PadicScalar.from_int(CTX5, 1)
    two = one + one
    assert two.lift() == 2 and two.prec == 20 and not two.is_zero()


def test_mul_precision_rule():
    # prec(xy) = min(val_x + prec_y, val_y + prec_x)
    x = PadicScalar.from_int(CTX5, 25)   # val 2, prec 22
    y = PadicScalar.from_int(CTX5, 2)    # val 0, prec 20
    assert (x * y).prec == min(2 + 20, 0 + 22)
    assert (x * y).ord() == 2


def test_division_tracks_relative_precision():
    x = PadicScalar.from_int(CTX5, 1)
    y = PadicScalar.from_int(CTX5, 25)
    q = x / y
    assert q.ord() == -2
    assert q.prec == -2 + 20
    with pytest.raises(DivisionByIndistinguishableZero):
        x / PadicScalar.zero(CTX5)


def test_arithmetic_against_rationals():
    rng = random.Random(20260814)
    for _ in range(300):
        a = Fraction(rng.randint(-500, 500), rng.choice([1, 1, 2, 3, 7]))
        b = Fraction(rng.randint(-500, 500), rng.choice([1, 1, 2, 3, 7]))
        x = PadicScalar.from_rational(CTX5, a)
        y = PadicScalar.from_rational(CTX5, b)
        assert agrees_with_fraction(x + y, a + b)
        assert agrees_with_fraction(x - y, a - b)
        assert agrees_with_fraction(x * y, a * b)
        if b != 0 and frac_vp(b, 5) == 0:
            assert agrees_with_fraction(x / y, a / b)


def test_ord_is_additive():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randint(1, 10 ** 6) * 5 ** rng.randint(0, 3)
        b = rng.randint(1, 10 ** 6) * 5 ** rng.randint(0, 3)
        x = PadicScalar.from_int(CTX5, a)
        y = PadicScalar.from_int(CTX5, b)
        assert (x * y).ord() == vp(a, 5) + vp(b, 5)


def test_teichmuller_oracle():
    # omega(a) = a^(p^(prec-1)) mod p^prec, independent congruence oracle
    for ctx, a in [(CTX5, 2), (CTX5, 3), (CTX5, 4), (CTX3, 2)]:
        t = teichmuller(PadicScalar.from_int(ctx, a))
        oracle = pow(a, ctx.p ** (ctx.prec - 1), ctx.p ** ctx.prec)
        assert t.lift() % ctx.p ** ctx.prec == oracle
        assert t.lift() % ctx.p == a
        # root of unity of order dividing p-1
        pw = t ** (ctx.p - 1)
        assert (pw - 1).is_zero() and (pw - 1).prec >= ctx.prec


def test_teichmuller_rejects_non_units():
    with pytest.raises(NotAOneUnit):
        teichmuller(PadicScalar.from_int(CTX5, 10))


# -- extension field ----------------------------------------------------------


F_RAM = parse_eisenstein("s^2-5", CTX5)
F_BASE = FieldDescriptor.base(CTX5)


def test_eisenstein_parse_and_validate():
    assert F_RAM.e == 2 and F_RAM.coeffs == (Fraction(-5), Fraction(0))
    assert parse_eisenstein("s^3+5*s+10", CTX5).e == 3
    with pytest.raises(ValueError):
        parse_eisenstein("s^2-3", CTX5)     # constant term a unit
    with pytest.raises(ValueError):
        parse_eisenstein("s^2-25", CTX5)    # constant term valuation 2
    with pytest.raises(ValueError):
        parse_eisenstein("2*s^2-5", CTX5)   # not monic


def test_pi_squares_to_five():
    pi = F_RAM.pi()
    d = pi * pi - F_RAM.from_int(5)
    assert d.is_zero_at(40)
    assert pi.ord_pi() == 1
    assert F_RAM.from_int(5).ord_pi() == 2
    assert F_RAM.from_int(5).ord_p() == 1
    assert pi.ord_p() == Fraction(1, 2)


def test_base_field_is_degenerate_descriptor():
    pi = F_BASE.pi()
    assert pi.coeffs[0].lift() == 5
    assert pi.ord_pi() == 1 and pi.ord_p() == 1


def test_pi_inverse():
    for fld in (F_RAM, F_BASE):
        x = fld.pi() * fld.pi_inv()
        assert (x - fld.one()).is_zero_at(fld.e * 18)
    # pi^-1 is exact but for its one division by p, and a shift by pi^-k of
    # an element known to the cap costs exactly k digits
    for f in ("s^2-5", "s^3-5", "s^4+5*s^3+5"):
        fld = parse_eisenstein(f, CTX5)
        cap = fld.e * CTX5.prec
        assert fld.pi_inv().cert_prec_pi() == cap - 1
        assert (fld.pi() * fld.pi_inv() - fld.one()).is_zero_at(cap - 1)
        x = fld.one() + fld.pi()
        for k in range(8):
            assert x.shift(-k).cert_prec_pi() == cap - k
            assert (x.shift(-k) * fld.pi() ** k - x).is_zero_at(cap - k)
        assert (x / fld.pi() ** 5).cert_prec_pi() == cap - 5


def test_division_by_a_foreign_operand_is_not_implemented():
    for num in (1.5, "a"):
        for den in (F_RAM.zero(), F_RAM.one()):
            with pytest.raises(TypeError, match=f"'{type(num).__name__}' and 'KElement'"):
                num / den


def test_valuation_hidden_by_a_low_precision_zero():
    # c_0 = O(5^2) may hide anything from pi^4 up, so 7*pi (ord 1) is certain
    # while 25*pi (ord 5) is not
    low = PadicScalar.zero(CTX5, 2)
    sure = KElement(F_RAM, (low, PadicScalar.from_int(CTX5, 7)))
    assert sure.ord_pi() == 1 and sure.inverse().cert_prec_pi() > 0
    hidden = KElement(F_RAM, (low, PadicScalar.from_int(CTX5, 25)))
    assert hidden.ord_pi_or_none() is None and not hidden.is_zero_at(5)
    with pytest.raises(AmbiguousValuation):
        hidden.inverse()


def test_field_inverse_random():
    rng = random.Random(99)
    for fld in (F_RAM, F_BASE):
        for _ in range(40):
            coeffs = [rng.randint(-200, 200) for _ in range(fld.e)]
            x = fld.zero()
            for i, c in enumerate(coeffs):
                x = x + fld.pi() ** i * fld.from_int(c)
            if x.ord_pi_or_none() is None:
                continue
            y = x.inverse()
            assert (x * y - fld.one()).is_zero_at(fld.e * 14)


def _exact_reduce(fld, poly):
    """A polynomial in s (Fractions, lowest degree first) reduced mod f."""
    poly = list(poly) + [Fraction(0)] * (fld.e - len(poly))
    for k in range(len(poly) - 1, fld.e - 1, -1):
        top = poly.pop()  # s^k = -s^(k-e) * (a_0 + ... + a_{e-1} s^(e-1))
        for i, c in enumerate(fld.coeffs):
            poly[k - fld.e + i] -= top * c
    return poly


def _exact_times(fld, xs, ys):
    """Product of two coefficient lists of Fractions in Q[s]/(f)."""
    prod = [Fraction(0)] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            prod[i + j] += a * b
    return _exact_reduce(fld, prod)


def _exact_pi_val(fld, cs):
    """pi-adic valuation of sum c_i pi^i (terms have distinct values mod e)."""
    return min(fld.e * frac_vp(c, fld.p) + i for i, c in enumerate(cs) if c)


def _scalar_fraction(x: PadicScalar) -> Fraction:
    return Fraction(x.unit) * Fraction(x.ctx.p) ** x.val


def test_inverse_against_fraction_oracle():
    """x * x^-1 = 1 exactly over Q up to the certified precision of x^-1,
    for units and non-units; at e = 1 the direct inverse keeps the relative
    precision of x and equals the Newton iteration digit for digit."""
    rng = random.Random(131)
    for fld in (F_BASE, F_RAM):
        p = fld.p
        shapes = set()
        for _ in range(60):
            cs = [Fraction(rng.randint(1, 10 ** 6), rng.choice((1, 2, 3, 7)))
                  * Fraction(p) ** rng.randint(-2, 3) * rng.choice((1, -1))
                  for _ in range(fld.e)]
            if fld.e == 2 and rng.random() < 0.3:
                cs[rng.randrange(2)] = Fraction(0)
            x = KElement(fld, tuple(PadicScalar.from_rational(fld.ctx, c)
                                    for c in cs))
            a = x.ord_pi()
            shapes.add((a > 0) - (a < 0))
            y = x.inverse()
            ys = [_scalar_fraction(c) for c in y.coeffs]
            residual = _exact_times(fld, cs, ys)
            residual[0] -= 1
            if any(residual):
                assert _exact_pi_val(fld, residual) >= y.cert_prec_pi() + a
            newton = x._inverse_newton(a)
            assert [(c.val, c.unit, c.prec) for c in y.coeffs] == \
                [(c.val, c.unit, c.prec) for c in newton.coeffs]
            if fld.e == 1:
                c, ci = x.coeffs[0], y.coeffs[0]
                assert ci.val == -c.val and ci.prec - ci.val == c.prec - c.val
        assert shapes == {-1, 0, 1}


def test_field_mul_matches_polynomial_reduction():
    # (a + b*pi)(c + d*pi) = ac + 5bd + (ad + bc) pi for pi^2 = 5
    rng = random.Random(3)
    for _ in range(60):
        a, b, c, d = (rng.randint(-50, 50) for _ in range(4))
        x = F_RAM.from_int(a) + F_RAM.pi() * F_RAM.from_int(b)
        y = F_RAM.from_int(c) + F_RAM.pi() * F_RAM.from_int(d)
        z = x * y
        want = F_RAM.from_int(a * c + 5 * b * d) + F_RAM.pi() * F_RAM.from_int(a * d + b * c)
        assert (z - want).is_zero_at(36)


def test_unit_decompose_examples():
    a, omega, u = unit_decompose(F_RAM.pi())
    assert a == 1
    assert (omega - F_RAM.one()).is_zero_at(30)
    assert (u - F_RAM.one()).is_zero_at(30)

    a, omega, u = unit_decompose(F_RAM.from_int(-1))
    assert a == 0
    assert (omega + F_RAM.one()).is_zero_at(30)
    assert (u - F_RAM.one()).is_zero_at(30)


def test_unit_decompose_reassembles():
    rng = random.Random(14)
    for fld in (F_RAM, F_BASE):
        for _ in range(30):
            c0 = rng.randint(1, 400)
            k = rng.randint(0, 3)
            x = fld.from_int(c0) * fld.pi() ** k
            if x.ord_pi_or_none() is None:
                continue
            a, omega, u = unit_decompose(x)
            assert (u - fld.one()).ord_pi_or_none() is None or (u - fld.one()).ord_pi() >= 1
            back = fld.pi() ** a * omega * u
            assert (back - x).is_zero_at(fld.e * 12)


def test_teichmuller_in_k_rejects_non_units():
    with pytest.raises(NotAOneUnit):
        k_teichmuller(F_RAM.pi())


def test_parse_element():
    x = parse_element("p*(1+p)", F_BASE)
    assert x.coeffs[0].lift() % 5 ** 20 == 30 % 5 ** 20
    y = parse_element("pi^2", F_RAM)
    assert (y - F_RAM.from_int(5)).is_zero_at(40)
    z = parse_element("p^2*(1+p)", F_BASE)
    assert agrees_with_fraction(z.coeffs[0], Fraction(150))
    w = parse_element("1/2", F_BASE)
    assert agrees_with_fraction(w.coeffs[0], Fraction(1, 2))
    with pytest.raises(ValueError):
        parse_element("q+1", F_BASE)


_PARSE_TOKENS = [str(d) for d in range(10)] + \
    ["p", "pi", "s", "(", ")", "+", "-", "*", "/", "^"]


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(st.lists(st.sampled_from(_PARSE_TOKENS), max_size=10).map("".join))
def test_parsers_raise_nothing_but_value_error(text):
    """Every short string over the parsers' tokens parses or raises
    ValueError, the error the CLI turns into exit 2."""
    for parse in (lambda: parse_element(text, F_BASE),
                  lambda: parse_element(text, F_RAM),
                  lambda: parse_eisenstein(text, CTX5)):
        try:
            parse()
        except ValueError:
            pass


def test_expansion_str():
    assert F_BASE.from_int(7).expansion_str(3) == "2 + pi + O(pi^3)"
    assert F_BASE.zero().expansion_str(4) == "O(pi^4)"
    x = F_RAM.from_int(5) + F_RAM.pi()
    assert x.expansion_str(4) == "pi + pi^2 + O(pi^4)"


def test_digit_expansion_roundtrip():
    rng = random.Random(5)
    for fld in (F_RAM, F_BASE):
        for _ in range(20):
            x = fld.from_int(rng.randint(0, 10 ** 8))
            digits = x.pi_digits(12)
            back = fld.zero()
            for j, d in enumerate(digits):
                back = back + fld.pi() ** j * fld.from_int(d)
            assert (back - x).is_zero_at(12)


# e = 1, 2, 3, 4 for p = 3, 5, 7; on the cubic and quartic ones a division
# by pi in K loses more than one digit, so digits must not come from K
DIGIT_FIELDS = [parse_eisenstein(f.format(p=p, pp=p * p, p2=2 * p),
                                  PadicContext(p, 10))
                for p in (3, 5, 7)
                for f in ("s-{p}", "s+{p}", "s^2-{p}", "s^2+{p}/2*s+{p}",
                          "s^3-{p}", "s^3+{pp}*s^2-{p}", "s^3+{p}*s+{p2}",
                          "s^4+{p}*s^3+{p}", "s^4-{p2}")]


def _digit_sum(fld, digits):
    """sum d_j pi^j in Q[s]/(f) by Horner's rule, with no KElement."""
    acc = [Fraction(0)] * fld.e
    for d in reversed(digits):
        top = acc[-1]
        acc = [a - top * c for a, c in zip([Fraction(0)] + acc[:-1], fld.coeffs)]
        acc[0] += d
    return acc


@st.composite
def _digit_cases(draw):
    """(x, n): an element of mixed per-coefficient precision and a digit count."""
    fld = draw(st.sampled_from(DIGIT_FIELDS))
    ctx, p, cap = fld.ctx, fld.p, fld.ctx.prec
    coeffs = []
    for _ in range(fld.e):
        kind = draw(st.sampled_from(("int", "zero", "power", "rational")))
        if kind == "int":
            coeffs.append(PadicScalar.from_int(
                ctx, draw(st.integers(-p ** cap, p ** cap)), draw(st.integers(0, cap))))
        elif kind == "zero":
            coeffs.append(PadicScalar.zero(ctx, draw(st.integers(0, cap))))
        elif kind == "power":  # known to cap + k, above the cap
            coeffs.append(PadicScalar.from_int(ctx, p ** draw(st.integers(0, 4))))
        else:
            q = Fraction(draw(st.integers(-10 ** 6, 10 ** 6)),
                         draw(st.sampled_from((1, 2, 11, 13))))
            coeffs.append(PadicScalar.from_rational(ctx, q))
    n = draw(st.none() | st.integers(-2, fld.e * cap + 6))
    return KElement(fld, tuple(coeffs)), n


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_digit_cases())
def test_pi_digits_against_exact_oracle(case):
    """x - sum d_j pi^j = 0 mod pi^n, with x's coefficient lifts and the sum
    taken exactly in Q[s]/(f); n is capped at the certified precision."""
    x, n = case
    fld = x.field
    want = x.cert_prec_pi() if n is None else min(n, x.cert_prec_pi())
    digits = x.pi_digits(n)
    assert len(digits) == max(want, 0)
    assert all(0 <= d < fld.p for d in digits)
    residual = [Fraction(c.lift()) - s
                for c, s in zip(x.coeffs, _digit_sum(fld, digits))]
    if any(residual):
        assert _exact_pi_val(fld, residual) >= want


def test_pi_digits_of_zero_and_of_negative_valuation():
    for fld in DIGIT_FIELDS:
        cap = fld.e * fld.ctx.prec
        zero = fld.zero()
        assert zero.pi_digits() == [0] * cap
        assert zero.pi_digits(3) == [0] * 3
        assert zero.pi_digits(cap + 5) == [0] * cap
        low = KElement(fld, (PadicScalar.zero(fld.ctx, 2),) + zero.coeffs[1:])
        assert low.pi_digits(cap) == [0] * min(cap, 2 * fld.e)
        for neg in (fld.pi_inv(), fld.from_rational(Fraction(1, fld.p))):
            with pytest.raises(ValueError, match="negative valuation"):
                neg.pi_digits(4)
            assert neg.pi_digits(0) == []


# -- K arithmetic against exact polynomials mod f ------------------------------


def _value(x: KElement) -> list:
    """The coefficients of x's representative, as Fractions."""
    return [_scalar_fraction(c) for c in x.coeffs]


def _pi_power(fld, k: int) -> list:
    return _exact_reduce(fld, [Fraction(0)] * k + [Fraction(1)])


def _assert_within(fld, got: list, want: list, depth: int):
    """got = want mod pi^depth, in Q[s]/(f): no stated digit is overstated."""
    residual = [a - b for a, b in zip(got, want)]
    if any(residual):
        assert _exact_pi_val(fld, residual) >= depth


@st.composite
def _exact_elements(draw, fld):
    """(x, X): an element of mixed per-coefficient precision and the exact
    value X in Q[s]/(f) that it approximates. Coefficients are rationals of
    valuation -2..3 known to the cap, exact zeros, or rationals known below
    the cap only; a zero at the cap is an exact zero, as everywhere in K."""
    ctx, p = fld.ctx, fld.p
    cs, xs = [], []
    for _ in range(fld.e):
        kind = draw(st.sampled_from(("cap", "zero", "low")))
        q = (Fraction(draw(st.integers(-10 ** 6, 10 ** 6)),
                      draw(st.sampled_from((1, 2, 11, 13))))
             * Fraction(p) ** draw(st.integers(-2, 3)))
        if kind == "zero":
            q, c = Fraction(0), PadicScalar.zero(ctx)
        else:
            c = PadicScalar.from_rational(ctx, q)
            if kind == "low":
                c = c + PadicScalar.zero(ctx, draw(st.integers(-2, ctx.prec - 1)))
        cs.append(c)
        xs.append(q)
    return KElement(fld, tuple(cs)), xs


@st.composite
def _field_elements(draw, n):
    """(field, (x, X), ...) with n elements of one of the DIGIT_FIELDS."""
    fld = draw(st.sampled_from(DIGIT_FIELDS))
    return (fld,) + tuple(draw(_exact_elements(fld)) for _ in range(n))


ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@ORACLE
@given(_field_elements(1), st.integers(-6, 6))
def test_shift_against_exact_oracle(case, k):
    """x.shift(k) = X pi^k to its stated depth; a step down costs at most one
    digit and a step up gains exactly one, up to the cap."""
    fld, (x, xs) = case
    y = x.shift(k)
    if k >= 0:
        _assert_within(fld, _value(y), _exact_times(fld, xs, _pi_power(fld, k)),
                       y.cert_prec_pi())
        assert y.cert_prec_pi() == min(x.cert_prec_pi() + k, fld.e * fld.ctx.prec)
    else:
        _assert_within(fld, _exact_times(fld, _value(y), _pi_power(fld, -k)), xs,
                       y.cert_prec_pi() - k)
        assert y.cert_prec_pi() >= x.cert_prec_pi() + k


@ORACLE
@given(st.sampled_from(DIGIT_FIELDS), st.lists(st.integers(), min_size=4, max_size=4),
       st.integers(0, 12))
def test_shift_down_costs_exactly_one_digit_per_step(fld, ns, k):
    """An element whose coefficients are all known to the cap, c_0 nonzero,
    loses exactly k digits to pi^-k, and pi^k brings all of them back."""
    ctx = fld.ctx
    ns[0] = ns[0] * ctx.p + 1
    x = KElement(fld, tuple(PadicScalar.from_int(ctx, n, ctx.prec) for n in ns[:fld.e]))
    cap = fld.e * ctx.prec
    assert x.shift(-k).cert_prec_pi() == cap - k
    back = x.shift(-k).shift(k)
    assert back.cert_prec_pi() == cap and back.same_at(x, cap)


@ORACLE
@given(_field_elements(2))
def test_product_and_inverse_against_exact_oracle(case):
    """x * y = X * Y, and x^-1 = 1/X when x's valuation is certain, each to
    its stated depth."""
    fld, (x, xs), (y, ys) = case
    z = x * y
    _assert_within(fld, _value(z), _exact_times(fld, xs, ys), z.cert_prec_pi())
    if x.ord_pi_or_none() is None:
        return
    a = x.ord_pi()
    assert a == _exact_pi_val(fld, xs)
    inv = x.inverse()
    # X * inv - 1 = X (inv - 1/X), of valuation a + (depth of inv)
    _assert_within(fld, _exact_times(fld, xs, _value(inv)), _pi_power(fld, 0),
                   inv.cert_prec_pi() + a)


@ORACLE
@given(_field_elements(1))
def test_unit_decompose_against_exact_oracle(case):
    """X = pi^a * omega * u with omega a Teichmuller scalar and u a one-unit,
    to the depth of u."""
    fld, (x, xs) = case
    if x.ord_pi_or_none() is None:
        return
    a, omega, u = unit_decompose(x)
    assert a == _exact_pi_val(fld, xs)
    t = omega.coeffs[0]
    assert all(c.is_zero() for c in omega.coeffs[1:])
    assert (t ** (fld.p - 1) - 1).is_zero() and t.prec >= fld.ctx.prec
    assert u.residue() == 1 and (u - 1).is_zero_at(1)
    lhs, rhs = _exact_times(fld, _value(omega), _value(u)), xs
    if a >= 0:
        lhs = _exact_times(fld, lhs, _pi_power(fld, a))
    else:
        rhs = _exact_times(fld, rhs, _pi_power(fld, -a))
    _assert_within(fld, lhs, rhs, u.cert_prec_pi() + max(a, 0))


def test_primality_matches_trial_division_below_ten_thousand():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(-3, 10000) if _is_prime(n)] == \
        [n for n in range(-3, 10000) if trial_division(n)]


@pytest.mark.parametrize("p", [2, 3, 5, 1000003, 1000000000000000003])
def test_context_accepts_a_prime(p):
    assert PadicContext(p, 8).p == p


@pytest.mark.parametrize("p", [3215031751, 3825123056546413051],
                         ids=["spsp to bases 2-7", "spsp to bases 2-31"])
def test_context_refuses_a_strong_pseudoprime(p):
    with pytest.raises(ValueError, match="p must be prime"):
        PadicContext(p, 8)


@pytest.mark.parametrize("p", [PRIME_BOUND, 2 ** 89 - 1, 10 ** 401 + 1],
                         ids=["the bound", "2^89 - 1", "402 digits"])
def test_context_refuses_p_at_or_past_the_primality_bound(p):
    # the bound passes Miller-Rabin to all 13 bases, so it is refused by size
    assert _is_prime(PRIME_BOUND)
    with pytest.raises(ValueError, match=f"primality bound {PRIME_BOUND}"):
        PadicContext(p, 8)
