"""Logarithm branches against an exact rational series oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatehk.errors import NotAOneUnit
from tatehk.field import FieldDescriptor, KElement, k_teichmuller, parse_eisenstein
from tatehk.padic import PadicContext, PadicScalar, vp
from tatehk.plog import LogBranch, branch_from_spec, log_one_unit, log_unit, series_cutoff


def frac_vp(q: Fraction, p: int) -> int:
    assert q != 0
    return vp(q.numerator, p) - vp(q.denominator, p)


def oracle_log_series(one_minus_u: Fraction, p: int, prec: int) -> Fraction:
    """Partial sum of -sum (1-u)^n / n with exact rationals, all dropped terms
    having valuation >= prec. Independent of the package's cutoff logic."""
    total = Fraction(0)
    power = Fraction(1)
    n = 0
    while True:
        n += 1
        power *= one_minus_u
        if n * frac_vp(one_minus_u, p) - (0 if n == 1 else vp(n, p)) >= prec + 8 and n > prec:
            break
        total -= power / n
    return total


def scalar_matches_fraction(x, q: Fraction, floor: int) -> bool:
    p = x.ctx.p
    d = Fraction(x.lift() if x.val >= 0 else 0) - q
    if x.val < 0:
        return False
    if d == 0:
        return True
    return frac_vp(d, p) >= floor


CTX = PadicContext(5, 20)
HI = PadicContext(5, 30)
QP = FieldDescriptor.base(CTX)
QP_HI = FieldDescriptor.base(HI)
RAM = parse_eisenstein("s^2-5", CTX)


def test_log_one_unit_against_series_oracle():
    # criterion-grade check at precision 30
    u = QP_HI.from_int(6)  # 1 + p
    got = log_one_unit(u)
    want = oracle_log_series(Fraction(-5), 5, 30)
    assert scalar_matches_fraction(got.coeffs[0], want, 27)


def test_log_one_unit_rejects_bad_argument():
    with pytest.raises(NotAOneUnit):
        log_one_unit(QP.from_int(2))


def test_log_of_teichmuller_is_zero():
    for a in (2, 3, 4):
        u = k_teichmuller(QP.from_int(a))
        assert log_unit(u).is_zero_at(17)


def test_log_unit_homomorphism():
    rng = random.Random(20260814)
    for _ in range(50):
        a = rng.randint(1, 10 ** 6)
        b = rng.randint(1, 10 ** 6)
        if a % 5 == 0 or b % 5 == 0:
            continue
        x, y = QP.from_int(a), QP.from_int(b)
        lhs = log_unit(x * y)
        rhs = log_unit(x) + log_unit(y)
        assert (lhs - rhs).is_zero_at(17)


def test_branch_log_of_q_is_zero():
    for spec in ("pi", "p", "p*(1+p)", "p^2*(1+p)"):
        br = branch_from_spec(QP, spec)
        assert br.log(br.q).is_zero_at(17), spec
    for spec in ("pi", "p", "p*(1+p)"):
        br = branch_from_spec(RAM, spec)
        assert br.log(br.q).is_zero_at(2 * 17), spec


def test_branch_log_homomorphism():
    rng = random.Random(31)
    br = branch_from_spec(QP, "p*(1+p)")
    for _ in range(50):
        a = rng.randint(1, 10 ** 5) * 5 ** rng.randint(0, 2)
        b = rng.randint(1, 10 ** 5) * 5 ** rng.randint(0, 2)
        x, y = QP.from_int(a), QP.from_int(b)
        lhs = br.log(x * y)
        rhs = br.log(x) + br.log(y)
        assert (lhs - rhs).is_zero_at(17)


def test_branch_pi_gives_zero_log_pi():
    br = branch_from_spec(QP, "pi")
    assert br.log_pi().is_zero_at(20)
    br2 = branch_from_spec(QP, "p")
    assert br2.log_pi().is_zero_at(20)


def test_branch_log_pi_for_shifted_branch():
    # q = p(1+p), e = 1: log_q(p) = -log(1+p)
    br = branch_from_spec(QP, "p*(1+p)")
    got = br.log(QP.from_int(5))
    want = -log_one_unit(QP.from_int(6))
    assert (got - want).is_zero_at(17)


def test_ramified_branch_log_pi():
    # q = p = pi^2 for pi^2 = 5: v = 1, so log_q(pi) = 0
    br = branch_from_spec(RAM, "p")
    assert br.log_pi().is_zero_at(36)
    # q = p(1+p): log_q(pi) = -(1/2) log(1+p)
    br2 = branch_from_spec(RAM, "p*(1+p)")
    lv = log_one_unit(RAM.from_int(6))
    want = -lv.scale(PadicScalar.from_rational(RAM.ctx, Fraction(1, 2)))
    assert (br2.log_pi() - want).is_zero_at(2 * 17)


def test_series_cutoff_certifies_tail():
    # every index >= cutoff satisfies the valuation bound
    for (t, e, p, N) in [(1, 1, 5, 20), (1, 2, 5, 20), (2, 3, 3, 25), (1, 1, 2, 20)]:
        n0 = series_cutoff(t, e, p, N)
        import math
        for m in range(n0, n0 + 200):
            assert m * t - e * math.log(m) / math.log(p) >= e * N


LOG_SHAPES = [(p, f.format(p=p, pp=p * p)) for p in (3, 5, 7)
              for f in ("s-{p}", "s^2-{p}", "s^3+{pp}*s^2-{p}", "s^4+{p}*s^3+{p}")]


def _element(fld, ints, shift):
    x = KElement(fld, tuple(PadicScalar.from_int(fld.ctx, n) for n in ints[:fld.e]))
    return x.shift(shift)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.sampled_from(LOG_SHAPES), st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=8,
                                             max_size=8),
       st.integers(-3, 3), st.integers(1, 4))
def test_branch_log_agrees_with_six_more_digits(shape, ints, k, m):
    """log_q(x) at prec 10 agrees with the same log at prec 16 to every digit
    it states, for q = pi^m * unit and x = pi^k * (anything nonzero); and
    log_q(q) is zero at every digit it states."""
    p, f = shape
    ints[4] = ints[4] * p + 1  # q's unit part
    logs = []
    for prec in (10, 16):
        fld = parse_eisenstein(f, PadicContext(p, prec))
        x, q = _element(fld, ints[:4], k), _element(fld, ints[4:], m)
        if x.ord_pi_or_none() is None:
            return
        br = LogBranch(fld, q)
        assert br.log(q).ord_pi_or_none() is None
        logs.append(br.log(x))
    lo, hi = logs
    assert hi.cert_prec_pi() >= lo.cert_prec_pi()
    moved = KElement(hi.field, tuple(PadicScalar(hi.field.ctx, c.val, c.unit, c.prec)
                                     for c in lo.coeffs))
    assert (moved - hi).is_zero_at(lo.cert_prec_pi())
