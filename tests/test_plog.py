"""Logarithm branches against an exact rational series oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatehk import plog
from tatehk.errors import NotAOneUnit
from tatehk.field import FieldDescriptor, KElement, k_teichmuller, parse_eisenstein
from tatehk.padic import PadicContext, PadicScalar, vp
from tatehk.plog import LogBranch, branch_from_spec, log_one_unit, log_unit, series_cutoff

from test_padic import DIGIT_FIELDS, _exact_pi_val, _exact_times, _scalar_fraction


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
        for m in range(n0, n0 + 200):
            assert m * t - e * math.log(m) / math.log(p) >= e * N


def _scan_cutoff(t, e, p, target_prec):
    """series_cutoff as it scanned before: from the monotone point, one step
    at a time."""
    lp = math.log(p)
    n = max(1, math.ceil(e / (t * lp)))
    while n * t - e * math.log(n) / lp < e * target_prec:
        n += 1
    return n


def test_series_cutoff_matches_the_full_scan():
    for t in range(1, 7):
        for e in range(1, 5):
            for p in (2, 3, 5, 211):
                for N in (8, 20, 200):
                    assert series_cutoff(t, e, p, N) == _scan_cutoff(t, e, p, N), (t, e, p, N)


def test_argument_reduction_takes_fewer_products(monkeypatch):
    """log_one_unit never runs more int_products than the plain series has
    terms, series_cutoff(v, e, p, prec); it runs fewer on three fields, and
    as many at p = 211, where reducing does not pay. A count, not a timing."""
    count = [0]
    product = plog.int_product

    def counted(*args):
        count[0] += 1
        return product(*args)

    def products(u):
        count[0] = 0
        log_one_unit(u)
        plain = series_cutoff((u.field.one() - u).ord_pi(), u.field.e, u.field.p,
                              u.field.ctx.prec)
        assert count[0] <= plain, (u, count[0], plain)
        return count[0], plain

    monkeypatch.setattr(plog, "int_product", counted)
    for fld in (FieldDescriptor.base(PadicContext(5, 200)),
                parse_eisenstein("s^2-5", PadicContext(5, 20)),
                parse_eisenstein("s^4+2", PadicContext(2, 10))):
        got, plain = products(fld.one() + fld.pi() * 7)
        assert got < plain, (fld, got, plain)
    q211 = FieldDescriptor.base(PadicContext(211, 20))
    got, plain = products(q211.one() + q211.pi() * 7)
    assert got == plain
    for fld in LOG_FIELDS:
        for k in (0, 1, 2):
            products(fld.one() + fld.pi().shift(k) * 7)


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


# -- the integer series against exact Fractions ------------------------------

LOG_FIELDS = [parse_eisenstein(f, PadicContext(2, 10))
              for f in ("s^2-2", "s^4+2")] + DIGIT_FIELDS
# deep enough that log_one_unit reduces by k >= 2 and lifts mod p^(M + k)
DEEP_FIELDS = [FieldDescriptor.base(PadicContext(5, 60)),
               parse_eisenstein("s^2-5", PadicContext(5, 40))]


def _padic_series_log(u):
    """The PadicScalar series that log_one_unit replaced (one K product, one
    p-adic division and one K subtraction per term), kept as an oracle of
    the depth it stated; 1 - u must have a certain valuation."""
    fld, ctx = u.field, u.field.ctx
    x = fld.one() - u
    n_max = series_cutoff(x.ord_pi(), fld.e, ctx.p, ctx.prec)
    total, power = fld.zero(), fld.one()
    for n in range(1, n_max + 1):
        power = power * x
        total = total - power.scale(
            PadicScalar.from_int(ctx, 1) / PadicScalar.from_int(ctx, n))
    return total


def _least_move(c, e, p):
    """min over j >= 1 of j*c - e*v_p(j), by brute force over j < 256."""
    return min(j * c - e * vp(j, p) for j in range(1, 256))


def _exact_log(fld, xs):
    """-sum x^n/n in Q[s]/(f) mod pi^(e*cap + 1), for x of valuation >= 1.

    The sum runs to the first N >= 2e with N - e*bitlen(N) >= e*cap + 1;
    past it every term has valuation m - e*log_2(m) > e*cap. Each power is
    kept mod p^W, W = cap + bitlen(N) + 1, which moves x^n/n by valuation
    >= e*(W - v_p(n)) > e*cap + 1.
    """
    e, p, cap = fld.e, fld.p, fld.ctx.prec
    goal = e * cap + 1
    n_stop = 2 * e
    while n_stop - e * n_stop.bit_length() < goal:
        n_stop += 1
    mod = p ** (cap + n_stop.bit_length() + 1)
    total, power = [Fraction(0)] * e, [Fraction(1)] + [Fraction(0)] * (e - 1)
    for n in range(1, n_stop + 1):
        power = [Fraction(c.numerator * pow(c.denominator, -1, mod) % mod)
                 for c in _exact_times(fld, power, xs)]
        total = [t - c / n for t, c in zip(total, power)]
    return total


@st.composite
def _one_units(draw):
    """(u, U): a one-unit whose coefficients mix precisions (zeros below the
    cap included), and U, a random completion of u as Fractions: each lift
    moved by a random multiple of p^(its precision)."""
    # p = 2 drawn about a third of the time: the premise (p-1)*c >= e fails
    # most there; a deep field another third
    fld = draw(st.sampled_from(LOG_FIELDS[:2]) | st.sampled_from(DEEP_FIELDS)
               | st.sampled_from(LOG_FIELDS))
    ctx, p, cap = fld.ctx, fld.p, fld.ctx.prec
    xs = []
    for i in range(fld.e):
        least = 1 if i == 0 else 0  # x = 1 - u lies in the maximal ideal
        kind = draw(st.sampled_from(("cap", "low", "cap", "zero", "low zero")))
        n = p ** draw(st.integers(least, 3)) * draw(st.integers(-p ** cap, p ** cap))
        low = draw(st.integers(least, least + 1) | st.integers(least, cap - 1))
        xs.append({"cap": PadicScalar.from_int(ctx, n),
                   "low": PadicScalar.from_int(ctx, n, low),
                   "zero": PadicScalar.zero(ctx),
                   "low zero": PadicScalar.zero(ctx, low)}[kind])
    u = fld.one() - KElement(fld, tuple(xs))
    us = [Fraction(c.lift() + p ** c.prec * draw(st.integers(-p ** 3, p ** 3)))
          for c in u.coeffs]
    return u, us


@settings(derandomize=True, database=None, deadline=None, max_examples=480)
@given(_one_units())
def test_log_series_against_exact_oracle(case):
    """Every digit log_one_unit states agrees with the exact series of a
    completion of its input; the depth is the least j*c - e*v_p(j) for an
    input known to O(pi^c), which is c when (p-1)*c >= e; and it is never
    below the depth the PadicScalar series stated."""
    u, us = case
    fld = u.field
    e, p, cap = fld.e, fld.p, fld.ctx.prec
    got = log_one_unit(u)
    c = min(e * min(a.prec, cap) + i for i, a in enumerate(u.coeffs))
    depth = min(_least_move(c, e, p), e * cap)
    assert got.cert_prec_pi() == depth
    if (p - 1) * c >= e:
        assert depth == c
    exact = _exact_log(fld, [int(i == 0) - a for i, a in enumerate(us)])
    residual = [_scalar_fraction(a) - b for a, b in zip(got.coeffs, exact)]
    if any(residual):
        assert _exact_pi_val(fld, residual) >= depth
    if (fld.one() - u).ord_pi_or_none() is not None:
        assert depth >= _padic_series_log(u).cert_prec_pi()


def test_log_of_one_known_below_the_cap_is_zero_only_to_that_depth():
    """1 - u zero to O(pi^c) below the cap: the log is zero to O(pi^c), through
    log_one_unit, log_unit and a branch log alike, not zero at the cap."""
    cases = [(QP, (PadicScalar.from_int(CTX, 1, prec=6),), 6),
             (RAM, (PadicScalar.from_int(CTX, 1, prec=3), PadicScalar.zero(CTX)), 6),
             (RAM, (PadicScalar.from_int(CTX, 1), PadicScalar.zero(CTX, 2)), 5)]
    for fld, coeffs, depth in cases:
        u = KElement(fld, coeffs)
        for got in (log_one_unit(u), log_unit(u),
                    branch_from_spec(fld, "p*(1+p)").log(u)):
            assert got.is_zero() and got.cert_prec_pi() == depth


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(st.sampled_from(LOG_FIELDS), st.lists(st.integers(-10 ** 6, 10 ** 6),
                                             min_size=12, max_size=12),
       st.integers(0, 3), st.integers(0, 3), st.integers(1, 3))
def test_branch_log_is_a_homomorphism(fld, ints, a, b, m):
    """log_q(xy) = log_q(x) + log_q(y) and log_q(q) = 0, at every digit both
    sides state, for x, y of valuation a, b and q of valuation m."""
    p = fld.p
    for k in (0, 4, 8):  # units with a random nonzero residue
        ints[k] = ints[k] * p + 1 + ints[k] % (p - 1)
    x, y, q = _element(fld, ints[:4], a), _element(fld, ints[4:8], b), \
        _element(fld, ints[8:], m)
    br = LogBranch(fld, q)
    lhs, rhs = br.log(x * y), br.log(x) + br.log(y)
    assert (lhs - rhs).is_zero_at(min(lhs.cert_prec_pi(), rhs.cert_prec_pi()))
    lq = br.log(q)
    assert lq.is_zero_at(lq.cert_prec_pi())


# -- the series plan, built once per field and key ---------------------------

# e = 1, 2, 3 over Q_5 at prec 20
PLAN_FIELDS = ["s-5", "s^2-5", "s^3+25*s^2-5"]


def _seeded_unit(fld, rng):
    """1 + pi^k * x for seeded x and k, the coefficients of x known to one of
    two absolute precisions, so that both v = ord_pi(1 - u) and D vary."""
    prec = rng.choice((fld.cap - 3, fld.cap))
    x = KElement(fld, tuple(PadicScalar.from_int(fld.ctx, rng.randrange(1, 5 ** 12),
                                                 prec=prec) for _ in range(fld.e)))
    return fld.one() + x.shift(rng.randrange(1, 4))


@pytest.mark.parametrize("poly", PLAN_FIELDS)
def test_log_plans_give_the_values_of_a_fresh_field(poly):
    """Logs of 50 seeded units on one field, whose series plans are reused,
    equal coefficient triple for coefficient triple the logs of the same
    units each taken on a freshly built field."""
    ctx = PadicContext(5, 20)
    shared = parse_eisenstein(poly, ctx)
    rng = random.Random(poly)
    for _ in range(50):
        state = rng.getstate()
        kept = log_one_unit(_seeded_unit(shared, rng))
        rng.setstate(state)
        fresh_field = parse_eisenstein(poly, ctx)
        fresh = log_one_unit(_seeded_unit(fresh_field, rng))
        assert [kept.coeff(i) for i in range(shared.e)] == \
            [fresh.coeff(i) for i in range(shared.e)]
    assert len(shared._log_plans) < 25  # most logs reused a plan


def test_a_second_log_with_the_same_key_plans_nothing(monkeypatch):
    """A log whose (ord_pi(1 - u), D) an earlier log on the same field had
    calls series_cutoff no more."""
    count = [0]
    cutoff = plog.series_cutoff

    def counted(*args):
        count[0] += 1
        return cutoff(*args)

    monkeypatch.setattr(plog, "series_cutoff", counted)
    for poly in PLAN_FIELDS:
        fld = parse_eisenstein(poly, PadicContext(5, 20))
        count[0] = 0
        log_one_unit(fld.one() + fld.pi() * 7)
        assert count[0] > 0
        count[0] = 0
        log_one_unit(fld.one() + fld.pi() * 11)
        assert count[0] == 0


def test_a_branch_renders_its_label_on_first_read(monkeypatch):
    """Building a branch renders no expansion; .label is then q's expansion,
    and a given text is kept as it is."""
    render = KElement.expansion_str
    calls = []

    def counted(self, *args):
        calls.append(self)
        return render(self, *args)

    monkeypatch.setattr(KElement, "expansion_str", counted)
    fld = parse_eisenstein("s^2 - 5", PadicContext(5, 12))
    q = fld.pi() ** 3 * (fld.one() + fld.pi())
    branch = LogBranch(fld, q)
    assert calls == []
    assert branch.label == render(q)
    assert branch_from_spec(fld, "p*(1+p)").label == "p*(1+p)"
