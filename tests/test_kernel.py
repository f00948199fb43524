"""The integer product kernel of K against its PadicScalar reference.

KElement multiplies and shifts on plain integers. Before that it did both
on PadicScalar coefficients, summing every coefficient from the stand-in
zero O(p^(2 cap)); that code is kept here, verbatim, as the reference. With
exact_sums=True the same code starts each sum from no term at all, and a
sum no term reaches is the zero at O(p^(2 cap)), which is what the kernel
computes. So the kernel must equal the exact-sum reference everywhere, and
the stand-in reference wherever the stand-in bounds no result, coefficient
by coefficient in (val, unit, prec).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tatehk.field import KElement, parse_eisenstein
from tatehk.padic import PadicContext, PadicScalar

from test_padic import DIGIT_FIELDS


def _triples(cs) -> list:
    return [(c.val, c.unit, c.prec) for c in cs]


def _accumulate(acc, term):
    return term if acc is None else acc + term


def _padic_mul(x: KElement, y: KElement, exact_sums: bool = False) -> tuple:
    """x * y on PadicScalar coefficients, as KElement.__mul__ computed it."""
    e = x.field.e
    if e == 1:
        return (x.coeffs[0] * y.coeffs[0],)
    ctx = x.field.ctx
    stand_in = PadicScalar.zero(ctx, 2 * ctx.prec)
    prod = [None if exact_sums else stand_in for _ in range(2 * e - 1)]
    for i, a in enumerate(x.coeffs):
        if a.is_zero() and a.prec >= ctx.prec:
            continue
        for j, b in enumerate(y.coeffs):
            prod[i + j] = _accumulate(prod[i + j], a * b)
    out = list(prod[:e])
    rows = _reduction_rows(x.field)
    for k in range(e, 2 * e - 1):
        c = prod[k]
        if c is None or c.is_zero() and c.prec >= ctx.prec:
            continue
        row = rows[k - e]
        for i in range(e):
            if row[i]:
                out[i] = _accumulate(out[i], c * PadicScalar.from_rational(ctx, row[i]))
    return tuple(stand_in if c is None else c for c in out)


def _padic_shift(x: KElement, k: int, exact_sums: bool = False) -> tuple:
    """x * pi^k on PadicScalar coefficients, as KElement.shift computed it."""
    fld, ctx = x.field, x.field.ctx
    fold = [c / ctx.p for c in fld.p_over_pi] if k < 0 else [-c for c in fld.coeffs]
    fold = [(i, PadicScalar.from_rational(ctx, c)) for i, c in enumerate(fold) if c]
    exact = None if exact_sums else PadicScalar.zero(ctx, 2 * ctx.prec)
    cs = [exact if c.is_zero() and c.prec >= ctx.prec else c for c in x.coeffs]
    for _ in range(abs(k)):
        c, cs = (cs[0], cs[1:] + [exact]) if k < 0 else (cs[-1], [exact] + cs[:-1])
        if not (c is None or c.is_zero() and c.prec >= ctx.prec):
            for i, w in fold:
                cs[i] = _accumulate(cs[i], c * w)
    return tuple(PadicScalar.zero(ctx, 2 * ctx.prec) if c is None else c for c in cs)


def _reduction_rows(fld):
    """Rows of pi^e, ..., pi^(2e-2) on the basis pi^0..pi^{e-1}, in Fractions."""
    rows = [tuple(-c for c in fld.coeffs)]
    cur = list(rows[0])
    for _ in range(fld.e - 2):
        top = cur[-1]
        cur = [Fraction(0)] + cur[:-1]
        cur = [c + top * r for c, r in zip(cur, rows[0])]
        rows.append(tuple(cur))
    return rows


def _stand_in_bounds_nothing(cs, cap: int, steps_down: int = 0) -> bool:
    """No coefficient reaches the stand-in zero's precision, less the digit
    each step down by pi^-1 can take off it."""
    return all(c.prec < 2 * cap - steps_down for c in cs)


@st.composite
def _coefficients(draw, fld):
    """A PadicScalar of one of the shapes K arithmetic meets: known to the
    cap, below it or above it, zero at the cap or below it, or of valuation
    at or beyond twice the cap."""
    ctx, p, cap = fld.ctx, fld.p, fld.ctx.prec
    n = draw(st.integers(1, p ** (cap + 2))) * draw(st.sampled_from((1, -1)))
    q = Fraction(n, draw(st.sampled_from((1, 2, 11)))) * Fraction(p) ** draw(st.integers(-2, 3))
    kind = draw(st.sampled_from(("cap", "low", "above", "zero", "low zero", "deep")))
    if kind == "cap":
        return PadicScalar.from_rational(ctx, q)
    if kind == "low":
        return PadicScalar.from_rational(ctx, q) + PadicScalar.zero(ctx, draw(st.integers(-2, cap - 1)))
    if kind == "above":
        return PadicScalar.from_int(ctx, n, draw(st.integers(cap + 1, 2 * cap)))
    if kind == "zero":
        return PadicScalar.zero(ctx)
    if kind == "low zero":
        return PadicScalar.zero(ctx, draw(st.integers(-2, cap - 1)))
    return PadicScalar.from_int(ctx, n * p ** draw(st.integers(2 * cap - 3, 3 * cap)))


@st.composite
def _elements(draw, n):
    """(field, x_1, ..., x_n) over one of the DIGIT_FIELDS."""
    fld = draw(st.sampled_from(DIGIT_FIELDS))
    return (fld,) + tuple(KElement(fld, tuple(draw(_coefficients(fld)) for _ in range(fld.e)))
                          for _ in range(n))


KERNEL = settings(derandomize=True, database=None, deadline=None, max_examples=400)


@KERNEL
@given(_elements(2))
def test_product_kernel_against_the_padic_reference(case):
    fld, x, y = case
    got = _triples((x * y).coeffs)
    assert got == _triples(_padic_mul(x, y, exact_sums=True))
    old = _padic_mul(x, y)
    if _stand_in_bounds_nothing(old, fld.ctx.prec):
        assert got == _triples(old)


@KERNEL
@given(_elements(1), st.integers(-9, 9))
def test_shift_kernel_against_the_padic_reference(case, k):
    fld, x = case
    got = _triples(x.shift(k).coeffs)
    assert got == _triples(_padic_shift(x, k, exact_sums=True))
    old = _padic_shift(x, k)
    if _stand_in_bounds_nothing(old, fld.ctx.prec, max(0, -k)):
        assert got == _triples(old)


@KERNEL
@given(_elements(2), st.integers(-10 ** 6, 10 ** 6),
       st.sampled_from((Fraction(1, 2), Fraction(-3, 7), Fraction(25, 3))))
def test_linear_operations_against_padic_scalars(case, n, q):
    """+, -, negation and scaling act coefficient-wise as PadicScalar does;
    a product by an int is the product by that int's element of K."""
    fld, x, y = case
    xs, ys = x.coeffs, y.coeffs
    assert _triples((x + y).coeffs) == _triples(a + b for a, b in zip(xs, ys))
    assert _triples((x - y).coeffs) == _triples(a - b for a, b in zip(xs, ys))
    assert _triples((-x).coeffs) == _triples(-a for a in xs)
    c = q * fld.p ** (n % 5)
    for s in (n, c, PadicScalar.from_rational(fld.ctx, c)):
        assert _triples(x.scale(s).coeffs) == _triples(a * s for a in xs)
    assert _triples((x * n).coeffs) == _triples(_padic_mul(x, fld.from_int(n), exact_sums=True))


def test_product_keeps_terms_at_and_beyond_twice_the_cap():
    """A coefficient p^K u with K >= 2 cap multiplies like u, moved up by K:
    the stand-in zero lost such terms."""
    K = parse_eisenstein("s^2 - 5", PadicContext(5, 20))
    z = K.from_int(5 ** 40) * K.one()
    assert z.coeff(0) == (40, 1, 60) and z.coeff(1) == (60, 0, 60)
    for fld in DIGIT_FIELDS:
        cap = fld.ctx.prec
        y = KElement(fld, tuple(PadicScalar.from_int(fld.ctx, 7 + 3 * i) for i in range(fld.e)))
        base = fld.from_int(2) * y
        for shift in (0, cap, 2 * cap, 2 * cap + 5, 3 * cap):
            deep = fld.from_int(2 * fld.p ** shift) * y
            assert [(v - shift, u, n - shift) for v, u, n in map(deep.coeff, range(fld.e))] \
                == list(map(base.coeff, range(fld.e)))
