"""Totally ramified extensions K = Q_p(pi) cut out by an Eisenstein polynomial.

Elements are polynomials in the uniformizer pi of degree < e with
PadicScalar coefficients, reduced modulo f(pi) = 0. The base field is
the degenerate case e = 1 with f = s - p, so Q_p needs no special code
path. Both the pi-adic valuation (integer) and the p-adic valuation
(rational, ord_pi / e) are exposed.

Digits are read off on plain integers, not by K arithmetic: the
coefficients are lifted once mod p^M, and each step emits d = c_0 mod p
and divides x - d by pi as ((c_0 - d)/p) * (p/pi) + (c_1 + c_2 pi + ...).
p/pi has p-integral coefficients because v_p(a_0) = 1. Over Q_p itself
(f = s - p) p/pi = 1, so the same recurrence is divmod by p.

Every multiplication by a power of pi, inverses and unit_decompose
included, is KElement.shift: one digit per step, through pi^-1 = (p/pi)/p.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import AmbiguousValuation, DivisionByIndistinguishableZero, NotAOneUnit
from .padic import PadicContext, PadicScalar, teichmuller, vp


class FieldDescriptor:
    """K = Q_p[s]/(f) for monic Eisenstein f = s^e + a_{e-1} s^{e-1} + ... + a_0."""

    __slots__ = ("ctx", "coeffs", "e", "p_over_pi", "_pi_pows")

    def __init__(self, ctx: PadicContext, coeffs: tuple):
        """coeffs are the non-leading coefficients (a_0, ..., a_{e-1}) as ints or Fractions."""
        coeffs = tuple(Fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("need degree >= 1")
        for i, c in enumerate(coeffs):
            v = _frac_vp(c, ctx.p)  # None means c == 0, valuation +infinity
            if v is not None and v < 1:
                raise ValueError(f"coefficient a_{i} = {c} must have positive valuation")
            if i == 0 and v != 1:
                raise ValueError(f"constant term must have valuation exactly 1, got {v}")
        self.ctx = ctx
        self.coeffs = coeffs
        self.e = len(coeffs)
        # p/pi = -(p/a_0)(pi^{e-1} + sum_{i>=1} a_i pi^{i-1}): p-integral, as v_p(a_0) = 1
        unit = -ctx.p / coeffs[0]
        self.p_over_pi = tuple(unit * c for c in coeffs[1:] + (Fraction(1),))
        self._pi_pows = None

    @classmethod
    def base(cls, ctx: PadicContext) -> "FieldDescriptor":
        """Q_p itself, presented as the degenerate extension by f = s - p."""
        return cls(ctx, (-ctx.p,))

    @property
    def p(self) -> int:
        return self.ctx.p

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FieldDescriptor)
                and self.ctx == other.ctx and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        return f"FieldDescriptor(p={self.ctx.p}, f={self.poly_str()})"

    def poly_str(self) -> str:
        parts = [f"s^{self.e}" if self.e > 1 else "s"]
        for i in range(self.e - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "" if i == 0 else ("s" if i == 1 else f"s^{i}")
            mag = abs(c)
            coeff = "" if (mag == 1 and term) else str(mag)
            sep = "*" if coeff and term else ""
            parts.append(("- " if c < 0 else "+ ") + coeff + sep + term)
        return " ".join(parts)

    # -- element constructors --------------------------------------------

    def zero(self) -> "KElement":
        return KElement(self, tuple(PadicScalar.zero(self.ctx) for _ in range(self.e)))

    def one(self) -> "KElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "KElement":
        c = [PadicScalar.from_int(self.ctx, n)]
        c += [PadicScalar.zero(self.ctx) for _ in range(self.e - 1)]
        return KElement(self, tuple(c))

    def from_rational(self, q) -> "KElement":
        c = [PadicScalar.from_rational(self.ctx, q)]
        c += [PadicScalar.zero(self.ctx) for _ in range(self.e - 1)]
        return KElement(self, tuple(c))

    def embed_scalar(self, x: PadicScalar) -> "KElement":
        c = [x] + [PadicScalar.zero(self.ctx) for _ in range(self.e - 1)]
        return KElement(self, tuple(c))

    def pi(self) -> "KElement":
        return self.one().shift(1)

    def pi_inv(self) -> "KElement":
        return self.one().shift(-1)

    def reduction_rows(self):
        """Coefficient rows of pi^e, ..., pi^(2e-2) on the basis pi^0..pi^{e-1}."""
        if self._pi_pows is None:
            rows = []
            # pi^e = -sum a_i pi^i
            cur = [-Fraction(c) for c in self.coeffs]
            rows.append(tuple(cur))
            for _ in range(self.e - 2):
                # multiply by pi: shift, then reduce the overflow of pi^e
                top = cur[-1]
                cur = [Fraction(0)] + cur[:-1]
                if top:
                    for i in range(self.e):
                        cur[i] += top * rows[0][i]
                rows.append(tuple(cur))
            self._pi_pows = rows
        return self._pi_pows


def _frac_vp(q: Fraction, p: int):
    if q == 0:
        return None
    return vp(q.numerator, p) - vp(q.denominator, p)


class KElement:
    """Element of K, a tuple of e PadicScalar coefficients on 1, pi, ..., pi^{e-1}."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs: tuple):
        if len(coeffs) != field.e:
            raise ValueError("coefficient count must equal the degree")
        self.field = field
        self.coeffs = coeffs

    def _check(self, other: "KElement"):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return KElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return KElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _coerce(self, other):
        if isinstance(other, KElement):
            self._check(other)
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_rational(other)
        if isinstance(other, PadicScalar):
            return self.field.embed_scalar(other)
        return NotImplemented

    def scale(self, c: PadicScalar) -> "KElement":
        return KElement(self.field, tuple(a * c for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = self.field.e
        if e == 1:
            return KElement(self.field, (self.coeffs[0] * other.coeffs[0],))
        ctx = self.field.ctx
        prod = [PadicScalar.zero(ctx, 2 * ctx.prec) for _ in range(2 * e - 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero() and a.prec >= ctx.prec:
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] = prod[i + j] + a * b
        out = list(prod[:e])
        rows = self.field.reduction_rows()
        for k in range(e, 2 * e - 1):
            c = prod[k]
            if c.is_zero() and c.prec >= ctx.prec:
                continue
            row = rows[k - e]
            for i in range(e):
                if row[i]:
                    out[i] = out[i] + c * PadicScalar.from_rational(ctx, row[i])
        return KElement(self.field, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.field.one() / self ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            if n > 1:
                base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def shift(self, k: int) -> "KElement":
        """self * pi^k, one exact step per power of pi.

        A step down moves c_0 to c_0 * pi^-1, whose coefficients are
        p_over_pi / p; a step up folds c_{e-1} pi^e back by pi^e = -sum a_i pi^i.
        A step down costs at most one digit of certified precision (exactly
        one when c_0 is nonzero and every coefficient is known to the cap);
        a step up gains one, up to the cap.
        A coefficient that is zero at the cap is exact, as in __mul__.
        """
        fld, ctx = self.field, self.field.ctx
        fold = [c / ctx.p for c in fld.p_over_pi] if k < 0 else [-c for c in fld.coeffs]
        fold = [(i, PadicScalar.from_rational(ctx, c)) for i, c in enumerate(fold) if c]
        exact = PadicScalar.zero(ctx, 2 * ctx.prec)  # as in the sums of __mul__
        cs = [exact if c.is_zero() and c.prec >= ctx.prec else c for c in self.coeffs]
        for _ in range(abs(k)):
            c, cs = (cs[0], cs[1:] + [exact]) if k < 0 else (cs[-1], [exact] + cs[:-1])
            if not (c.is_zero() and c.prec >= ctx.prec):
                for i, w in fold:
                    cs[i] = cs[i] + c * w
        return KElement(fld, tuple(cs))

    def inverse(self) -> "KElement":
        a = self.ord_pi()
        if self.field.e == 1:
            # one p-adic division is already exact; Newton would be the identity
            return self.field.embed_scalar(1 / self.coeffs[0])
        return self._inverse_newton(a)

    def _inverse_newton(self, a: int) -> "KElement":
        """Inverse of an element of pi-adic valuation a by Newton iteration."""
        fld = self.field
        u = self.shift(-a)
        # u is now a unit: c_0 is a p-adic unit. Newton: z -> z(2 - uz).
        z = fld.embed_scalar(1 / u.coeffs[0])
        two = fld.from_int(2)
        steps = max(1, (fld.e * fld.ctx.prec).bit_length() + 1)
        for _ in range(steps):
            z = z * (two - u * z)
        return z.shift(-a)

    # -- valuation and predicates -------------------------------------------

    def ord_pi(self) -> int:
        """pi-adic valuation; raises when the element is indistinguishable from zero."""
        v = self.ord_pi_or_none()
        if v is None:
            raise AmbiguousValuation(
                f"element is zero at O(pi^{self.cert_prec_pi()}); valuation undecidable")
        return v

    def ord_pi_or_none(self):
        """pi-adic valuation, or None when x is zero at its precision: also
        when a coefficient that is zero below the cap hides the leading one."""
        e, cap = self.field.e, self.field.ctx.prec
        best = hidden = None
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                v = e * c.val + i
                if best is None or v < best:
                    best = v
            elif c.prec < cap and (hidden is None or e * c.prec + i < hidden):
                hidden = e * c.prec + i
        return None if hidden is not None and best is not None and hidden < best else best

    def ord_p(self) -> Fraction:
        return Fraction(self.ord_pi(), self.field.e)

    def cert_prec_pi(self) -> int:
        """Certified absolute pi-adic precision: min over coefficients of e*prec + i."""
        e = self.field.e
        cap = self.field.ctx.prec
        return min(e * min(c.prec, cap) + i for i, c in enumerate(self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_prunable_zero(self) -> bool:
        """Zero at the full precision cap: a sparse container may drop it."""
        return self.is_zero() and self.cert_prec_pi() >= self.field.e * self.field.ctx.prec

    def is_zero_at(self, floor_pi: int) -> bool:
        """Certifiably divisible by pi^floor_pi (zero at that precision or deeper)."""
        v = self.ord_pi_or_none()
        if v is not None:
            return v >= floor_pi
        return self.cert_prec_pi() >= floor_pi

    def same_at(self, other: "KElement", floor_pi: int) -> bool:
        return (self - other).is_zero_at(floor_pi)

    def residue(self) -> int:
        """Image in the residue field F_p (= c_0 mod p)."""
        return self.coeffs[0].residue()

    def __repr__(self):
        return f"KElement({self.expansion_str()})"

    # -- serialization -------------------------------------------------------

    def pi_digits(self, n: int | None = None) -> list:
        """First n pi-adic digits d_j in {0..p-1}, x = sum d_j pi^j + O(pi^n).

        One integer recurrence for every e: the coefficients are lifted
        once and reduced mod p^M, M = ceil(n/e) + 1. Each step emits
        d = c_0 mod p and replaces x by (x - d)/pi = ((c_0 - d)/p)*(p/pi)
        + (c_1 + c_2 pi + ...), where p/pi has p-integral coefficients.
        The truncation is an error of pi-valuation >= e*M, each step lowers
        it by one, so all n digits are exact.
        """
        cert = self.cert_prec_pi()
        n = cert if n is None else min(n, cert)
        if n <= 0:
            return []
        v = self.ord_pi_or_none()
        if v is not None and v < 0:
            raise ValueError("negative valuation has no digit expansion")
        fld = self.field
        p = fld.ctx.p
        mod = p ** (-(-n // fld.e) + 1)
        w = [c.numerator * pow(c.denominator, -1, mod) % mod for c in fld.p_over_pi]
        c = [x.lift() % mod for x in self.coeffs]
        top = fld.e - 1
        digits = []
        for _ in range(n):
            q, d = divmod(c[0], p)
            digits.append(d)
            for k in range(top):
                c[k] = (q * w[k] + c[k + 1]) % mod
            c[top] = q * w[top] % mod
        return digits

    def expansion_str(self, n: int | None = None) -> str:
        """Expansion string "c_0 + c_1*pi + ... + O(pi^N)" with digit coefficients."""
        prec = self.cert_prec_pi() if n is None else min(n, self.cert_prec_pi())
        v = self.ord_pi_or_none()
        if v is not None and v < 0:
            inner = self.shift(-v).expansion_str(prec - v if n is None else n)
            return f"pi^{v}*({inner})"
        digits = self.pi_digits(prec)
        terms = []
        for j, d in enumerate(digits):
            if d == 0:
                continue
            if j == 0:
                terms.append(str(d))
            elif j == 1:
                terms.append(f"{d}*pi" if d != 1 else "pi")
            else:
                terms.append(f"{d}*pi^{j}" if d != 1 else f"pi^{j}")
        terms.append(f"O(pi^{prec})")
        return " + ".join(terms)


def k_teichmuller(x: KElement) -> KElement:
    """Teichmuller lift of the residue of a unit of V (residue field is F_p)."""
    if x.ord_pi_or_none() != 0:
        raise NotAOneUnit("Teichmuller lift needs a unit of the integer ring")
    r = x.residue()
    t = teichmuller(PadicScalar.from_int(x.field.ctx, r)) if r else None
    if t is None:
        raise NotAOneUnit("unit has zero residue; element is not a unit")
    return x.field.embed_scalar(t)


def unit_decompose(x: KElement):
    """x = pi^a * omega * u with omega Teichmuller and u a one-unit.

    Returns (a, omega, u); omega is a Q_p scalar, so u takes one p-adic
    division and no inverse in K. Requires x certified nonzero.
    """
    a = x.ord_pi()
    y = x.shift(-a)
    omega = k_teichmuller(y)
    return a, omega, y.scale(1 / omega.coeffs[0])


# -- parsing ------------------------------------------------------------------


def parse_eisenstein(src: str, ctx: PadicContext) -> FieldDescriptor:
    """Parse a monic Eisenstein polynomial in s, e.g. "s^2-5" or "s^3+5*s+10"."""
    text = src.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial")
    term_re = re.compile(r"([+-]?)((?:\d+/\d+)|\d+)?(?:(\*?)(s)(?:\^(\d+))?)?")
    pos = 0
    terms = {}
    while pos < len(text):
        m = term_re.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        sign, coeff, _, svar, expo = m.groups()
        if coeff is None and svar is None:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        c = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            c = -c
        k = 0
        if svar:
            k = int(expo) if expo else 1
        terms[k] = terms.get(k, Fraction(0)) + c
        pos = m.end()
    e = max(terms)
    if e < 1:
        raise ValueError("polynomial must involve s")
    if terms[e] != 1:
        raise ValueError("polynomial must be monic")
    coeffs = tuple(terms.get(i, Fraction(0)) for i in range(e))
    return FieldDescriptor(ctx, coeffs)


class _Tok:
    def __init__(self, text: str):
        self.toks = re.findall(r"\d+|pi|p|[()+\-*/^]", text.replace(" ", ""))
        if "".join(self.toks) != text.replace(" ", ""):
            raise ValueError(f"cannot tokenize element expression {text!r}")
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t


def parse_element(src: str, field: FieldDescriptor) -> KElement:
    """Parse an element expression over K: integers, p, pi, + - * / ^ and parentheses."""
    tk = _Tok(src)

    def atom():
        t = tk.next()
        if t == "(":
            v = expr()
            if tk.next() != ")":
                raise ValueError("unbalanced parentheses")
            return v
        if t == "pi":
            return field.pi()
        if t == "p":
            return field.from_int(field.ctx.p)
        if t == "-":
            return -atom()
        if t is not None and t.isdigit():
            return field.from_int(int(t))
        raise ValueError(f"unexpected token {t!r} in element expression")

    def power():
        v = atom()
        while tk.peek() == "^":
            tk.next()
            neg = False
            t = tk.next()
            if t == "-":
                neg = True
                t = tk.next()
            if t is None or not t.isdigit():
                raise ValueError("exponent must be an integer")
            n = int(t)
            v = v ** (-n if neg else n)
        return v

    def term():
        v = power()
        while tk.peek() in ("*", "/"):
            op = tk.next()
            w = power()
            v = v * w if op == "*" else v / w
        return v

    def expr():
        t = tk.peek()
        neg = False
        if t == "-":
            tk.next()
            neg = True
        v = term()
        if neg:
            v = -v
        while tk.peek() in ("+", "-"):
            op = tk.next()
            w = term()
            v = v + w if op == "+" else v - w
        return v

    try:
        out = expr()
    except (AmbiguousValuation, DivisionByIndistinguishableZero) as err:
        # only an inverse asks for a valuation here: the divisor is zero
        raise ValueError(f"division by zero in element expression {src!r}") from err
    if tk.peek() is not None:
        raise ValueError(f"trailing input in element expression {src!r}")
    return out
