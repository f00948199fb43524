"""Totally ramified extensions K = Q_p(pi) cut out by an Eisenstein polynomial.

Elements are polynomials in the uniformizer pi of degree < e, reduced
modulo f(pi) = 0. Each coefficient is three plain integers (val, unit,
prec): p^val * unit known to absolute precision O(p^prec), with unit prime
to p, or unit 0 and val = prec for a zero known to O(p^prec). This is the
model of padic.PadicScalar, which stays the public Q_p scalar at the
boundary (KElement(field, coeffs) and .coeffs) but which no arithmetic here
builds. The base field is the degenerate case e = 1 with f = s - p, so Q_p
needs no special code path. Both the pi-adic valuation (integer) and the
p-adic valuation (rational, ord_pi / e) are exposed.

One integer kernel multiplies. The coefficients are written as integers
over a common power of p and multiplied as polynomials (_convolve); pi^e,
..., pi^(2e-2) are folded back by the reduction rows (_fold), lifted once
per field to integers over one common denominator. Each term is known to
O(p^min(val_x + prec_y, val_y + prec_x)), the scalar rule, with the rows
known to relative precision prec. A coefficient of the left factor that is
zero at the cap is exact: it adds no term and no bound (a zero of the right
factor still bounds its terms, and at e = 1 the product is the scalar one).
A slot of pi^e.. that is zero at the cap folds nothing, and an output
coefficient that no term reaches is the exact zero, stated at
O(p^(2 prec)). The sums themselves are exact, so no term is lost however
high its valuation. The log series runs on the same kernel (int_product).

Digits are read off on plain integers, not by K arithmetic: the
coefficients are lifted once mod p^M, and each step emits d = c_0 mod p
and divides x - d by pi as ((c_0 - d)/p) * (p/pi) + (c_1 + c_2 pi + ...).
p/pi has p-integral coefficients because v_p(a_0) = 1. Over Q_p itself
(f = s - p) p/pi = 1, so the same recurrence is divmod by p.

Every multiplication by a power of pi, inverses and unit_decompose
included, is KElement.shift: one digit per step, through pi^-1 = (p/pi)/p.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import AmbiguousValuation, DivisionByIndistinguishableZero, NotAOneUnit
from .padic import PadicContext, PadicScalar, teichmuller_lift, vp

_EXACT = math.inf  # the bound of a sum that no term has reached


def _norm(p: int, m: int, base: int, prec: int, den: int = 1) -> tuple:
    """(val, unit, prec) of p^base * m / den known to O(p^prec); den is prime to p."""
    rel = prec - base
    if rel > 0:
        mod = p ** rel
        m = m % mod if den == 1 else m * pow(den, -1, mod) % mod
        if m:
            while not m % p:
                m //= p
                base += 1
            return base, m, prec
    return prec, 0, prec


def _at_common_base(p: int, cs) -> tuple:
    """Integers m_i and a base with c_i = p^base * m_i for each coefficient."""
    base = None
    for v, u, _ in cs:
        if u and (base is None or v < base):
            base = v
    if base is None:
        return [0] * len(cs), 0
    return [u * p ** (v - base) if u else 0 for v, u, _ in cs], base


def _convolve(a: list, b: list) -> list:
    """Integer polynomial product, lowest degree first."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return prod


def _fold(prod: list, rows: list, den: int = 1) -> list:
    """den * prod mod f, where den * pi^(e+k) has the integer entries of rows[k]."""
    e = len(rows) + 1
    out = prod[:e] if den == 1 else [c * den for c in prod[:e]]
    for k, row in enumerate(rows):
        c = prod[e + k]
        if c:
            for i, r, _ in row:
                out[i] += c * r
    return out


def int_product(a: list, b: list, rows: list, mod: int) -> list:
    """a * b in Z[pi]/(f) mod `mod`, for rows = FieldDescriptor.fold_rows(mod)."""
    return [c % mod for c in _fold(_convolve(a, b), rows)]


def _integer_rows(rows, p: int) -> tuple:
    """(den, rows'): the nonzero entries r of rows as (i, den * r, v_p(r))."""
    den = 1
    for row in rows:
        for r in row:
            den = den * r.denominator // math.gcd(den, r.denominator)
    return den, [[(i, int(r * den), _frac_vp(r, p)) for i, r in enumerate(row) if r]
                 for row in rows]


def _reduction_rows(coeffs: tuple) -> list:
    """Coefficient rows of pi^e, ..., pi^(2e-2) on the basis pi^0..pi^{e-1}."""
    e = len(coeffs)
    cur = [-c for c in coeffs]  # pi^e = -sum a_i pi^i
    rows = [tuple(cur)]
    for _ in range(e - 2):
        # multiply by pi: shift, then reduce the overflow of pi^e
        top = cur[-1]
        cur = [Fraction(0)] + cur[:-1]
        for i in range(e):
            cur[i] += top * rows[0][i]
        rows.append(tuple(cur))
    return rows


class FieldDescriptor:
    """K = Q_p[s]/(f) for monic Eisenstein f = s^e + a_{e-1} s^{e-1} + ... + a_0."""

    __slots__ = ("ctx", "p", "cap", "coeffs", "e", "p_over_pi", "_zeros",
                 "_den", "_rows", "_up", "_down", "_log_plans")

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
        self.p = ctx.p
        self.cap = ctx.prec
        self.coeffs = coeffs
        self.e = len(coeffs)
        # p/pi = -(p/a_0)(pi^{e-1} + sum_{i>=1} a_i pi^{i-1}): p-integral, as v_p(a_0) = 1
        unit = -ctx.p / coeffs[0]
        self.p_over_pi = tuple(unit * c for c in coeffs[1:] + (Fraction(1),))
        self._zeros = ((self.cap, 0, self.cap),) * self.e
        # lifted once: the kernel's rows of pi^e..pi^(2e-2), and the scalars
        # a step of KElement.shift folds by, pi^e = -sum a_i pi^i up and
        # pi^-1 = (p/pi)/p down, each known to relative precision cap
        self._den, self._rows = _integer_rows(_reduction_rows(coeffs)[:self.e - 1], ctx.p)
        self._up = [(i, self._rational(-c)) for i, c in enumerate(coeffs) if c]
        self._down = [(i, self._rational(c / ctx.p)) for i, c in enumerate(self.p_over_pi) if c]
        self._log_plans = {}  # plog._log_plan's series plans, by (v, depth)

    @classmethod
    def base(cls, ctx: PadicContext) -> "FieldDescriptor":
        """Q_p itself, presented as the degenerate extension by f = s - p."""
        return cls(ctx, (-ctx.p,))

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

    def fold_rows(self, mod: int) -> list:
        """The product rows lifted mod `mod`, for int_product."""
        if self._den == 1:
            return self._rows
        inv = pow(self._den, -1, mod)
        return [[(i, r * inv % mod, v) for i, r, v in row] for row in self._rows]

    # -- scalars: (val, unit, prec) as PadicScalar builds them ----------------

    def _int(self, n: int) -> tuple:
        """The integer n, known to relative precision cap."""
        if not n:
            return self._zeros[0]
        v = vp(n, self.p)
        return v, n // self.p ** v % self.p ** self.cap, self.cap + v

    def _rational(self, q) -> tuple:
        q = Fraction(q)
        if q.denominator == 1:
            return self._int(q.numerator)
        vn, un, _ = self._int(q.numerator)
        vd, ud, _ = self._int(q.denominator)
        mod = self.p ** self.cap
        return vn - vd, un * pow(ud, -1, mod) % mod, vn - vd + self.cap

    def _scalar(self, c) -> tuple:
        """A Q_p scalar given as an int, a Fraction or a PadicScalar."""
        if isinstance(c, int):
            return self._int(c)
        if isinstance(c, Fraction):
            return self._rational(c)
        if isinstance(c, PadicScalar):
            return c.val, c.unit, c.prec
        raise TypeError(f"not a Q_p scalar: {c!r}")

    def _inverse(self, c: tuple) -> tuple:
        """1/c for a scalar c, 1 being known to the cap."""
        v, u, n = c
        if not u:
            raise DivisionByIndistinguishableZero(f"divisor is zero at O(p^{n})")
        rel = min(self.cap, n - v)
        return -v, pow(u, -1, self.p ** rel), rel - v

    # -- element constructors --------------------------------------------

    def element(self, cs: tuple) -> "KElement":
        """The element with coefficient triples cs = ((val, unit, prec), ...)."""
        x = _new(KElement)
        x.field = self
        x._c = cs
        return x

    def _scaled(self, cs: tuple, c: tuple) -> "KElement":
        """The element with coefficients cs, each times the scalar c."""
        return self.element(tuple([_prod(self.p, x, c) for x in cs]))

    def from_ints(self, ms, base: int, precs) -> "KElement":
        """sum_i p^base * ms[i] * pi^i, coefficient i known to O(p^precs[i])."""
        return self.element(tuple(_norm(self.p, m, base, n) for m, n in zip(ms, precs)))

    def from_coeff(self, c: tuple) -> "KElement":
        """The scalar c = (val, unit, prec), as read by KElement.coeff, in K."""
        return self.element((c,) + self._zeros[1:])

    def zero(self) -> "KElement":
        return self.element(self._zeros)

    def one(self) -> "KElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "KElement":
        return self.from_coeff(self._int(n))

    def from_rational(self, q) -> "KElement":
        return self.from_coeff(self._rational(q))

    def embed_scalar(self, x: PadicScalar) -> "KElement":
        return self.from_coeff((x.val, x.unit, x.prec))

    def pi(self) -> "KElement":
        return self.one().shift(1)

    def pi_inv(self) -> "KElement":
        return self.one().shift(-1)


def _frac_vp(q: Fraction, p: int):
    if q == 0:
        return None
    return vp(q.numerator, p) - vp(q.denominator, p)


def _sum(p: int, a: tuple, b: tuple) -> tuple:
    """a + b for scalars (val, unit, prec)."""
    va, ua, pa = a
    vb, ub, pb = b
    if vb < va:
        va, ua, vb, ub = vb, ub, va, ua
    return _norm(p, ua + ub * p ** (vb - va) if ub else ua, va, pa if pa < pb else pb)


def _prod(p: int, a: tuple, b: tuple) -> tuple:
    """a * b for scalars, known to O(p^min(val_a + prec_b, val_b + prec_a))."""
    va, ua, pa = a
    vb, ub, pb = b
    x, y = va + pb, vb + pa
    prec = x if x < y else y
    if ua and ub:
        return va + vb, ua * ub % p ** (prec - va - vb), prec
    return prec, 0, prec


def _neg(p: int, cs: tuple) -> tuple:
    return tuple([(v, -u % p ** (n - v), n) if u else (v, u, n) for v, u, n in cs])


def _product(fld: FieldDescriptor, a: tuple, b: tuple) -> tuple:
    """Coefficients of a * b in K for e >= 2, by the kernel."""
    p, cap, e, den = fld.p, fld.cap, fld.e, fld._den
    xs, base_a = _at_common_base(p, a)
    ys, base_b = _at_common_base(p, b)
    base = base_a + base_b
    prod = _convolve(xs, ys)
    prec = [_EXACT] * (2 * e - 1)
    for i, (va, ua, pa) in enumerate(a):
        if ua or pa < cap:  # a zero at the cap is exact
            for k, (vb, _, pb) in enumerate(b, i):
                t, s = va + pb, vb + pa
                if s < t:
                    t = s
                if t < prec[k]:
                    prec[k] = t
    for k in range(e, 2 * e - 1):
        pk = prec[k]
        if pk == _EXACT:
            continue
        vk, uk, _ = _norm(p, prod[k], base, pk)
        if not uk and pk >= cap:  # zero at the cap: exact, it folds nothing
            prod[k] = 0
            continue
        bound = vk + cap if vk + cap < pk else pk
        for i, _, vr in fld._rows[k - e]:
            if vr + bound < prec[i]:
                prec[i] = vr + bound
    out = []
    for m, n in zip(_fold(prod, fld._rows, den), prec):
        out.append(_norm(p, m, base, n, den) if n != _EXACT else (2 * cap, 0, 2 * cap))
    return tuple(out)


_new = object.__new__


class KElement:
    """Element of K: e coefficients (val, unit, prec) on 1, pi, ..., pi^{e-1}."""

    __slots__ = ("field", "_c")

    def __init__(self, field: FieldDescriptor, coeffs: tuple):
        """coeffs: e PadicScalar coefficients, the public form of an element."""
        if len(coeffs) != field.e:
            raise ValueError("coefficient count must equal the degree")
        self.field = field
        self._c = tuple((c.val, c.unit, c.prec) for c in coeffs)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as PadicScalar objects."""
        ctx = self.field.ctx
        return tuple(PadicScalar(ctx, v, u, n) for v, u, n in self._c)

    def coeff(self, i: int = 0) -> tuple:
        """Coefficient i as plain integers (val, unit, prec)."""
        return self._c[i]

    def lifts(self, mod: int) -> list:
        """Integer representatives of the coefficients mod `mod`."""
        p = self.field.p
        out = []
        for v, u, _ in self._c:
            if u and v < 0:
                raise ValueError("negative valuation has no integer lift")
            out.append(u * p ** v % mod if u else 0)
        return out

    def _operand(self, other):
        """other's coefficient triples: a KElement of this field or a Q_p scalar."""
        if isinstance(other, KElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other._c
        if isinstance(other, (int, Fraction, PadicScalar)):
            fld = self.field
            return (fld._scalar(other),) + fld._zeros[1:]
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        b = self._operand(other)
        if b is NotImplemented:
            return NotImplemented
        p = self.field.p
        return self.field.element(tuple([_sum(p, x, y) for x, y in zip(self._c, b)]))

    __radd__ = __add__

    def __neg__(self):
        return self.field.element(_neg(self.field.p, self._c))

    def __sub__(self, other):
        b = self._operand(other)
        if b is NotImplemented:
            return NotImplemented
        p = self.field.p
        return self.field.element(tuple([_sum(p, x, y) for x, y in zip(self._c, _neg(p, b))]))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "KElement":
        """self times the Q_p scalar c: an int, a Fraction or a PadicScalar."""
        fld = self.field
        return fld._scaled(self._c, fld._scalar(c))

    def __mul__(self, other):
        b = self._operand(other)
        if b is NotImplemented:
            return NotImplemented
        fld = self.field
        if fld.e == 1:  # no zero is skipped here: the scalar product
            return fld.element((_prod(fld.p, self._c[0], b[0]),))
        return fld.element(_product(fld, self._c, b))

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
        b = self._operand(other)
        if b is NotImplemented:
            return NotImplemented
        return self * self.field.element(b).inverse()

    def __rtruediv__(self, other):
        b = self._operand(other)
        if b is NotImplemented:
            return NotImplemented
        return self.field.element(b) * self.inverse()

    def shift(self, k: int) -> "KElement":
        """self * pi^k, one exact step per power of pi.

        A step down moves c_0 to c_0 * pi^-1, whose coefficients are
        p_over_pi / p; a step up folds c_{e-1} pi^e back by pi^e = -sum a_i pi^i.
        A step down costs at most one digit of certified precision (exactly
        one when c_0 is nonzero and every coefficient is known to the cap);
        a step up gains one, up to the cap.
        A coefficient that is zero at the cap is exact, as in a product: it
        folds nothing, and a sum starts from no term (None) rather than
        from a zero of some precision.
        """
        fld = self.field
        p, cap = fld.p, fld.cap
        row = fld._up if k >= 0 else fld._down
        cs = [None if not u and n >= cap else (v, u, n) for v, u, n in self._c]
        for _ in range(abs(k)):
            if k > 0:
                c = cs.pop()
                cs.insert(0, None)
            else:
                c = cs.pop(0)
                cs.append(None)
            if c is None or not c[1] and c[2] >= cap:
                continue
            for i, w in row:
                t = _prod(p, c, w)
                cs[i] = t if cs[i] is None else _sum(p, cs[i], t)
        return fld.element(tuple((2 * cap, 0, 2 * cap) if c is None else c for c in cs))

    def inverse(self) -> "KElement":
        a = self.ord_pi()
        fld = self.field
        if fld.e == 1:
            # one p-adic division is already exact; Newton would be the identity
            return fld.from_coeff(fld._inverse(self._c[0]))
        return self._inverse_newton(a)

    def _inverse_newton(self, a: int) -> "KElement":
        """Inverse of an element of pi-adic valuation a by Newton iteration."""
        fld = self.field
        u = self.shift(-a)
        # u is now a unit: c_0 is a p-adic unit. Newton: z -> z(2 - uz).
        z = fld.from_coeff(fld._inverse(u._c[0]))
        two = fld.from_int(2)
        steps = max(1, (fld.e * fld.cap).bit_length() + 1)
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
        e, cap = self.field.e, self.field.cap
        best = hidden = None
        for i, (v, u, n) in enumerate(self._c):
            if u:
                t = e * v + i
                if best is None or t < best:
                    best = t
            elif n < cap and (hidden is None or e * n + i < hidden):
                hidden = e * n + i
        return None if hidden is not None and best is not None and hidden < best else best

    def ord_p(self) -> Fraction:
        return Fraction(self.ord_pi(), self.field.e)

    def cert_prec_pi(self) -> int:
        """Certified absolute pi-adic precision: min over coefficients of e*prec + i."""
        e, cap = self.field.e, self.field.cap
        return min(e * min(n, cap) + i for i, (_, _, n) in enumerate(self._c))

    def is_zero(self) -> bool:
        for _, u, _ in self._c:
            if u:
                return False
        return True

    def is_prunable_zero(self) -> bool:
        """Zero at the full precision cap: a sparse container may drop it."""
        cap = self.field.cap
        for _, u, n in self._c:
            if u or n < cap:
                return False
        return True

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
        v, u, _ = self._c[0]
        if not u:
            return 0
        if v < 0:
            raise ValueError("negative valuation has no residue")
        return u % self.field.p if v == 0 else 0

    def __repr__(self):
        return f"KElement({self.expansion_str()})"

    # -- serialization -------------------------------------------------------

    def pi_digits(self, n: int | None = None) -> list:
        """First n pi-adic digits d_j in {0..p-1}, x = sum d_j pi^j + O(pi^n).

        One integer recurrence for every e: the coefficients are lifted
        once and reduced mod p^M, M = ceil(n/e). Each step emits
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
        p = fld.p
        mod = p ** -(-n // fld.e)
        w = [c.numerator * pow(c.denominator, -1, mod) % mod for c in fld.p_over_pi]
        c = self.lifts(mod)
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
    if not r:
        raise NotAOneUnit("unit has zero residue; element is not a unit")
    fld = x.field
    return fld.from_coeff((0, teichmuller_lift(r, fld.p, fld.cap), fld.cap))


def unit_decompose(x: KElement):
    """x = pi^a * omega * u with omega Teichmuller and u a one-unit.

    Returns (a, omega, u); omega is a Q_p scalar, so u takes one p-adic
    division and no inverse in K. Requires x certified nonzero.
    """
    a = x.ord_pi()
    y = x.shift(-a)
    omega = k_teichmuller(y)
    fld = x.field
    return a, omega, fld._scaled(y._c, fld._inverse(omega._c[0]))


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
        try:
            c = Fraction(coeff) if coeff else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in polynomial near {text[pos:]!r}") from None
        if sign == "-":
            c = -c
        k = 0
        if svar:
            k = int(expo) if expo else 1
        terms[k] = terms.get(k, Fraction(0)) + c
        pos = m.end()
    e = max(terms)
    if e > _MAX_DEGREE:
        raise ValueError(f"polynomial degree {e} exceeds the limit {_MAX_DEGREE}")
    if e < 1:
        raise ValueError("polynomial must involve s")
    if terms[e] != 1:
        raise ValueError("polynomial must be monic")
    coeffs = tuple(terms.get(i, Fraction(0)) for i in range(e))
    return FieldDescriptor(ctx, coeffs)


# nesting depth parse_element accepts; each level costs it a few stack
# frames, so this bound keeps it far from the interpreter's recursion limit
_MAX_NESTING = 100
# degree parse_eisenstein accepts: setting up the field costs about e^2.2
_MAX_DEGREE = 64


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
    depth = 0

    def nested(rule):
        # parentheses and unary minus are the only ways the descent recurses
        nonlocal depth
        depth += 1
        if depth > _MAX_NESTING:
            raise ValueError(f"element expression nests parentheses and unary "
                             f"minus signs deeper than {_MAX_NESTING}")
        v = rule()
        depth -= 1
        return v

    def atom():
        t = tk.next()
        if t == "(":
            v = nested(expr)
            if tk.next() != ")":
                raise ValueError("unbalanced parentheses")
            return v
        if t == "pi":
            return field.pi()
        if t == "p":
            return field.from_int(field.ctx.p)
        if t == "-":
            return -nested(atom)
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
