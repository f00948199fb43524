"""Capped-absolute-precision p-adic scalars over Q_p.

A scalar is stored as p^val * unit with the unit known modulo
p^(prec - val), where prec is the absolute precision. There are no
epsilons: a value is numerically zero exactly when its valuation
reaches its stated precision, and operations that need more than the
stated precision raise instead of guessing.

PadicScalar is the public Q_p scalar and the reference the tests check K
arithmetic against. It is not the coefficient type of K: field.KElement
holds the same (val, unit, prec) model as plain integers, and builds a
PadicScalar only at its boundary (KElement(field, coeffs) and .coeffs).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AmbiguousValuation, DivisionByIndistinguishableZero, NotAOneUnit


def vp(n: int, p: int) -> int:
    """Valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("vp(0) is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Primality of n < PRIME_BOUND by Miller-Rabin to the 13 _WITNESSES, which
    is exact there: PRIME_BOUND is the least odd composite passing them all
    (OEIS A014233)."""
    if n <= _WITNESSES[-1]:
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n is a strong probable prime to base a: a^d = 1 or a^(d 2^i) = -1, i < s
    return all(pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))
               for a in _WITNESSES)


class PadicContext:
    """Shared prime and default absolute precision cap."""

    __slots__ = ("p", "prec")

    def __init__(self, p: int, prec: int):
        if p >= PRIME_BOUND:
            raise ValueError(f"p must be below the primality bound {PRIME_BOUND}")
        if not _is_prime(p):
            raise ValueError("p must be prime")
        if prec < 1:
            raise ValueError("prec must be positive")
        self.p = p
        self.prec = prec

    def __repr__(self):
        return f"PadicContext(p={self.p}, prec={self.prec})"

    def __eq__(self, other):
        return isinstance(other, PadicContext) and (self.p, self.prec) == (other.p, other.prec)

    def __hash__(self):
        return hash((self.p, self.prec))


class PadicScalar:
    """Element of Q_p known to absolute precision O(p^prec).

    Internal form: val <= prec; unit is an integer in [1, p^(prec-val))
    coprime to p, or 0 with val == prec for the distinguished
    "zero known to O(p^prec)".
    """

    __slots__ = ("ctx", "val", "unit", "prec")

    def __init__(self, ctx: PadicContext, val: int, unit: int, prec: int):
        self.ctx = ctx
        self.val = val
        self.unit = unit
        self.prec = prec

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _make(ctx: PadicContext, mantissa: int, base_val: int, prec: int) -> "PadicScalar":
        """Canonical form of p^base_val * mantissa known to absolute precision prec."""
        rel = prec - base_val
        if rel <= 0:
            return PadicScalar(ctx, prec, 0, prec)
        mantissa %= ctx.p ** rel
        if mantissa == 0:
            return PadicScalar(ctx, prec, 0, prec)
        v = vp(mantissa, ctx.p)
        if v >= rel:
            return PadicScalar(ctx, prec, 0, prec)
        unit = (mantissa // ctx.p ** v) % ctx.p ** (rel - v)
        return PadicScalar(ctx, base_val + v, unit, prec)

    @staticmethod
    def _normalize(ctx: PadicContext, lifted: int, prec: int) -> "PadicScalar":
        """Canonical form of an integer known modulo p^prec."""
        return PadicScalar._make(ctx, lifted, 0, prec)

    @classmethod
    def zero(cls, ctx: PadicContext, prec: int | None = None) -> "PadicScalar":
        n = ctx.prec if prec is None else prec
        return cls(ctx, n, 0, n)

    @classmethod
    def from_int(cls, ctx: PadicContext, n: int, prec: int | None = None) -> "PadicScalar":
        """Embed an integer with relative precision ctx.prec (or absolute prec if given)."""
        if prec is not None:
            return cls._normalize(ctx, n, prec)
        if n == 0:
            return cls.zero(ctx)
        return cls._normalize(ctx, n, ctx.prec + vp(n, ctx.p))

    @classmethod
    def from_rational(cls, ctx: PadicContext, q: Fraction | int, prec: int | None = None) -> "PadicScalar":
        q = Fraction(q)
        if q.denominator == 1:
            return cls.from_int(ctx, q.numerator, prec)
        num = cls.from_int(ctx, q.numerator, prec)
        den = cls.from_int(ctx, q.denominator, prec)
        return num / den

    # -- predicates and views -------------------------------------------

    def is_zero(self) -> bool:
        """Numerically zero: valuation has reached the stated precision."""
        return self.unit == 0

    def ord(self) -> int:
        if self.unit == 0:
            raise AmbiguousValuation(f"value is zero at O(p^{self.prec}); valuation undecidable")
        return self.val

    def ord_or_none(self) -> int | None:
        return None if self.unit == 0 else self.val

    def lift(self) -> int:
        """Smallest nonnegative integer representative mod p^prec; needs val >= 0."""
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise ValueError("negative valuation has no integer lift")
        return (self.ctx.p ** self.val) * self.unit

    def residue(self) -> int:
        """Image in the residue field F_p; requires val >= 0 knowledge."""
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise ValueError("negative valuation has no residue")
        return self.lift() % self.ctx.p

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "PadicScalar":
        if isinstance(other, PadicScalar):
            return other
        if isinstance(other, int):
            return PadicScalar.from_int(self.ctx, other)
        if isinstance(other, Fraction):
            return PadicScalar.from_rational(self.ctx, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = min(self.prec, other.prec)
        base = min(self.val, other.val)
        p = self.ctx.p
        mant = self.unit * p ** (self.val - base) + other.unit * p ** (other.val - base)
        return self._make(self.ctx, mant, base, prec)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        rel = self.prec - self.val
        return PadicScalar(self.ctx, self.val, (-self.unit) % self.ctx.p ** rel, self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # abs precision of a product: min(val_x + prec_y, val_y + prec_x)
        prec = min(self.val + other.prec, other.val + self.prec)
        if self.unit == 0 or other.unit == 0:
            return PadicScalar(self.ctx, prec, 0, prec)
        val = self.val + other.val
        unit = (self.unit * other.unit) % self.ctx.p ** (prec - val)
        if unit == 0:
            return PadicScalar(self.ctx, prec, 0, prec)
        return PadicScalar(self.ctx, val, unit, prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.unit == 0:
            raise DivisionByIndistinguishableZero(
                f"divisor is zero at O(p^{other.prec})")
        rel = min(self.prec - self.val, other.prec - other.val)
        val = self.val - other.val
        if self.unit == 0:
            return PadicScalar(self.ctx, val + rel, 0, val + rel)
        m = self.ctx.p ** rel
        unit = (self.unit * pow(other.unit, -1, m)) % m
        return PadicScalar(self.ctx, val, unit, val + rel)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return PadicScalar.from_int(self.ctx, 1) / self ** (-n)
        out = PadicScalar.from_int(self.ctx, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- comparison helpers (explicit, no __eq__ on values) ---------------

    def same_at(self, other: "PadicScalar", floor: int) -> bool:
        """True when self - other is certifiably divisible by p^floor."""
        d = self - other
        if d.unit == 0:
            return d.prec >= floor
        return d.val >= floor

    def __repr__(self):
        if self.unit == 0:
            return f"O(p^{self.prec})"
        if self.val < 0:
            return f"p^{self.val}*{self.unit} + O(p^{self.prec})"
        return f"{self.lift()} + O(p^{self.prec})"


def teichmuller_lift(a: int, p: int, prec: int) -> int:
    """Teichmuller representative of a unit a mod p^prec: the fixpoint of t -> t^p."""
    m = p ** prec
    t = a % m
    while True:
        t2 = pow(t, p, m)
        if t2 == t:
            return t
        t = t2


def teichmuller(x: PadicScalar) -> PadicScalar:
    """Multiplicative lift of the residue of a unit, by p-power iteration to the fixpoint."""
    if x.is_zero() or x.val != 0:
        raise NotAOneUnit(f"expected a p-adic unit, got valuation {x.ord_or_none()!r}")
    return PadicScalar._normalize(x.ctx, teichmuller_lift(x.lift(), x.ctx.p, x.prec), x.prec)
