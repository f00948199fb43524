"""Truncated function and form algebras on the standard annulus charts.

The polygon of length r is covered by charts Z_n carrying coordinates
v, w with v*w = s (s the base coordinate); W_n is the locus where w is
invertible. Monomials are indexed (i, j): on a Z chart j >= 0 means
s^i v^j and j < 0 means s^i w^(-j); on a W chart j is the w-exponent of
s^i w^j. One-forms live on the basis {dlog v, dlog w}, two-forms on
{dlog v ^ dlog w}.

Fiber charts (kind XF over the interior, WF where w is invertible)
arise by specializing s to an element a of positive valuation;
monomials lose the s-index and relative one-forms collapse onto
{dlog v} via dlog w = -dlog v.

Everything is truncated to a window |i| <= S, |j| <= T (T only on
fibers). Operations that push a monomial outside the window drop it
and set the overflow flag; certificates downstream refuse tainted
windows.

Both kinds of form share one sparse core, _SparseForm: a dict from
monomial keys to scalars of one pure degree on one chart, with the linear
structure (sum, negation, scaling, zero tests at a floor) written once.
ChartElement (keys (i, j, slot), window S, T) and FiberElement (keys
(j, slot), window T) add only their key shape and window, their own
_accumulate, and their operators.
"""

from __future__ import annotations

from .errors import ChartMismatch
from .field import FieldDescriptor, KElement

Z, W, XF, WF = "Z", "W", "XF", "WF"

# slots per degree; degree 1 is (dlog v, dlog w) on charts, (dlog v,) on fibers;
# degree 3 exists only as the zero space so that d is total
_CHART_SLOTS = {0: (0,), 1: (0, 1), 2: (0,), 3: ()}
_FIBER_SLOTS = {0: (0,), 1: (0,), 2: ()}
# slot images (target slot, coefficient) of the twist restriction per form
# degree: dlog v -> -dlog w, dlog w -> dlog v + 2 dlog w, and on the top
# degree det [[0, 1], [-1, 2]] = +1
_TWIST_SLOTS = {0: {0: ((0, 1),)},
                1: {0: ((1, -1),), 1: ((0, 1), (1, 2))},
                2: {0: ((0, 1),)}, 3: {}}


def _vw_exponents(kind: str, j: int, i: int):
    """Exponents (a, b) of the monomial with key (i, j) on a Z or W chart,
    written v^a w^b."""
    if kind == Z:
        return i + max(j, 0), i + max(-j, 0)
    return i, i + j


def _chart_d(degree: int, slot: int, a: int, b: int):
    """(target slot, factor) pairs of the log differential of the monomial
    v^a w^b in `slot` of a form of `degree`: d(f) = a f dlog v + b f dlog w,
    d(f dlog v) = -b f vw and d(g dlog w) = a g vw (factors may be 0);
    nothing from degree 2 up."""
    if degree == 0:
        return (0, a), (1, b)
    if degree == 1:
        return ((0, -b),) if slot == 0 else ((0, a),)
    return ()


def _times(c, k: int):
    """c times the small integer k: c or -c at k = +-1, else c.scale(k)."""
    return c if k == 1 else -c if k == -1 else c.scale(k)


class _SparseForm:
    """Sparse form of pure degree on one chart: monomial key -> scalar.

    Each subclass's _accumulate checks slot and window, then adds the term
    with _add_term, so every stored key lies in the window. Its _blank names
    the window fields instead of unpacking _window(): _blank runs on every
    operation, and a call with star-unpacked arguments is slower."""

    __slots__ = ("field", "r", "kind", "n", "degree", "coeffs", "overflow")

    def __init__(self, field: FieldDescriptor, r: int, kind: str, n: int,
                 degree: int, coeffs, overflow: bool):
        self.field = field
        self.r = r
        self.kind = kind
        self.n = n
        self.degree = degree
        self.coeffs = {} if coeffs is None else coeffs
        self.overflow = overflow

    def _add_term(self, key, coeff):
        cur = self.coeffs.get(key)
        nxt = coeff if cur is None else cur + coeff
        if nxt.is_prunable_zero():
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = nxt

    def items(self):
        return sorted(self.coeffs.items())

    def _compatible(self, other: "_SparseForm", same_degree=True):
        if (self.field != other.field or self.r != other.r or self.kind != other.kind
                or self.n != other.n or self._window() != other._window()):
            raise ChartMismatch("forms live on different charts or windows")
        if same_degree and self.degree != other.degree:
            raise ChartMismatch("degree mismatch")

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        self._compatible(other)
        out = self._blank()
        out.overflow = self.overflow or other.overflow
        out.coeffs = dict(self.coeffs)
        # the terms of other lie in this window already: no window check
        for key, c in other.coeffs.items():
            out._add_term(key, c)
        return out

    def __neg__(self):
        out = self._blank()
        out.coeffs = {k: -c for k, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """self times c: a K element, or a Q_p scalar converted once per form.
        A factor 1 takes the full product too; UForm.mul and .frobenius skip it."""
        out = self._blank()
        fld, cs = self.field, self.coeffs
        if isinstance(c, KElement):
            cs = {k: v * c for k, v in cs.items()}
        else:
            c = fld._scalar(c)
            cs = {k: fld._scaled(v._c, c) for k, v in cs.items()}
        out.coeffs = {k: v for k, v in cs.items() if not v.is_prunable_zero()}
        return out

    def is_zero_at(self, floor_pi: int) -> bool:
        return all(c.is_zero_at(floor_pi) for c in self.coeffs.values())

    def residual_prec(self) -> int:
        """Certified pi-adic depth at which this form vanishes."""
        cap = self.field.e * self.field.ctx.prec
        worst = cap
        for c in self.coeffs.values():
            v = c.ord_pi_or_none()
            worst = min(worst, v if v is not None else c.cert_prec_pi())
        return worst

    def __repr__(self):
        terms = ", ".join(f"{k}:{v!r}" for k, v in self.items())
        return (f"{type(self).__name__}({self.kind}_{self.n}, deg={self.degree}, "
                f"[{terms}]{', overflow' if self.overflow else ''})")


class ChartElement(_SparseForm):
    """Form of pure degree on one chart of the polygon, coefficients in the
    scalar field, truncated to the window."""

    __slots__ = ("S", "T")

    def __init__(self, field: FieldDescriptor, r: int, kind: str, n: int,
                 degree: int, S: int, T: int, coeffs=None, overflow: bool = False):
        if kind not in (Z, W):
            raise ChartMismatch(f"not a polygon chart kind: {kind}")
        if not 1 <= n <= r:
            raise ChartMismatch(f"chart index {n} outside 1..{r}")
        if degree not in _CHART_SLOTS:
            raise ChartMismatch(f"bad form degree {degree}")
        _SparseForm.__init__(self, field, r, kind, n, degree, coeffs, overflow)
        self.S = S
        self.T = T

    # -- construction ----------------------------------------------------

    @classmethod
    def zero(cls, field, r, kind, n, degree, S, T):
        return cls(field, r, kind, n, degree, S, T)

    @classmethod
    def monomial(cls, field, r, kind, n, degree, S, T, i, j, slot, coeff):
        el = cls(field, r, kind, n, degree, S, T)
        el._accumulate(i, j, slot, coeff)
        return el

    def _window(self):
        return self.S, self.T

    def _blank(self, degree=None):
        return ChartElement(self.field, self.r, self.kind, self.n,
                            self.degree if degree is None else degree,
                            self.S, self.T, overflow=self.overflow)

    def _accumulate(self, i, j, slot, coeff):
        if slot not in _CHART_SLOTS[self.degree]:
            raise ChartMismatch(f"slot {slot} invalid in degree {self.degree}")
        if i < 0 or i > self.S or abs(j) > self.T:
            self.overflow = True
            return
        self._add_term((i, j, slot), coeff)

    # -- ring structure ------------------------------------------------------

    def mul(self, other: "ChartElement") -> "ChartElement":
        """Graded product; degree 3 output is identically zero."""
        self._compatible(other, same_degree=False)
        deg = self.degree + other.degree
        if deg > 3:
            raise ChartMismatch("product degree exceeds the top degree")
        out = self._blank(degree=deg)
        out.overflow = self.overflow or other.overflow
        for (i1, j1, s1), c1 in self.coeffs.items():
            for (i2, j2, s2), c2 in other.coeffs.items():
                if self.kind == Z:
                    a1, b1 = _vw_exponents(Z, j1, i1)
                    a2, b2 = _vw_exponents(Z, j2, i2)
                    a, b = a1 + a2, b1 + b2
                    i, j = min(a, b), a - b
                else:
                    i, j = i1 + i2, j1 + j2
                c = c1 * c2
                for slot, sign in _wedge(self.degree, s1, other.degree, s2):
                    out._accumulate(i, j, slot, c if sign > 0 else -c)
        return out

    def d(self) -> "ChartElement":
        """Log differential into degree + 1 (zero map from degree 2 up)."""
        if self.degree >= 2:
            return self._blank(degree=3)
        out = self._blank(degree=self.degree + 1)
        for (i, j, slot), c in self.coeffs.items():
            a, b = _vw_exponents(self.kind, j, i)
            for tslot, k in _chart_d(self.degree, slot, a, b):
                if k:
                    out._accumulate(i, j, tslot, _times(c, k))
        return out

    def frobenius(self) -> "ChartElement":
        """v -> v^p, w -> w^p (hence s -> s^p), coefficients fixed, forms scale by p per slot."""
        p = self.field.ctx.p
        out = self._blank()
        factor = p ** self.degree
        for (i, j, slot), c in self.coeffs.items():
            out._accumulate(p * i, p * j, slot, _times(c, factor))
        return out

    def restrict_nat(self) -> "ChartElement":
        """Restriction Z_n -> W_n (v becomes s/w); identity on the form basis."""
        if self.kind != Z:
            raise ChartMismatch("natural restriction starts on a Z chart")
        out = ChartElement(self.field, self.r, W, self.n, self.degree,
                           self.S, self.T, overflow=self.overflow)
        for (i, j, slot), c in self.coeffs.items():
            out._accumulate(i + max(j, 0), -j, slot, c)
        return out

    def restrict_twist(self, target_n: int) -> "ChartElement":
        """Restriction Z_(n+1 mod r) -> W_n along the gluing v -> w^{-1}, w -> s*w."""
        if self.kind != Z:
            raise ChartMismatch("gluing restriction starts on a Z chart")
        if self.n != (target_n % self.r) + 1:
            raise ChartMismatch(
                f"chart Z_{self.n} does not glue onto W_{target_n} (r={self.r})")
        out = ChartElement(self.field, self.r, W, target_n, self.degree,
                           self.S, self.T, overflow=self.overflow)
        images = _TWIST_SLOTS[self.degree]
        for (i, j, slot), c in self.coeffs.items():
            i2 = i + max(-j, 0)
            for tslot, k in images[slot]:
                out._accumulate(i2, -j, tslot, _times(c, k))
        return out

    def specialize(self, a: KElement, target: FieldDescriptor) -> "FiberElement":
        """Fiber at s = a (ord a >= 1): coefficients pick up a^i, dlog s dies."""
        if a.field != target:
            raise ChartMismatch("specialization point must live in the target field")
        if a.ord_pi() < 1:
            raise ChartMismatch("specialization point must have positive valuation")
        if self.field.e != 1:
            raise ChartMismatch("chart coefficients are expected over the base field")
        kind = XF if self.kind == Z else WF
        out = FiberElement(target, self.r, kind, self.n, self.degree,
                           self.T, overflow=self.overflow)
        pows = {}

        def apow(k):
            if k not in pows:
                pows[k] = a ** k
            return pows[k]

        for (i, j, slot), c in self.coeffs.items():
            ck = target.from_coeff(c.coeff(0)) * apow(i)
            if self.degree == 0:
                out._accumulate(j, 0, ck)
            elif self.degree == 1:
                # f dlog v + g dlog w -> (f - g) dlog v
                out._accumulate(j, 0, ck if slot == 0 else -ck)
            # degree 2 collapses: dlog v ^ dlog w -> dlog v ^ (-dlog v) = 0
        return out


def _wedge(d1: int, s1: int, d2: int, s2: int):
    """Wedge of basis forms: yields (slot, sign) terms of the product."""
    if d1 == 0 or d2 == 0:
        yield (s2 if d1 == 0 else s1), 1
        return
    if d1 == 1 and d2 == 1:
        if s1 == 0 and s2 == 1:
            yield 0, 1
        elif s1 == 1 and s2 == 0:
            yield 0, -1
        return
    # 1 ^ 2 or 2 ^ anything beyond top degree: nothing survives on a surface
    return


class FiberElement(_SparseForm):
    """Form on a fiber chart: monomials in the fiber coordinate only, relative
    one-forms on {dlog v}, and no two-forms (curve fibers)."""

    __slots__ = ("T",)

    def __init__(self, field: FieldDescriptor, r: int, kind: str, n: int,
                 degree: int, T: int, coeffs=None, overflow: bool = False):
        if kind not in (XF, WF):
            raise ChartMismatch(f"not a fiber chart kind: {kind}")
        if degree not in _FIBER_SLOTS:
            raise ChartMismatch(f"bad form degree {degree}")
        _SparseForm.__init__(self, field, r, kind, n, degree, coeffs, overflow)
        self.T = T

    @classmethod
    def zero(cls, field, r, kind, n, degree, T):
        return cls(field, r, kind, n, degree, T)

    @classmethod
    def monomial(cls, field, r, kind, n, degree, T, j, slot, coeff):
        el = cls(field, r, kind, n, degree, T)
        el._accumulate(j, slot, coeff)
        return el

    def _window(self):
        return self.T,

    def _blank(self, degree=None):
        return FiberElement(self.field, self.r, self.kind, self.n,
                            self.degree if degree is None else degree,
                            self.T, overflow=self.overflow)

    def _accumulate(self, j, slot, coeff):
        if slot not in _FIBER_SLOTS[self.degree]:
            raise ChartMismatch(f"slot {slot} invalid in fiber degree {self.degree}")
        if abs(j) > self.T:
            self.overflow = True
            return
        self._add_term((j, slot), coeff)

    def mul(self, other: "FiberElement", point: KElement) -> "FiberElement":
        """Graded product on the fiber at s = point (v w = point on XF charts)."""
        self._compatible(other, same_degree=False)
        deg = self.degree + other.degree
        if deg > 2:
            raise ChartMismatch("product degree exceeds the top degree")
        out = self._blank(degree=deg)
        out.overflow = self.overflow or other.overflow
        if deg == 2:
            return out  # anything of degree 2 on a curve fiber is zero
        for (j1, s1), c1 in self.coeffs.items():
            for (j2, s2), c2 in other.coeffs.items():
                c = c1 * c2
                if self.kind == XF:
                    a = max(j1, 0) + max(j2, 0)
                    b = max(-j1, 0) + max(-j2, 0)
                    m = min(a, b)
                    if m:
                        c = c * point ** m
                    j = a - b
                else:
                    j = j1 + j2
                out._accumulate(j, 0, c)
        return out

    def d(self) -> "FiberElement":
        """Relative differential; zero from degree 1 up (curve fiber)."""
        out = self._blank(degree=self.degree + 1 if self.degree < 2 else 2)
        if self.degree != 0:
            return out
        for (j, slot), c in self.coeffs.items():
            k = j if self.kind == XF else -j
            if k:
                out._accumulate(j, 0, _times(c, k))
        return out

    def restrict_nat(self, point: KElement) -> "FiberElement":
        """XF_n -> WF_n along v -> a w^{-1} where a is the fiber point; the
        relative form basis maps identically (dlog v -> dlog v)."""
        if self.kind != XF:
            raise ChartMismatch("natural restriction starts on an XF chart")
        out = FiberElement(self.field, self.r, WF, self.n, self.degree,
                           self.T, overflow=self.overflow)
        for (j, slot), c in self.coeffs.items():
            k = max(j, 0)
            out._accumulate(-j, slot, c * point ** k if k else c)
        return out

    def restrict_twist(self, target_n: int, point: KElement) -> "FiberElement":
        """XF_(n+1 mod r) -> WF_n along v -> w^{-1}, w -> a w."""
        if self.kind != XF:
            raise ChartMismatch("gluing restriction starts on an XF chart")
        if self.n != (target_n % self.r) + 1:
            raise ChartMismatch(
                f"chart XF_{self.n} does not glue onto WF_{target_n} (r={self.r})")
        out = FiberElement(self.field, self.r, WF, target_n, self.degree,
                           self.T, overflow=self.overflow)
        for (j, slot), c in self.coeffs.items():
            k = max(-j, 0)
            out._accumulate(-j, slot, c * point ** k if k else c)
        return out
