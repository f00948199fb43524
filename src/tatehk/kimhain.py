"""Divided-power u-extension of the chart algebras.

A UForm is a finite sum sum_k omega_k u^[k] where the omega_k are chart
forms of one fixed degree and u^[k] is the k-th divided power of a formal
degree-zero variable u with d(u) = dlog s. The u-order is capped at U;
products that would exceed the cap drop the term and set the overflow
flag, mirroring the monomial windows.

The operators of interest:

  d(omega u^[k])   = (d omega) u^[k] - (-1)^deg (omega ^ dlog s) u^[k-1]
  N(omega u^[k])   = omega u^[k-1]          (zero at k = 0)
  phi(omega u^[k]) = p^k F(omega) u^[k]     (F the chart Frobenius)

satisfying d^2 = 0, N d = d N, and N phi = p phi N. Evaluation at the
fiber substitutes u := lam and s := a, under which dlog s dies.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .charts import ChartElement, FiberElement, W, Z, _times
from .errors import ChartMismatch
from .field import FieldDescriptor, KElement

# (target slot, factor) pairs of the u-tail -(-1)^deg (omega ^ dlog s) of
# d(omega u^[k]) at u-order k - 1, per form degree and slot of omega, with
# dlog s = dlog v + dlog w; read by UForm.d and the stencil cech.hk_D_rows
U_TAIL = {0: {0: ((0, -1), (1, -1))},
          1: {0: ((0, 1),), 1: ((0, -1),)},
          2: {0: ()}}


class UForm:
    """Chart form with divided-power u-coefficients, truncated at u-order U."""

    __slots__ = ("field", "r", "kind", "n", "degree", "S", "T", "U",
                 "levels", "ucap_overflow")

    def __init__(self, field, r, kind, n, degree, S, T, U,
                 levels=None, ucap_overflow=False):
        self.field = field
        self.r = r
        self.kind = kind
        self.n = n
        self.degree = degree
        self.S = S
        self.T = T
        self.U = U
        self.levels = {} if levels is None else levels
        self.ucap_overflow = ucap_overflow

    @classmethod
    def zero(cls, field, r, kind, n, degree, S, T, U):
        return cls(field, r, kind, n, degree, S, T, U)

    @classmethod
    def from_chart(cls, el: ChartElement, U: int, u_order: int = 0) -> "UForm":
        out = cls(el.field, el.r, el.kind, el.n, el.degree, el.S, el.T, U)
        out._accumulate(u_order, el)
        return out

    def _blank(self, degree=None, kind=None, n=None):
        return UForm(self.field, self.r,
                     self.kind if kind is None else kind,
                     self.n if n is None else n,
                     self.degree if degree is None else degree,
                     self.S, self.T, self.U,
                     ucap_overflow=self.ucap_overflow)

    def level(self, k: int) -> ChartElement:
        el = self.levels.get(k)
        if el is not None:
            return el
        return ChartElement.zero(self.field, self.r, self.kind, self.n,
                                 self.degree, self.S, self.T)

    def _accumulate(self, k: int, el: ChartElement):
        if el.kind != self.kind or el.n != self.n or el.degree != self.degree:
            raise ChartMismatch("u-level lives on the wrong chart")
        if k > self.U:
            if el.coeffs or el.overflow:
                self.ucap_overflow = True
            return
        cur = self.levels.get(k)
        nxt = el if cur is None else cur + el
        if not nxt.coeffs and not nxt.overflow:
            self.levels.pop(k, None)
        else:
            self.levels[k] = nxt

    def items(self):
        return sorted(self.levels.items())

    @property
    def overflow(self) -> bool:
        return self.ucap_overflow or any(el.overflow for el in self.levels.values())

    def _compatible(self, other: "UForm", same_degree=True):
        if (self.field != other.field or self.r != other.r or self.kind != other.kind
                or self.n != other.n or (self.S, self.T, self.U) != (other.S, other.T, other.U)):
            raise ChartMismatch("u-forms live on different charts or windows")
        if same_degree and self.degree != other.degree:
            raise ChartMismatch("degree mismatch")

    def __add__(self, other: "UForm"):
        self._compatible(other)
        out = self._blank()
        out.ucap_overflow = self.ucap_overflow or other.ucap_overflow
        out.levels = dict(self.levels)
        for k, el in other.levels.items():
            out._accumulate(k, el)
        return out

    def _map(self, fn, shift=0, **blank):
        """A blank form (blank as in _blank) holding fn(k, level) at u-order
        k - shift for each level k >= shift; the levels below shift are
        dropped with their overflow flags."""
        out = self._blank(**blank)
        for k, el in self.levels.items():
            if k >= shift:
                out._accumulate(k - shift, fn(k, el))
        return out

    def __neg__(self):
        return self._map(lambda k, el: -el)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "UForm":
        return self._map(lambda k, el: el.scale(c))

    def is_zero_at(self, floor_pi: int) -> bool:
        return all(el.is_zero_at(floor_pi) for el in self.levels.values())

    def residual_prec(self) -> int:
        cap = self.field.e * self.field.ctx.prec
        return min((el.residual_prec() for el in self.levels.values()), default=cap)

    # -- operators -----------------------------------------------------------

    def mul(self, other: "UForm") -> "UForm":
        self._compatible(other, same_degree=False)
        out = self._blank(degree=self.degree + other.degree)
        out.ucap_overflow = self.ucap_overflow or other.ucap_overflow
        for i, a in self.levels.items():
            for j, b in other.levels.items():
                term = a.mul(b)
                if i and j:  # else C(i + j, i) is 1
                    term = term.scale(math.comb(i + j, i))
                out._accumulate(i + j, term)
        return out

    def d(self) -> "UForm":
        out = self._blank(degree=self.degree + 1)
        for k, el in self.levels.items():
            out._accumulate(k, el.d())
            if k >= 1:
                tail = U_TAIL[self.degree]
                t = el._blank(degree=self.degree + 1)
                for (i, j, slot), c in el.coeffs.items():
                    for tslot, f in tail[slot]:
                        t._accumulate(i, j, tslot, _times(c, f))
                out._accumulate(k - 1, t)
        return out

    def N(self) -> "UForm":
        return self._map(lambda k, el: el, shift=1)

    def frobenius(self) -> "UForm":
        p = self.field.ctx.p
        return self._map(lambda k, el: el.frobenius().scale(p ** k) if k
                         else el.frobenius())

    def restrict_nat(self) -> "UForm":
        return self._map(lambda k, el: el.restrict_nat(), kind=W)

    def restrict_twist(self, target_n: int) -> "UForm":
        return self._map(lambda k, el: el.restrict_twist(target_n), kind=W,
                         n=target_n)

    def evaluate(self, lam: KElement, a: KElement,
                 target: FieldDescriptor) -> FiberElement:
        """Substitute u := lam and s := a; returns a fiber form."""
        out = None
        for k, el in self.items():
            sp = el.specialize(a, target)
            if k:
                coeff = (lam ** k) * target.from_rational(Fraction(1, math.factorial(k)))
                sp = sp.scale(coeff)
            out = sp if out is None else out + sp
        if out is None:
            kindf = "XF" if self.kind == Z else "WF"
            out = FiberElement.zero(target, self.r, kindf, self.n, self.degree, self.T)
        if self.ucap_overflow:
            out.overflow = True
        return out

    def __repr__(self):
        terms = ", ".join(f"u^[{k}] * {el!r}" for k, el in self.items())
        return f"UForm([{terms}]{', ucap-overflow' if self.ucap_overflow else ''})"

