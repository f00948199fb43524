"""Branches of the p-adic logarithm on K^*.

On one-units the logarithm is the usual series. It extends to all units
by killing the Teichmuller part, and to K^* by choosing the value on the
uniformizer: the branch attached to q = pi^m * v sets log_q(pi) to
-log(v)/m, which is the unique extension with log_q(q) = 0. Logarithms
read their one-unit off unit_decompose, with no inverse in K.

The series -sum_{n<=n_max} x^n / n, x = 1 - u, is summed on plain
integers. n_max = series_cutoff certifies the tail: every dropped term has
pi-adic valuation at least e * prec, the working precision. The
coefficients of x are lifted once mod p^M, M = ceil(D/e) + G, and x^n is
field.int_product, the integer kernel of every product in K, with its
rows lifted mod p^M. G = floor(log_p n_max) guard digits pay for the
divisions: with n = p^k * n', the sum S accumulates
p^(G-k) * n'^-1 * x^n mod p^M, which is p^G * sum x^n / n mod p^M, so
coefficient i of the log is -p^-G * S_i, read at absolute precision
ceil((D - i)/e).

The depth D: if x is known to O(pi^c), an error y of valuation >= c moves
log(1 - x) by log(1 - y/(1 - x)), whose terms have valuation
>= j*c - e*v_p(j). The least of these is c when (p-1)*c >= e, the
premise that holds unless e is large against p. Where it fails, D is that
smaller least value. c, and so D, is at most e * prec. An x that is zero
at O(pi^c) has log zero at O(pi^D), not at the cap.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotAOneUnit
from .field import FieldDescriptor, KElement, int_product, unit_decompose
from .padic import vp


def series_cutoff(t: int, e: int, p: int, target_prec: int) -> int:
    """Least n so that every term index m >= n has m*t - e*log_p(m) >= e*target_prec.

    t is the pi-adic valuation of (1 - u). Terms of the log series have
    pi-adic valuation >= m*t - e*v_p(m) >= m*t - e*log_p(m).
    """
    if t < 1:
        raise ValueError("cutoff needs t >= 1")
    goal = e * target_prec
    lp = math.log(p)
    # m*t - e*log_p(m) is increasing for m > e / (t * ln p)
    monotone_from = max(1, math.ceil(e / (t * lp)))
    n = monotone_from
    while n * t - e * math.log(n) / lp < goal:
        n += 1
    return n


def log_depth(c: int, e: int, p: int) -> int:
    """Least j*c - e*v_p(j) over j >= 1: how far an error of pi-adic
    valuation c >= 1 in x can move log(1 - x).

    Only j = p^k matter, and k -> p^k*c - e*k falls until its step
    p^k*(p-1)*c - e turns nonnegative; that is k = 0, giving c, when
    (p-1)*c >= e.
    """
    k = 0
    while p ** k * (p - 1) * c < e:
        k += 1
    return p ** k * c - e * k


def log_one_unit(u: KElement) -> KElement:
    """-sum_{n>=1} (1-u)^n / n for u in 1 + m, to the depth D of the module docstring."""
    fld = u.field
    ctx, e, p = fld.ctx, fld.e, fld.ctx.p
    x = fld.one() - u
    v, c = x.ord_pi_or_none(), x.cert_prec_pi()
    if (c if v is None else v) < 1:
        raise NotAOneUnit(f"1 - u must have valuation >= 1; it has {v} at O(pi^{c})")
    depth = log_depth(c, e, p)  # c, hence depth, is at most e * prec
    total, guard = [0] * e, 0
    if v is not None:
        n_max = series_cutoff(v, e, p, ctx.prec)
        while p ** (guard + 1) <= n_max:
            guard += 1
        mod = p ** max(1, -(-depth // e) + guard)
        rows = fld.fold_rows(mod)
        xs = x.lifts(mod)
        power = [1] + [0] * (e - 1)
        for n in range(1, n_max + 1):
            power = int_product(power, xs, rows, mod)
            k = vp(n, p)
            w = p ** (guard - k) * pow(n // p ** k, -1, mod)
            total = [t + w * a for t, a in zip(total, power)]
    return fld.from_ints([-t for t in total], -guard,
                         [-(-(depth - i) // e) for i in range(e)])


def log_unit(u: KElement) -> KElement:
    """Logarithm on V^*: zero on Teichmuller representatives, series on one-units."""
    if u.ord_pi_or_none() != 0:
        raise NotAOneUnit("log_unit needs a unit of the integer ring")
    return log_one_unit(unit_decompose(u)[2])


class LogBranch:
    """The branch of log on K^* with log(q) = 0, for q in the maximal ideal."""

    __slots__ = ("field", "q", "label", "m", "_log_pi")

    def __init__(self, field: FieldDescriptor, q: KElement, label: str | None = None):
        if q.field != field:
            raise ValueError("q must be an element of the branch field")
        m = q.ord_pi_or_none()
        if m is None:
            raise ValueError("branch point q is zero at the working precision")
        if m < 1:
            raise ValueError(f"branch point must lie in the maximal ideal, ord_pi(q) = {m}")
        self.field = field
        self.q = q
        self.label = label if label is not None else q.expansion_str()
        self.m = m
        self._log_pi = None

    def log_pi(self) -> KElement:
        """log_q(pi) = -log(v)/m where q = pi^m * v."""
        if self._log_pi is None:
            lv = log_one_unit(unit_decompose(self.q)[2])
            self._log_pi = -lv.scale(Fraction(1, self.m))
        return self._log_pi

    def log(self, x: KElement) -> KElement:
        """Branch logarithm of any certified-nonzero x in K^*."""
        a, _, u = unit_decompose(x)
        body = log_one_unit(u)
        if a == 0:
            return body
        return body + self.log_pi().scale(a)

    def __repr__(self):
        return f"LogBranch(q={self.label})"


def branch_from_spec(field: FieldDescriptor, spec: str) -> LogBranch:
    """Build a branch from a CLI-style spec: "pi", "p", or an element expression."""
    from .field import parse_element
    text = spec.strip()
    if text == "pi":
        return LogBranch(field, field.pi(), "pi")
    if text == "p":
        return LogBranch(field, field.from_int(field.ctx.p), "p")
    return LogBranch(field, parse_element(text, field), text)
