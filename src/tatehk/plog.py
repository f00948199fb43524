"""Branches of the p-adic logarithm on K^*.

On one-units the logarithm is the usual series. It extends to all units
by killing the Teichmuller part, and to K^* by choosing the value on the
uniformizer: the branch attached to q = pi^m * v sets log_q(pi) to
-log(v)/m, which is the unique extension with log_q(q) = 0. Logarithms
read their one-unit off unit_decompose, with no inverse in K. Series are
truncated at a certified cutoff: every dropped term has pi-adic
valuation at least e * prec, the working precision.
"""

from __future__ import annotations

import math

from .errors import NotAOneUnit
from .field import FieldDescriptor, KElement, unit_decompose
from .padic import PadicScalar


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


def log_one_unit(u: KElement) -> KElement:
    """-sum_{n>=1} (1-u)^n / n for u in 1 + m, to the working precision."""
    fld = u.field
    ctx = fld.ctx
    x = fld.one() - u
    v = x.ord_pi_or_none()
    if v is None:
        # 1 - u indistinguishable from zero: the series is zero at that depth
        return fld.zero()
    if v < 1:
        raise NotAOneUnit(f"1 - u has valuation {v}, expected >= 1")
    n_max = series_cutoff(v, fld.e, ctx.p, ctx.prec)
    total = fld.zero()
    power = fld.one()
    for n in range(1, n_max + 1):
        power = power * x
        total = total - power.scale(
            PadicScalar.from_int(ctx, 1) / PadicScalar.from_int(ctx, n))
    return total


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
            ctx = self.field.ctx
            lv = log_one_unit(unit_decompose(self.q)[2])
            inv_m = PadicScalar.from_int(ctx, 1) / PadicScalar.from_int(ctx, self.m)
            self._log_pi = -lv.scale(inv_m)
        return self._log_pi

    def log(self, x: KElement) -> KElement:
        """Branch logarithm of any certified-nonzero x in K^*."""
        a, _, u = unit_decompose(x)
        body = log_one_unit(u)
        if a == 0:
            return body
        return body + self.log_pi().scale(PadicScalar.from_int(self.field.ctx, a))

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
