"""Branches of the p-adic logarithm on K^*.

On one-units the logarithm is the usual series. It extends to all units
by killing the Teichmuller part, and to K^* by choosing the value on the
uniformizer: the branch attached to q = pi^m * v sets log_q(pi) to
-log(v)/m, which is the unique extension with log_q(q) = 0. Logarithms
read their one-unit off unit_decompose, with no inverse in K.

log_one_unit reduces the argument first (Satoh's trick): log u =
p^-k * log(u^(p^k)), and the series -sum_{n<=n_max} y^n / n of
y = 1 - u^(p^k) is summed on plain integers. If x = 1 - u has pi-adic
valuation >= t, then 1 - u^p = -sum_{0<j<p} C(p,j)(-x)^j - (-x)^p has
valuation >= min(t + e, p*t), since p divides C(p,j) for 0 < j < p; so
t_k, the bound after k p-th powers, follows t <- min(t + e, p*t) from
t_0 = ord_pi(x). n_max = series_cutoff(t_k, e, p, prec + k) certifies
the tail: every dropped term has pi-adic valuation at least e * (prec + k),
so at least e * prec >= D after the division by p^k. The coefficients of 1 - u are
lifted once mod p^M, M = ceil(D/e) + G + k, and every product is
field.int_product, the integer kernel of every product in K, with its rows
lifted mod p^M. G = floor(log_p n_max) guard digits pay for the divisions:
with n = p^j * n', Horner's rule acc <- (acc + w_n) * y, n = n_max..1,
accumulates S = sum w_n y^n, w_n = p^(G-j) * n'^-1, which is
p^G * sum y^n / n mod p^M; so coefficient i of the log is -p^-(G+k) * S_i,
read at absolute precision ceil((D - i)/e). The k more digits of M are
the ones the division by p^k spends. k minimises k * (products per p-th
power, by square-and-multiply) + n_max; it is 0 where reducing does not
pay, as at p = 211. All of this but the lifts of u is fixed by v =
ord_pi(1 - u) and D: _log_plan builds k, G, p^M, the fold rows and the
w_n once per field and key (v, D), kept on the FieldDescriptor. A field
has at most (e * prec)^2 keys of n_max weights each. The plan is what each
call built before, so D and every value are unchanged.

The depth D: if x = 1 - u is known to O(pi^c), an error y of valuation
>= c moves log(1 - x) by log(1 - y/(1 - x)), whose terms have valuation
>= j*c - e*v_p(j). The least of these is c when (p-1)*c >= e, the
premise that holds unless e is large against p. Where it fails, D is that
smaller least value. c, and so D, is at most e * prec. An x that is zero
at O(pi^c) has log zero at O(pi^D), not at the cap. D depends on the
input only, not on k: both the series of x and the reduced one give
log(1 - x~) mod pi^D for an integer lift x~ of x, and an element mod
pi^D has exactly one coefficient form.
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
    # below goal / t, m*t - e*log_p(m) < m*t < goal
    n = max(monotone_from, -(-goal // t))
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


def _log_plan(fld: FieldDescriptor, v: int, depth: int) -> tuple:
    """The plan (k, G, p^M, fold rows, w_n for n = n_max..1) for the key (v, D)."""
    plan = fld._log_plans.get((v, depth))
    if plan is None:
        p, e, prec = fld.p, fld.e, fld.cap
        per_power = p.bit_length() + bin(p).count("1") - 2  # square-and-multiply
        cost = n_max = series_cutoff(v, e, p, prec)
        guard, k, r, t = 0, 0, 1, min(v + e, p * v)
        while r * per_power < cost:
            n = series_cutoff(t, e, p, prec + r)
            if r * per_power + n < cost:
                cost, k, n_max = r * per_power + n, r, n
            r, t = r + 1, min(t + e, p * t)
        while p ** (guard + 1) <= n_max:
            guard += 1
        mod = p ** max(1, -(-depth // e) + guard + k)
        weights = [p ** (guard - vp(n, p)) * pow(n // p ** vp(n, p), -1, mod)
                   for n in range(n_max, 0, -1)]
        plan = fld._log_plans[v, depth] = (k, guard, mod, fld.fold_rows(mod), weights)
    return plan


def log_one_unit(u: KElement) -> KElement:
    """log u = p^-k * log(u^(p^k)) for u in 1 + m, to the depth D of the module docstring."""
    fld = u.field
    e, p = fld.e, fld.p
    x = fld.one() - u
    v, c = x.ord_pi_or_none(), x.cert_prec_pi()
    if (c if v is None else v) < 1:
        raise NotAOneUnit(f"1 - u must have valuation >= 1; it has {v} at O(pi^{c})")
    depth = log_depth(c, e, p)  # c, hence depth, is at most e * prec
    total, guard, k = [0] * e, 0, 0
    if v is not None:
        k, guard, mod, rows, weights = _log_plan(fld, v, depth)
        z = [(int(i == 0) - a) % mod for i, a in enumerate(x.lifts(mod))]  # u
        for _ in range(k):  # z <- z^p, by square-and-multiply
            base = z
            for bit in bin(p)[3:]:
                z = int_product(z, z, rows, mod)
                if bit == "1":
                    z = int_product(z, base, rows, mod)
        y = [(int(i == 0) - a) % mod for i, a in enumerate(z)]  # 1 - u^(p^k)
        for w in weights:  # Horner: total <- (total + w_n) * y
            total[0] += w
            total = int_product(total, y, rows, mod)
    return fld.from_ints([-a for a in total], -guard - k,
                         [-(-(depth - i) // e) for i in range(e)])


def log_unit(u: KElement) -> KElement:
    """Logarithm on V^*: zero on Teichmuller representatives, series on one-units."""
    if u.ord_pi_or_none() != 0:
        raise NotAOneUnit("log_unit needs a unit of the integer ring")
    return log_one_unit(unit_decompose(u)[2])


class LogBranch:
    """The branch of log on K^* with log(q) = 0, for q in the maximal ideal."""

    __slots__ = ("field", "q", "_label", "m", "_log_pi")

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
        self._label = label
        self.m = m
        self._log_pi = None

    @property
    def label(self) -> str:
        """The given text, or else q's expansion, rendered on first read."""
        if self._label is None:
            self._label = self.q.expansion_str()
        return self._label

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
    """Build a branch from a CLI-style element expression such as "pi", "p"
    or "p*(1+p)", labelled by its text."""
    from .field import parse_element
    text = spec.strip()
    return LogBranch(field, parse_element(text, field), text)
