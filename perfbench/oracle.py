"""Independent oracles for the benchmark's correctness checks.

Nothing here imports the package under test. Expected values are plain
integers or fractions, reduced to pi-adic digits by base-p arithmetic, and
report entries are read back with a parser of the benchmark's own.

Reports print an element as "c_0 + c_1*pi + ... + O(pi^N)", with an optional
"pi^v*(...)" shift for negative valuation. Over Q_p the uniformizer is p. The
ramified jobs use K = Q_p(s) with s^e = p, so p = pi^e exactly and the
pi-adic digits of an integer are its base-p digits spread e positions apart.
"""

from __future__ import annotations

import re
from fractions import Fraction

_O_TAIL = re.compile(r"O\(pi\^(-?\d+)\)$")
_SHIFT = re.compile(r"^pi\^(-?\d+)\*\((.*)\)$")
_TERM = re.compile(r"(?:(\d+)\*)?pi(?:\^(\d+))?|(\d+)")
_PURE = re.compile(r"^s\^(\d+)-(\d+)$")


class Mismatch(Exception):
    """A report entry that disagrees with its oracle."""


def read_expansion(text: str):
    """(digits, depth) of a report expansion string: digits maps pi-power to
    a nonzero digit, depth is the stated O(pi^depth)."""
    if not isinstance(text, str):
        raise Mismatch(f"expected an expansion string, got {text!r}")
    body = text.strip()
    shift = 0
    m = _SHIFT.match(body)
    if m:
        shift, body = int(m.group(1)), m.group(2).strip()
    tail = _O_TAIL.search(body)
    if tail is None:
        raise Mismatch(f"no O(pi^k) tail in {text!r}")
    depth = int(tail.group(1)) + shift
    digits = {}
    terms = body[:tail.start()].strip().rstrip("+").strip()
    for term in filter(None, (t.strip() for t in terms.split("+"))):
        tm = _TERM.fullmatch(term)
        if tm is None:
            raise Mismatch(f"cannot read term {term!r} of {text!r}")
        if tm.group(3) is not None:
            digits[shift] = int(tm.group(3))
        else:
            coeff = int(tm.group(1)) if tm.group(1) else 1
            power = int(tm.group(2)) if tm.group(2) else 1
            digits[power + shift] = coeff
    return digits, depth


def ramification(eisenstein: str | None, p: int) -> int:
    """e for K = Q_p(s), s^e = p; 1 for Q_p itself. Other fields have no
    digit oracle here."""
    if eisenstein is None:
        return 1
    m = _PURE.match(eisenstein.replace(" ", ""))
    if m is None or int(m.group(2)) != p:
        raise ValueError(f"no digit oracle for {eisenstein!r}; use s^e - {p}")
    return int(m.group(1))


def frac_mod(x: Fraction | int, p: int, digits: int) -> int:
    """The p-adic integer x reduced mod p^digits, as a nonnegative int."""
    x = Fraction(x)
    m = p ** digits
    if x.denominator % p == 0:
        raise ValueError(f"{x} is not a p-adic integer for p = {p}")
    return x.numerator * pow(x.denominator, -1, m) % m


def pi_digits(value: Fraction | int, p: int, e: int, floor: int) -> dict:
    """pi-adic digits below pi^floor of a p-adic integer in Q_p(p^(1/e))."""
    n = frac_mod(value, p, -(-floor // e))
    out = {}
    k = 0
    while n:
        n, d = divmod(n, p)
        if d and k * e < floor:
            out[k * e] = d
        k += 1
    return out


def check_entry(text: str, value, p: int, e: int, floor: int, where: str):
    """Raise Mismatch unless the entry states depth >= floor and its digits
    below floor are those of value."""
    digits, depth = read_expansion(text)
    if depth < floor:
        raise Mismatch(f"{where}: stated depth {depth} below floor {floor}")
    got = {k: d for k, d in digits.items() if k < floor}
    want = pi_digits(value, p, e, floor)
    if got != want:
        raise Mismatch(f"{where}: {text!r} is not {value} below pi^{floor}")


def check_matrix(rows, want, p: int, e: int, floor: int, where: str):
    if len(rows) != len(want) or any(len(r) != len(w) for r, w in zip(rows, want)):
        raise Mismatch(f"{where}: shape differs from oracle")
    for i, (row, wrow) in enumerate(zip(rows, want)):
        for j, (text, value) in enumerate(zip(row, wrow)):
            check_entry(text, value, p, e, floor, f"{where}[{i}][{j}]")


def log_one_unit(u: int, p: int, prec: int) -> Fraction:
    """log(u) for an integer u = 1 mod p, as the exact rational partial sum
    of -sum (1-u)^n / n over n < prec + 10; every dropped term has p-adic
    valuation above prec."""
    if (u - 1) % p:
        raise ValueError(f"{u} is not a one-unit at p = {p}")
    x = 1 - u
    total = Fraction(0)
    power = 1
    for n in range(1, prec + 10):
        power *= x
        total -= Fraction(power, n)
    return total
