"""Certified digits on seeded random jobs: a digit a report states at prec N
is the same digit at prec N + 6.

draw_job(rng) draws one job (p, prec, r, eisenstein, q): p in {2, 3, 5, 7,
11, 101}; Q_p, or a random Eisenstein polynomial of degree 1 to 4 (degree
1 is Q_p with a uniformiser other than p); r <= 4; prec 9 to 16; and a
branch point q among pi, p, p^a*(1+p*k), pi^m*(1+pi*k) and pi*(u+pi) with
u a unit. The windows are the defaults, so every size drawn is a small
one. check_job(job) holds the job to the rule of
test_pipeline.test_reports_at_prec_n_and_n_plus_6_agree, called as it is,
so the rule is written once: only the echoed precision, the floors and the
class residual depths may move.

The slice below is part of tier-1; tools/prec_fuzz.py runs the same
generator from any seed for as many cases as asked.
"""

from __future__ import annotations

import random

import test_pipeline

PRIMES = (2, 3, 5, 7, 11, 101)
SLICE = range(100)


def _unit(rng, p: int) -> int:
    """A nonzero integer prime to p, of either sign."""
    while True:
        u = rng.randint(-3 * p, 3 * p)
        if u % p:
            return u


def _term(c: int, k: int) -> str:
    sign = "-" if c < 0 else "+"
    return f" {sign} {abs(c)}" + (f"*s^{k}" if k > 1 else "*s" if k else "")


def _eisenstein(rng, p: int, e: int) -> str:
    """s^e + p*(a_(e-1) s^(e-1) + ... + a_1 s) + p*u: every lower coefficient
    divisible by p, the constant term exactly once."""
    coeffs = {k: p * rng.randint(-p, p) for k in range(1, e) if rng.random() < 0.5}
    coeffs[0] = p * _unit(rng, p)
    return f"s^{e}" + "".join(_term(c, k) for k, c in sorted(coeffs.items(), reverse=True)
                              if c)


def _branch(rng, p: int) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        return "pi"
    if kind == 1:
        return "p"
    if kind == 2:
        return f"p^{rng.randint(1, 3)}*(1+p*{rng.randint(0, 4 * p)})"
    if kind == 3:
        return f"pi^{rng.randint(1, 4)}*(1+pi*{rng.randint(0, 4 * p)})"
    return f"pi*({_unit(rng, p)}+pi)"


def draw_job(rng: random.Random) -> tuple:
    p = rng.choice(PRIMES)
    e = rng.randint(0, 4)
    return (p, rng.randint(9, 16), rng.randint(1, 4),
            _eisenstein(rng, p, e) if e else None, _branch(rng, p))


def check_job(job: tuple):
    """None if the reports at prec N and N + 6 agree outside the echo paths,
    else what broke: the paths moved (as the assertion shows them) or the
    exception a job raised."""
    try:
        test_pipeline.test_reports_at_prec_n_and_n_plus_6_agree(job)
    except AssertionError as exc:
        return f"moved outside the echo paths {exc}".rstrip()
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    return None


def run_cases(seeds) -> list:
    """(seed, job, None or what broke) for each case seed; case k is drawn
    by random.Random(k)."""
    out = []
    for seed in seeds:
        job = draw_job(random.Random(seed))
        out.append((seed, job, check_job(job)))
    return out


def test_seeded_jobs_state_no_digit_that_prec_plus_6_moves():
    cases = run_cases(SLICE)
    broken = [f"seed {seed}: {job}: {verdict}"
              for seed, job, verdict in cases if verdict is not None]
    assert not broken, "\n".join(broken)
    # not vacuous: the slice reaches every prime, degree (0 for Q_p itself)
    # and kind of branch
    jobs = [job for _, job, _ in cases]
    assert {job[0] for job in jobs} == set(PRIMES)
    assert {int(job[3][2]) if job[3] else 0 for job in jobs} == {0, 1, 2, 3, 4}
    branches = {job[4] for job in jobs}
    assert {"pi", "p"} <= branches
    assert all(any(q.startswith(kind) for q in branches) for kind in ("p^", "pi^", "pi*("))
