"""Golden reports: the render_report JSON of a fixed set of jobs, checked in.

The jobs are the 9 curves of the benchmark grid, the acceptance jobs over
Q_p and over ramified fields, and four explicit branch points
p^a * (1 + p*k) on (3, 20, 2). A change that moves any byte of any of these
reports fails here and names the first path where the two reports differ.
A change that means to move a report rewrites the file with

    PYTHONPATH=src python tests/test_golden.py --write

and says in its description which entries moved and why.
"""

import json
import sys
from pathlib import Path

from tatehk.pipeline import JobSpec, compute_tate, render_report

GOLDEN = Path(__file__).with_name("golden_reports.json")

# (p, prec, r, eisenstein, q)
JOBS = (
    # the benchmark grid, branch point pi
    (3, 20, 1, None, "pi"), (3, 20, 2, None, "pi"), (3, 20, 3, None, "pi"),
    (5, 20, 1, None, "pi"), (5, 20, 2, None, "pi"), (5, 20, 3, None, "pi"),
    (5, 20, 2, "s^2 - 5", "pi"), (7, 20, 1, None, "pi"), (5, 30, 2, None, "pi"),
    # acceptance jobs
    (3, 20, 2, None, "p^2*(1+p*1234)"), (3, 20, 2, None, "p*(1+p*77)"),
    (5, 20, 2, None, "p^2*(1+p)"), (3, 12, 1, None, "pi"),
    (3, 14, 3, "s^3 - 3", "pi"), (3, 14, 3, "s^3 - 3", "p*(1+p)"),
    (5, 20, 3, "s^3 + 5*s + 10", "p^2*(1+p)"), (3, 14, 4, "s^4 + 3*s^3 + 3", "p"),
    # explicit branch points on the branch_sweep curve
    (3, 20, 2, None, "p*(1+p*5)"), (3, 20, 2, None, "p^2*(1+p*17)"),
    (3, 20, 2, None, "p*(1+p*300)"), (3, 20, 2, None, "p^2*(1+p*2)"),
    # ramified fields away from q = pi
    (5, 20, 4, "s^4 + 5*s^3 + 5", "p^2*(1+p)"), (5, 20, 4, "s^4 + 5*s^3 + 5", "pi"),
    (5, 20, 2, "s^2 - 5", "p"), (5, 20, 2, "s^2 - 5", "p^2*(1+p)"),
    (5, 20, 2, "s^2 - 5", "pi^3*(1+pi)"),
    (3, 14, 3, "s^3 + 9*s^2 - 3", "pi"), (3, 14, 3, "s^3 + 9*s^2 - 3", "p*(2+pi)"),
    (5, 20, 2, "s^2 + 5/2*s + 5", "p"),
)


def _label(job) -> str:
    p, prec, r, f, q = job
    return f"p={p} prec={prec} r={r} K={f or 'Q_p'} q={q}"


def _report(job) -> dict:
    p, prec, r, f, q = job
    return render_report(compute_tate(JobSpec(p, prec, r, f, q)))


def _text(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def first_difference(a, b, path=""):
    """Path of the first place, in sorted key order, where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                return f"{path}/{key}"
            sub = first_difference(a[key], b[key], f"{path}/{key}")
            if sub is not None:
                return sub
        return None
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            sub = first_difference(x, y, f"{path}/{k}")
            if sub is not None:
                return sub
        return None
    return None if _text(a) == _text(b) else (path or "/")


def test_reports_match_the_golden_files_byte_for_byte():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_label(job) for job in JOBS)
    moved = []
    for job in JOBS:
        want, got = golden[_label(job)], _report(job)
        if _text(got) != _text(want):
            path = first_difference(want, got)
            moved.append(f"{_label(job)}: first difference at {path}")
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text(_text({_label(job): _report(job) for job in JOBS}) + "\n")
    print(f"wrote {len(JOBS)} reports to {GOLDEN}")
