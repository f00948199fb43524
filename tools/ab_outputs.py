"""Compare what two source trees of tatehk compute, output for output.

    python3 tools/ab_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the package directory `tatehk/`,
as the `src/` of a checkout does. Both trees are loaded into one
interpreter under two package names, and each output below is computed by
both and compared as canonical JSON:

- render_report on 96 jobs: p in {2, 3, 5, 7}, over Q_p and over one
  ramified field each, r = 1, 2, 3, and q in {pi, p, p*(1+p), p^2*(1+pi)};
- every verify_suite at p 3, prec 14 (the CLI defaults), and at p 5,
  prec 12, r 2 over s^2 - 5;
- the three suites of the benchmark's identities workload (kim_hain_algebra
  at p 3, prec 14, r 2; branch_calculus at p 3, prec 20 and at p 5, prec 20
  over s^2 - 5), 40 trials each, at seeds 1..20.

It prints the first difference and exits 1, or prints the number of outputs
compared and exits 0. It is a check for a change meant to keep every output,
not part of the test suite.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

RAMIFIED = {2: "s^2 + 2*s + 2", 3: "s^3 + 9*s^2 - 3", 5: "s^2 - 5", 7: "s^2 - 7"}
BRANCHES = ("pi", "p", "p*(1+p)", "p^2*(1+pi)")
JOB_PREC = 20
VERIFY_ARGS = ({"p": 3, "prec": 14},
               {"p": 5, "prec": 12, "r": 2, "eisenstein": "s^2 - 5"})
IDENTITY_SUITES = (("kim_hain_algebra", {"p": 3, "prec": 14, "r": 2}),
                   ("branch_calculus", {"p": 3, "prec": 20}),
                   ("branch_calculus", {"p": 5, "prec": 20, "eisenstein": "s^2 - 5"}))
IDENTITY_SEEDS = range(1, 21)
IDENTITY_TRIALS = 40


def load(src: str, name: str):
    """The package in src/tatehk, imported as the top-level package `name`."""
    pkg = Path(src).resolve() / "tatehk"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no package at {pkg}")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def cases():
    """(label, fn) pairs; fn maps a loaded package to a JSON-able output."""
    for p in (2, 3, 5, 7):
        for field in (None, RAMIFIED[p]):
            for r in (1, 2, 3):
                for q in BRANCHES:
                    yield (f"report p={p} K={field or 'Q_p'} r={r} q={q}",
                           lambda hk, a=(p, JOB_PREC, r, field, q):
                           hk.render_report(hk.compute_tate(hk.JobSpec(*a))))
    for args in VERIFY_ARGS:
        for name in ("base_change", "branch_calculus", "choice_of_pi",
                     "kim_hain_algebra", "truncation_stability"):
            yield (f"verify_suite {name} {args}",
                   lambda hk, n=name, a=args: hk.verify_suite(n, **a))
    for name, args in IDENTITY_SUITES:
        for seed in IDENTITY_SEEDS:
            yield (f"identities {name} {args} seed={seed}",
                   lambda hk, n=name, a=args, s=seed:
                   hk.verify_suite(n, **a, seed=s, trials=IDENTITY_TRIALS))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/ab_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    sides = load(args[0], "tatehk_parent"), load(args[1], "tatehk_change")
    count = 0
    for label, fn in cases():
        parent, change = (json.dumps(fn(hk), sort_keys=True) for hk in sides)
        count += 1
        if parent != change:
            print(f"DIFFERENT: {label}\n  parent: {parent}\n  change: {change}")
            return 1
    print(f"same: {count} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
