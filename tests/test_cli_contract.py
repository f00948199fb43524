"""The CLI contract on seeded random input.

Every run of `hk` ends in one of three ways: exit 0; exit 1 with one
`certification failure` line or a failed suite or diff result; or exit 2
with exactly one line on stderr (argparse's usage text excepted). It never
raises out of main and never runs past its time budget.

draw_argv(rng, files) draws one case: `tate`, `log`, `verify` or
`report-diff`, with numbers at and beside every bound (prec 7 and 8; p = 1,
2, 4 and primes; T at the window bound p^(prec - SLACK) and one below it; U 0
and 1; Eisenstein degree 64 and 65; trials 0), polynomials that are not
monic or not Eisenstein or have rational, zero or huge coefficients, element
expressions that nest deeply, use unknown names or divide by zero, and
report files that are missing, truncated, not JSON or of another format.
Jobs that would run keep r <= 3 and small windows; every larger size drawn
is one refused before work. check_case(argv) runs one case in-process
through cli.main, both streams captured, under a signal.alarm budget.

The slice below is part of tier-1; tools/cli_fuzz.py runs the same
generator from any seed for as many cases as asked.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
from pathlib import Path

from tatehk import JobSpec, compute_tate, render_report
from tatehk.cech import SLACK
from tatehk.cli import main
from tatehk.pipeline import suite_names

BUDGET_S = 5
SLICE = range(200)

_SUITES = suite_names()


class Overrun(BaseException):
    """A case ran past its budget; a BaseException, so that no handler in
    the package can swallow it."""


def _overrun(signum, frame):
    raise Overrun


def report_files(directory: Path) -> dict:
    """Report files for `report-diff`, by kind, written into directory."""
    good = json.dumps(render_report(compute_tate(JobSpec(3, 8, 1))), indent=2)
    finer = render_report(compute_tate(JobSpec(3, 10, 1)))
    other = json.loads(good)
    other["meta"]["report_format"] = 2
    texts = {
        "good": good,
        "finer": json.dumps(finer),
        "other_format": json.dumps(other),
        "truncated": good[:len(good) // 2],
        "not_json": "not a report\n",
        "empty": "",
        "list": "[1, 2, 3]",
        "deep": "[" * 5000 + "]" * 5000,
    }
    files = {}
    for kind, text in texts.items():
        files[kind] = directory / f"{kind}.json"
        files[kind].write_text(text)
    files["binary"] = directory / "binary.json"
    files["binary"].write_bytes(b"\xff\xfe\x00{")
    files["missing"] = directory / "missing.json"
    files["directory"] = directory
    files["out"] = directory / "out.json"
    files["out_no_dir"] = directory / "no_such_dir" / "out.json"
    return files


def _pick(rng, valid: list, refused: list, share: float = 0.85):
    """A valid value with probability share, else one refused before work."""
    return rng.choice(valid if rng.random() < share else refused)


def _prime(rng, small: bool = True) -> int:
    """A small prime (for `log` also a larger one), or 1, 4, 0 or -3."""
    return _pick(rng, [2, 2, 3, 3, 5, 7] + ([] if small else [11, 101, 1009]),
                 [1, 4, 0, -3])


def _eisenstein(rng, p: int, max_degree: int) -> str:
    valid = [f"s^2 - {p}", f"s^2 + {p}*s + {p}", f"s^3 - {p}",
             f"s^3 + {p}*s^2 - {p}", f"s^2 - {p}/2",
             f"s^2 - {p * (10 ** 40 + 1)}"]
    if max_degree >= 64:
        valid.append(f"s^64 - {p}")
    refused = [f"2*s^2 - {p}", f"s^2 - {p * p}", f"s^2 - {p + 1}",
               f"s^2 + s - {p}", f"s^2 - {p}/0", "s^2 - 0", f"s^65 + {p}",
               "s^99999 + 5", "s^", "", "t^2 - 5", "s**2 - 5", "s^2 - 5)", "7"]
    return _pick(rng, valid, refused, 0.7)


def _element(rng, p: int, branch_point: bool) -> str:
    if branch_point:
        valid = ["pi", "p", "p*(1+p)", "p^2*(1+p)", "p*(2+pi)", "pi^3*(1+pi)",
                 str(p), "p^100000"]
        refused = ["1+p", "0", "1/0", "p/0", "p-p", "pi^-1", "p^0"]
    else:
        valid = ["1+p", "1+pi", "p^3*(1+pi)", f"{p}^41*(1+p)", "1/p",
                 "pi^-3", "2", "2^100000", "(1+p)^1000000000"]
        refused = ["0", "pi/0", "p-p"]
    refused += ["(" * 1200 + "p" + ")" * 1200, "-" * 3000 + "p", "x+1", "",
                "1+", "(1+p", "p^", "p^p^p", "1e5", "pi/(p-p)"]
    return _pick(rng, valid, refused, 0.7)


def _precision(rng) -> int:
    return _pick(rng, [8, 8, 9, 10, 12, 14], [7, 0, -1])


def _window_bound(p: int, prec: int) -> int:
    return p ** max(0, prec - SLACK)


def _draw_tate(rng, files) -> list:
    p, prec = _prime(rng), _precision(rng)
    argv = ["tate", "--p", str(p), "--r", str(_pick(rng, [1, 1, 2, 3], [0, -1])),
            "--prec", str(prec)]
    if rng.random() < 0.3:
        argv += ["--eisenstein", _eisenstein(rng, p, 3)]
    if rng.random() < 0.4:
        argv += ["--q", _element(rng, p, branch_point=True)]
    if rng.random() < 0.4:
        # T = bound - 1 runs, so it is drawn only where the bound is small
        bound = _window_bound(p, prec)
        below = [bound - 1] if p <= bound - 1 < 32 else []
        argv += ["--T", str(_pick(rng, [p, 2 * p + 2] + below,
                                  [p - 1, -1, bound, bound + 1], 0.6))]
    if rng.random() < 0.3:
        argv += ["--S", str(_pick(rng, [p, 2 * p + 2, p + 6], [p - 1, -1]))]
    if rng.random() < 0.3:
        argv += ["--U", str(_pick(rng, [1, 2, 4], [0, -1]))]
    for _ in range(rng.choice([0, 0, 1, 2])):
        argv += ["--suite", rng.choice(_SUITES)]
    if rng.random() < 0.2:
        argv += ["--out", str(files[rng.choice(["out", "out", "directory", "out_no_dir"])])]
    return argv


def _draw_log(rng, files) -> list:
    p = _prime(rng, small=False)
    argv = ["log", "--p", str(p)]
    if rng.random() < 0.7:
        argv += ["--prec", str(_pick(rng, [1, 7, 8, 12, 20, 40], [0, -1]))]
    if rng.random() < 0.4:
        argv += ["--field", _eisenstein(rng, p, 64)]
    if rng.random() < 0.5:
        argv += ["--q", _element(rng, p, branch_point=True)]
    if rng.random() < 0.7:
        argv += ["--eval", _element(rng, p, branch_point=False)]
    return argv


def _draw_verify(rng, files) -> list:
    p = _prime(rng)
    argv = ["verify", "--p", str(p), "--prec", str(_precision(rng)),
            "--r", str(_pick(rng, [1, 2, 3], [0]))]
    if rng.random() < 0.7:
        argv += ["--suite", rng.choice(["all"] + _SUITES)]
    if rng.random() < 0.3:
        argv += ["--eisenstein", _eisenstein(rng, p, 3)]
    if rng.random() < 0.5:
        argv += ["--trials", str(_pick(rng, [1, 2, 3], [0, -3]))]
    if rng.random() < 0.3:
        argv += ["--seed", str(rng.choice([0, -5, 7, 10 ** 20]))]
    return argv


def _draw_report_diff(rng, files) -> list:
    kinds = ["good", "good", "finer", "other_format", "truncated", "not_json",
             "empty", "list", "deep", "binary", "missing", "directory"]
    return ["report-diff", str(files[rng.choice(kinds)]),
            str(files[rng.choice(kinds)])]


def _draw_usage_error(rng, files) -> list:
    return rng.choice([["tate", "--r", "1"], ["tate", "--p", "x", "--r", "1"],
                       ["log", "--p", "5", "--bogus"], ["verify", "--suite", "nope"],
                       ["report-diff", "a.json"], ["frobnicate"], []])


_DRAWS = [_draw_tate] * 4 + [_draw_log] * 3 + [_draw_verify] * 3 \
    + [_draw_report_diff] * 2 + [_draw_usage_error]


def draw_argv(rng: random.Random, files: dict) -> list:
    """One case: the argv of a `tate`, `log`, `verify` or `report-diff` run,
    or (rarely) one that argparse refuses."""
    return rng.choice(_DRAWS)(rng, files)


def _failed_result(out: str) -> bool:
    """A failed suite in a report or a verify result, or a non-empty diff."""
    if out.startswith("wrote "):
        out = Path(out[len("wrote "):].strip()).read_text()
    try:
        data = json.loads(out)
    except ValueError:
        return False
    if isinstance(data, list):
        return bool(data)
    results = data.get("suites", data)
    return any(isinstance(res, dict) and res.get("ok") is False
               for res in results.values())


def check_case(argv: list, budget: int = BUDGET_S) -> tuple:
    """(exit code, None) if `hk argv`, run in-process, keeps the contract;
    else (exit code or None, what broke)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(budget)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:   # argparse prints its usage text and exits 2
        return exc.code, None if exc.code == 2 else f"SystemExit({exc.code!r})"
    except Overrun:
        return None, f"ran past its {budget} s budget"
    except Exception as exc:
        return None, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    lines = err.getvalue().splitlines()
    if (code == 0
            or code == 2 and len(lines) == 1 and not out.getvalue()
            or code == 1 and len(lines) == 1 and "certification failure" in lines[0]
            or code == 1 and not lines and _failed_result(out.getvalue())):
        return code, None
    return code, f"exit {code} with {len(lines)} stderr lines: {err.getvalue()[:300]!r}"


def show(argv: list) -> str:
    """argv as a Python list, each argument past 60 characters shortened."""
    return "[" + ", ".join(
        repr(a) if len(a) <= 60 else f"{a[:20]!r} + ... ({len(a)} chars)"
        for a in argv) + "]"


def run_cases(seeds, directory: Path) -> list:
    """(seed, argv, exit code, None or what broke) for each case seed; case
    k is drawn by random.Random(k)."""
    files = report_files(directory)
    cases = []
    for seed in seeds:
        argv = draw_argv(random.Random(seed), files)
        cases.append((seed, argv, *check_case(argv)))
    return cases


def test_seeded_argv_keep_the_cli_contract(tmp_path):
    cases = run_cases(SLICE, tmp_path)
    broken = [f"seed {seed}: {show(argv)}: {verdict}"
              for seed, argv, _, verdict in cases if verdict is not None]
    assert not broken, "\n".join(broken)
    # not vacuous: the slice reaches every command and every exit code
    assert {argv[0] for _, argv, _, _ in cases if argv} >= {
        "tate", "log", "verify", "report-diff"}
    assert {code for _, _, code, _ in cases} >= {0, 1, 2}
