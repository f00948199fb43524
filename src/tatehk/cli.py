"""Command line front end.

Subcommands:
  tate         run a full job and print (or write) the JSON report
  log          evaluate a branch logarithm on an element expression
  verify       run one or all of the randomized verification suites
  report-diff  compare two report files up to their stated precision

Exit codes: 0 on success, 1 when a certificate fails (or reports differ,
or a suite fails, or the reader closes standard output early), 2 on usage
errors.

Each _cmd_* checks only its input, every job of every suite included, and
returns the work as a closure; main alone turns a ValueError, OSError or
RecursionError (JSON nested too deep) from those checks into exit 2 and one
line `hk <command>: <message>`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import CertificationError
from .field import FieldDescriptor, parse_eisenstein, parse_element
from .padic import PadicContext
from .pipeline import (JobSpec, check_suite_args, report_diff, run_tate_job,
                       suite_names, verify_suite)
from .plog import branch_from_spec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hk",
        description="certified finite-precision cohomology of a "
                    "multiplicatively degenerating curve")
    sub = parser.add_subparsers(dest="command", required=True)

    tate = sub.add_parser("tate", help="run a job and emit the JSON report")
    tate.add_argument("--p", type=int, required=True, help="residue characteristic")
    tate.add_argument("--r", type=int, required=True,
                      help="uniformizer exponent of the curve parameter")
    tate.add_argument("--prec", type=int, default=20, help="working precision")
    tate.add_argument("--eisenstein", default=None,
                      help="monic Eisenstein polynomial in s for the ground field")
    tate.add_argument("--q", default="pi",
                      help="branch point of the logarithm (pi, p, or an expression)")
    tate.add_argument("--S", type=int, default=None, help="chart exponent window")
    tate.add_argument("--T", type=int, default=None, help="fiber exponent window")
    tate.add_argument("--U", type=int, default=3, help="divided-power cap")
    tate.add_argument("--suite", action="append", default=[],
                      choices=suite_names(), help="also run a verification suite")
    tate.add_argument("--out", default=None, help="write the report to this file")

    log = sub.add_parser("log", help="evaluate a branch logarithm")
    log.add_argument("--p", type=int, required=True)
    log.add_argument("--prec", type=int, default=20)
    log.add_argument("--field", default=None,
                     help="monic Eisenstein polynomial in s for the field")
    log.add_argument("--q", default="pi", help="branch point")
    log.add_argument("--eval", default=None, dest="value",
                     help="element expression to take the logarithm of "
                          "(default: report the branch constant log_q(pi))")

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite", default="all",
                     choices=["all"] + suite_names())
    ver.add_argument("--p", type=int, default=3)
    ver.add_argument("--prec", type=int, default=14)
    ver.add_argument("--r", type=int, default=2)
    ver.add_argument("--eisenstein", default=None)
    ver.add_argument("--seed", type=int, default=1)
    ver.add_argument("--trials", type=int, default=None)

    diff = sub.add_parser("report-diff", help="compare two report files")
    diff.add_argument("report_a")
    diff.add_argument("report_b")
    return parser


def _check_out_path(path: str):
    """ValueError unless path can be created or overwritten as a file."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")
    if not os.path.isdir(parent):
        raise ValueError(f"--out {path}: no directory {parent}")
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise ValueError(f"--out {path} is not writable")


def _cmd_tate(args):
    job = JobSpec(args.p, args.prec, args.r, args.eisenstein, args.q,
                  args.S, args.T, args.U)
    for name in args.suite:
        check_suite_args(name, args.p, args.prec, args.r, args.eisenstein)
    if args.out:
        _check_out_path(args.out)

    def work() -> int:
        report = run_tate_job(job, suites=args.suite)
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            try:
                Path(args.out).write_text(text + "\n")
            except OSError as err:
                print(f"hk tate: {err}", file=sys.stderr)
                return 2
            print(f"wrote {args.out}")
        else:
            print(text)
        return 0 if all(res["ok"] for res in report["suites"].values()) else 1
    return work


def _cmd_log(args):
    ctx = PadicContext(args.p, args.prec)
    field = parse_eisenstein(args.field, ctx) if args.field else FieldDescriptor.base(ctx)
    branch = branch_from_spec(field, args.q)
    x = parse_element(args.value, field) if args.value else None
    if x is not None and x.ord_pi_or_none() is None:
        raise ValueError("--eval value is zero at the working precision")

    def work() -> int:
        out = {"field": field.poly_str(), "branch": branch.label,
               "log_q(pi)": branch.log_pi().expansion_str()}
        if x is not None:
            out["value"] = x.expansion_str()
            out["log"] = branch.log(x).expansion_str()
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    return work


def _cmd_verify(args):
    names = suite_names() if args.suite == "all" else [args.suite]
    for name in names:
        check_suite_args(name, args.p, args.prec, args.r, args.eisenstein, args.trials)

    def work() -> int:
        results = {name: verify_suite(name, args.p, args.prec, args.r, args.eisenstein,
                                      args.seed, args.trials) for name in names}
        print(json.dumps(results, indent=2, sort_keys=True))
        return 0 if all(res["ok"] for res in results.values()) else 1
    return work


def _cmd_report_diff(args):
    a, b = (json.loads(Path(f).read_text()) for f in (args.report_a, args.report_b))

    def work() -> int:
        diffs = report_diff(a, b)
        print(json.dumps(diffs, indent=2, sort_keys=True))
        return 0 if not diffs else 1
    return work


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"tate": _cmd_tate, "log": _cmd_log, "verify": _cmd_verify,
               "report-diff": _cmd_report_diff}[args.command]
    try:
        work = command(args)   # input checks only: no work has started
    except (ValueError, OSError, RecursionError) as err:
        print(f"hk {args.command}: {err}", file=sys.stderr)
        return 2
    try:
        code = work()
        sys.stdout.flush()
    except CertificationError as err:
        print(f"hk {args.command}: certification failure: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed the pipe (hk tate | head): stop without a traceback,
        # and send the rest to devnull so that the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
