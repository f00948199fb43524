"""Run the certificate mutants through the tier-1 tests.

    python3 tools/mutants.py [NAME ...]

Each row of MUTANTS weakens one certificate: (name, file, old text, new
text). For each row asked for (all rows by default), src/, tests/,
perfbench/ and pyproject.toml are copied to a temporary directory, the old
text is replaced by the new one there, and tier-1 runs on the copy with
`pytest -x -q`. The checkout is never edited. A row whose old text does not
occur exactly once exits 2 before any test runs, so a table gone stale
after a refactor is seen at once.

One line per row: killed or survived, the seconds taken, and the first
failing test. Exits 1 if any mutant survived. A survivor is mended by a
test that kills it, or kept in the table with the reason it cannot be told
apart; a row is never deleted to get a clean table. Not part of tier-1:
all rows take a few minutes.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

MUTANTS = (
    ("hk class independence", "src/tatehk/cech.py",
     'raise AmbiguousSolve("classes are dependent modulo coboundaries")',
     "pass"),
    ("tainted-window refusal", "src/tatehk/cech.py",
     "if tainted and not allow_tainted:", "if False:"),
    ("log_depth + 1", "src/tatehk/plog.py",
     "return p ** k * c - e * k\n", "return p ** k * c - e * k + 1\n"),
    ("dr premise", "src/tatehk/cech.py",
     '    if spec.side == "hk":\n        return\n    step = dr_window_bound',
     '    if True:\n        return\n    step = dr_window_bound'),
    ("_centered_int below the cap", "src/tatehk/cech.py",
     "if n < cap or u and v < 0 or", "if u and v < 0 or"),
    ("_centered_int ignores a pi-coefficient", "src/tatehk/cech.py",
     " or any(ui or ni < cap for _, ui, ni in rest):", ":"),
    ("dr class independence", "src/tatehk/cech.py",
     "if sum(1 for _, c in res.pivots if c >= nsrc) < len(classes):",
     "if False:"),
    ("dr residual at floor - 3", "src/tatehk/cech.py",
     "for t in targets],\n                                 cert_floor(field))",
     "for t in targets],\n                                 cert_floor(field) - 3)"),
    ("is_cocycle at floor - 3", "src/tatehk/cech.py",
     "image.is_zero_at(cert_floor(c.spec.field))",
     "image.is_zero_at(cert_floor(c.spec.field) - 3)"),
    ("fiber integrality refusal", "src/tatehk/pipeline.py",
     "if any(None in row.values() for row in rows):", "if False:"),
    ("_times as a product in K", "src/tatehk/charts.py",
     "-c if k == -1 else c.scale(k)", "-c if k == -1 else c * k"),
    ("JobSpec window check T > bound", "src/tatehk/pipeline.py",
     "if self.T >= bound:", "if self.T > bound:"),
    ("dr premise T > step", "src/tatehk/cech.py",
     "if spec.T >= step:", "if spec.T > step:"),
    ("suite check without the widened job", "src/tatehk/pipeline.py",
     'if name == "truncation_stability":', "if False:"),
    ("run_tate_job checks its suites after the job", "src/tatehk/pipeline.py",
     "    for name in suites:\n        check_suite_args(name, job.p, job.prec, job.r, "
     "job.eisenstein)\n    report = render_report(compute_tate(job))\n",
     "    report = render_report(compute_tate(job))\n    for name in suites:\n"
     "        check_suite_args(name, job.p, job.prec, job.r, job.eisenstein)\n"),
    ("tate leaves its suites to the work", "src/tatehk/cli.py",
     "    for name in args.suite:\n        check_suite_args(", "    for name in ():\n"
     "        check_suite_args("),
    ("verify leaves its suites to the work", "src/tatehk/cli.py",
     "    for name in names:\n        check_suite_args(", "    for name in ():\n"
     "        check_suite_args("),
)


def run(row) -> tuple:
    """(killed, seconds, first failing test or '') for one row."""
    _, path, old, new = row
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, tree / item,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tree / item)
        target = tree / path
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return proc.returncode != 0, seconds, failed.group(1) if failed else ""


def main(argv) -> int:
    unknown = set(argv) - {row[0] for row in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    rows = [row for row in MUTANTS if not argv or row[0] in argv]
    for name, path, old, _ in rows:   # every row applies before any test runs
        if (ROOT / path).read_text().count(old) != 1:
            print(f"{name}: mutant text does not occur exactly once in {path}",
                  file=sys.stderr)
            return 2
    survived = 0
    for row in rows:
        killed, seconds, first = run(row)
        survived += not killed
        print(f"{'killed' if killed else 'survived':8} {seconds:6.1f} s  "
              f"{row[0]}  {first}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
