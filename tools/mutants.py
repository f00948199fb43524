"""Run the certificate mutants through the tier-1 tests.

    python3 tools/mutants.py [NAME ...]

Each row of MUTANTS weakens one certificate: (name, file, old text, new
text), and for a mutant shown equivalent a fifth field, the reason no input
can tell it apart. For each row asked for (all rows by default), src/,
tests/, perfbench/ and pyproject.toml are copied to a temporary directory,
the old text is replaced by the new one there, and tier-1 runs on the copy
with `pytest -x -q`. The checkout is never edited. A row whose old text does not
occur exactly once exits 2 before any test runs, so a table gone stale
after a refactor is seen at once.

One line per row: killed, survived or equivalent (a survivor with a
reason, which is printed), the seconds taken, and the first failing test.
Exits 1 if any mutant without a reason survived. A survivor is mended by a
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
     "xs, res = _solve_echelon(aug, nb, cert_floor(field))",
     "xs, res = _solve_echelon(aug, nb, cert_floor(field) - 3)"),
    ("_system reads dr entries with _centered_int", "src/tatehk/cech.py",
     "m = _centered_int(coeff) if hk else coeff", "m = _centered_int(coeff)"),
    ("_system drops class and target overflow", "src/tatehk/cech.py",
     "tainted = tainted or c.overflow", "tainted = tainted"),
    ("is_cocycle at floor - 3", "src/tatehk/cech.py",
     "image.is_zero_at(cert_floor(c.spec.field))",
     "image.is_zero_at(cert_floor(c.spec.field) - 3)"),
    ("fiber integrality refusal", "src/tatehk/cech.py",
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
    ("h_ranks lemma dropped", "src/tatehk/cech.py",
     "h[d] -= h[d - 1]", "h[d] = h[d]"),
    ("h_ranks lemma only from d >= 2", "src/tatehk/cech.py",
     "for d in (1, 2, 3):", "for d in (2, 3):"),
    ("Miller-Rabin without bases 37 and 41", "src/tatehk/padic.py",
     "23, 29, 31, 37, 41)", "23, 29, 31)"),
    ("primality bound p > bound", "src/tatehk/padic.py",
     "if p >= PRIME_BOUND:", "if p > PRIME_BOUND:"),
    ("log_one_unit guard digits G - 1", "src/tatehk/plog.py",
     "-(-depth // e) + guard + k)", "-(-depth // e) + guard - 1 + k)"),
    ("pi_digits M one digit short", "src/tatehk/field.py",
     "mod = p ** -(-n // fld.e)", "mod = p ** (-(-n // fld.e) - 1)"),
    ("pi_digits M two digits short", "src/tatehk/field.py",
     "mod = p ** -(-n // fld.e)", "mod = p ** (-(-n // fld.e) - 2)"),
    ("back-substitution upwards", "src/tatehk/linalg.py",
     "if c < f), reverse=True):", "if c < f), reverse=False):"),
    ("back-substitution without its scale step", "src/tatehk/linalg.py",
     "if scale != 1:", "if False:"),
    ("back-substitution without its sign rule", "src/tatehk/linalg.py",
     "x[c] = -(s // g) if d > 0 else s // g", "x[c] = -(s // g)"),
    ("rank_at refusal", "src/tatehk/linalg.py",
     "if prec < floor_pi:", "if prec < floor_pi - 10**6:"),
    ("report_diff compares the digit at its depth", "src/tatehk/pipeline.py",
     "for k in positions if k < depth)", "for k in positions if k <= depth)"),
    ("log argument reduction never taken", "src/tatehk/plog.py",
     "if r * per_power + n < cost:", "if False:"),
    ("shift without its zero-at-cap rule", "src/tatehk/field.py",
     "if c is None or not c[1] and c[2] >= cap:", "if c is None:"),
    ("_product without its left-zero rule", "src/tatehk/field.py",
     "if ua or pa < cap:  # a zero at the cap is exact", "if True:"),
    ("ChartElement._accumulate keeps no overflow flag", "src/tatehk/charts.py",
     "            self.overflow = True\n            return\n"
     "        self._add_term((i, j, slot), coeff)",
     "            return\n        self._add_term((i, j, slot), coeff)"),
    ("FiberElement._accumulate keeps no overflow flag", "src/tatehk/charts.py",
     "            self.overflow = True\n            return\n"
     "        self._add_term((j, slot), coeff)",
     "            return\n        self._add_term((j, slot), coeff)"),
    ("UForm._accumulate keeps no u-cap overflow flag", "src/tatehk/kimhain.py",
     "                self.ucap_overflow = True\n            return",
     "                pass\n            return"),
    ("_SparseForm.__add__ drops other.overflow", "src/tatehk/charts.py",
     "out.overflow = self.overflow or other.overflow\n        out.coeffs = dict(",
     "out.overflow = self.overflow\n        out.coeffs = dict("),
)


def run(row) -> tuple:
    """(killed, seconds, first failing test or '') for one row."""
    _, path, old, new = row[:4]
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
    for name, path, old, *_ in rows:   # every row applies before any test runs
        if (ROOT / path).read_text().count(old) != 1:
            print(f"{name}: mutant text does not occur exactly once in {path}",
                  file=sys.stderr)
            return 2
    survived = 0
    for row in rows:
        killed, seconds, first = run(row)
        verdict = "killed" if killed else "survived" if len(row) == 4 else "equivalent"
        survived += verdict == "survived"
        note = first if killed or len(row) == 4 else row[4]
        print(f"{verdict:10} {seconds:6.1f} s  {row[0]}  {note}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
