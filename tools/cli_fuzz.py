"""Long run of the seeded CLI input generator in tests/test_cli_contract.py.

    python3 tools/cli_fuzz.py --seed 1000 --cases 5000

Case k of a run is drawn by random.Random(seed + k) and run in-process
through cli.main, under the per-case budget of the tier-1 slice (which is
seeds 0-199). Every case that breaks the contract (exit 0; exit 1 with a
certification failure or a failed suite or diff; exit 2 with one stderr
line) is printed with its seed, so `--seed SEED --cases 1` replays it. The
last line counts the cases by exit code. Exits 1 if any case broke. Not
part of tier-1.
"""

from __future__ import annotations

import argparse
import collections
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_cli_contract as contract  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1000,
                        help="seed of the first case")
    parser.add_argument("--cases", type=int, default=2000)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="cli-fuzz-") as tmp:
        cases = contract.run_cases(range(args.seed, args.seed + args.cases), Path(tmp))
    codes = collections.Counter()
    broken = 0
    for seed, case_argv, code, verdict in cases:
        codes[code] += 1
        if verdict is not None:
            broken += 1
            print(f"seed {seed}: {contract.show(case_argv)}: {verdict}", flush=True)
    print(f"{len(cases)} cases in {time.perf_counter() - start:.1f} s, "
          f"{broken} broke the contract; exit codes "
          f"{dict(sorted(codes.items(), key=str))}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
