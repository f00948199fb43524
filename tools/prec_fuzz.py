"""Long run of the seeded job generator in tests/test_prec_fuzz.py.

    python3 tools/prec_fuzz.py --seed 1000 --cases 5000

Case k of a run is drawn by random.Random(seed + k) and rendered at prec N
and N + 6. Every case whose reports differ outside the echo paths of
test_reports_at_prec_n_and_n_plus_6_agree, or that raises, is printed with
its seed, so `--seed SEED --cases 1` replays it. The last line counts the
cases and the ones that moved. Exits 1 if any case moved. Not part of
tier-1, whose slice is seeds 0-99.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_prec_fuzz as fuzz  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1000,
                        help="seed of the first case")
    parser.add_argument("--cases", type=int, default=2000)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    moved = 0
    for seed in range(args.seed, args.seed + args.cases):
        (_, job, verdict), = fuzz.run_cases([seed])
        if verdict is not None:
            moved += 1
            print(f"seed {seed}: {job}: {verdict}", flush=True)
    print(f"{args.cases} cases in {time.perf_counter() - start:.1f} s, {moved} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
