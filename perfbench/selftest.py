"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs a tiny pass of each workload untraced, and the first real pass
traced, and checks that the last output line carries every metric of
BENCHMARK.json with its unit. It checks that a corrupted oracle value, a suite forced to report failure,
a suite with too few checks, a report that states fewer digits and an op
that raises are each counted as failed and never passed; that the exact
counts of the traced run repeat; and that the benchmark refuses to run in a
directory without the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from unittest import mock

import oracle
import run
import workloads
from tracer import read_trace

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_plan(tatehk, workload, seed, index):
    if workload == "identities":
        return [workloads.suite_op(tatehk, name, params, per_trial, seed + k, 2)
                for k, (name, params, per_trial) in enumerate(workloads.SUITES)]
    if workload == "branch_sweep":
        return [workloads.tate_op(tatehk, 3, 20, 1),
                workloads.tate_op(tatehk, 3, 20, 1, branch=(2, 1 + 3 * 7))]
    return [workloads.tate_op(tatehk, 3, 20, 1)]


def invoke(workload, trace, plan=tiny_plan):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0.1", "--trace", str(trace)], plan)
    assert code == 0, code
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_result_shape(res, trace):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = res["metrics"]
    assert set(got) == {m["name"] for m in wanted}, set(got) ^ {m["name"] for m in wanted}
    for m in wanted:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (m["name"], entry)
    if not trace:
        for m in wanted:
            assert got[m["name"]]["value"] > 0, m["name"]


def expect_failed(label, plan=tiny_plan, workload="grid"):
    res = invoke(workload, 0, plan)
    assert res["failed"] == res["attempted"] >= 1 and res["correct"] is False, (label, res)
    print(f"ok: {label} counted as failed")


def main():
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            res = invoke(workload, trace, tiny_plan if trace == 0 else workloads.plan_pass)
            check_result_shape(res, trace)
            assert res["correct"] and res["failed"] == 0, (workload, trace, res)
        print(f"ok: {workload} prints every metric with its unit")

    header, arrays = read_trace(run.OUT_DIR / "trace-identities-3.bin.gz")
    assert len(arrays["start"]) == header["spans"] > 0
    assert all(s <= e for s, e in zip(arrays["start"], arrays["end"]))

    tatehk = workloads.load_package()
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first = run.measure_traced(tatehk, "grid", 3, tiny_plan)[2].metrics()
    again = run.measure_traced(tatehk, "grid", 3, tiny_plan)[2].metrics()
    assert first["cech.cech_D.calls"] > 0
    for name in counts:
        assert first[name] == again[name], name
    print(f"ok: {len(counts)} counts repeat exactly; trace file reads back")

    def corrupt(tatehk_, workload, seed, index):
        op = workloads.tate_op(tatehk_, 3, 20, 1)
        op.expect["r"] = 2          # the oracle now wants N_pi = [[0, 2], [0, 0]]
        return [op]
    expect_failed("corrupted oracle value", corrupt)

    def low_floor(tatehk_, workload, seed, index):
        return [workloads.suite_op(tatehk_, "branch_calculus", {"p": 3, "prec": 20},
                                   5, seed, 2)]
    expect_failed("suite with fewer checks than its floor", low_floor, "identities")

    verify_suite = tatehk.verify_suite
    with mock.patch.object(tatehk, "verify_suite",
                           lambda *a, **k: dict(verify_suite(*a, **k), ok=False)):
        expect_failed("suite forced to ok: false", workload="identities")

    render_report = tatehk.render_report

    def fewer_digits(comp):
        rep = render_report(comp)
        rep["matrices"]["psi"][1][0] = "O(pi^19)"
        return rep
    with mock.patch.object(tatehk, "render_report", fewer_digits):
        expect_failed("report certifying fewer digits than prec")

    with mock.patch.object(tatehk, "compute_tate",
                           side_effect=tatehk.CertificationError("forced")):
        expect_failed("op that raises")

    assert oracle.pi_digits(5, 5, 2, 10) == {2: 1}
    assert oracle.pi_digits(-1, 3, 1, 3) == {0: 2, 1: 2, 2: 2}
    assert oracle.read_expansion("pi^-1*(2 + pi^3 + O(pi^5))") == ({-1: 2, 2: 1}, 4)

    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(SPEC["command"] + ["--workload", "grid", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("ok: refuses to run without the package")
    return 0


if __name__ == "__main__":
    sys.exit(main())
