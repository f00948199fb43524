"""Command line entry points."""

import json
import os
import subprocess
import sys

import pytest

import tatehk
from tatehk.cli import main


def test_tate_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "tate", "--p", "3", "--r", "2", "--prec", "10",
        "--out", str(out),
    ])
    assert code == 0
    rep = json.loads(out.read_text())
    assert sorted(rep.keys()) == [
        "classes", "filtration", "identifications", "matrices",
        "meta", "spec", "suites", "windows",
    ]
    assert rep["spec"]["p"] == 3
    assert rep["spec"]["r"] == 2
    # nothing on stdout apart from the confirmation line
    msg = capsys.readouterr().out
    assert str(out) in msg


def test_tate_prints_report_to_stdout(capsys):
    code = main(["tate", "--p", "3", "--r", "1", "--prec", "10"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["matrices"]["frobenius"][1][1].startswith("pi")


def test_tate_runs_requested_suite(capsys):
    code = main([
        "tate", "--p", "3", "--r", "1", "--prec", "10",
        "--suite", "branch_calculus",
    ])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["suites"]["branch_calculus"]["ok"] is True


def test_log_evaluates_branch(capsys):
    code = main([
        "log", "--p", "5", "--prec", "12", "--q", "p*(1+p)",
        "--eval", "1+p",
    ])
    assert code == 0
    out = capsys.readouterr().out
    # log(1+5) = 5 - 5^2/2 + ... starts with digit 5 -> "pi + ..."
    assert "pi" in out


def test_log_prints_every_certified_digit(capsys):
    # at e = 4 the last certified digit, at pi^79, is printed and right
    code = main(["log", "--p", "5", "--prec", "20", "--field", "s^4+5*s^3+5",
                 "--q", "p", "--eval", "1+pi"])
    assert code == 0
    log = json.loads(capsys.readouterr().out)["log"]
    assert log.endswith(" + 2*pi^78 + 2*pi^79 + O(pi^80)")


def test_log_q_of_pi_keeps_every_digit(capsys):
    # q = p = pi^4 v, and p is known to pi^84: shifting it by pi^-4 leaves v
    # and log_q(pi) = -log(v)/4 known to the cap
    code = main(["log", "--p", "5", "--prec", "20", "--field", "s^4+5*s^3+5",
                 "--q", "p"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["log_q(pi)"].endswith(" + O(pi^80)")


@pytest.mark.parametrize("field", [None, "s^2-5"])
def test_log_keeps_its_digits_however_deep_the_input(field, capsys):
    # on the branch q = p, log(p^k (1+p)) = log(1+p) for every k: also where
    # p^k lies at or beyond twice the precision (k = 39, 41 at prec 20)
    logs = []
    for k in (3, 39, 41):
        argv = ["log", "--p", "5", "--prec", "20", "--q", "p",
                "--eval", f"5^{k}*(1+p)"]
        assert main(argv + (["--field", field] if field else [])) == 0
        logs.append(json.loads(capsys.readouterr().out)["log"])
    assert logs[0] == logs[1] == logs[2]
    assert logs[0].endswith("O(pi^20)" if field is None else "O(pi^40)")


def test_log_reports_branch_constant(capsys):
    code = main(["log", "--p", "5", "--prec", "12", "--q", "p"])
    assert code == 0
    out = capsys.readouterr().out
    assert "log_q(pi)" in out


def test_verify_single_suite(capsys):
    code = main([
        "verify", "--suite", "branch_calculus", "--p", "3",
        "--prec", "10", "--trials", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "branch_calculus" in out and "ok" in out


def test_report_diff_equal_and_different(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"x": "2 + O(pi^4)", "y": 1}))
    b.write_text(json.dumps({"x": "2 + O(pi^7)", "y": 1}))
    assert main(["report-diff", str(a), str(b)]) == 0
    capsys.readouterr()

    c = tmp_path / "c.json"
    c.write_text(json.dumps({"x": "3 + O(pi^7)", "y": 1}))
    assert main(["report-diff", str(a), str(c)]) == 1
    out = capsys.readouterr().out
    assert "/x" in out


def test_usage_error_exits_two(capsys):
    try:
        code = main(["tate", "--r", "2"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2


def test_bad_value_exits_two(capsys):
    code = main(["tate", "--p", "4", "--r", "1"])
    assert code == 2
    assert "p" in capsys.readouterr().err


def _exits_two_with_one_line(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_log_composite_prime_exits_two(capsys):
    err = _exits_two_with_one_line(["log", "--p", "4"], capsys)
    assert "prime" in err


def test_log_nonpositive_precision_exits_two(capsys):
    err = _exits_two_with_one_line(["log", "--p", "5", "--prec", "0"], capsys)
    assert "prec" in err


def test_tate_non_eisenstein_polynomial_exits_two(capsys):
    err = _exits_two_with_one_line(
        ["tate", "--p", "5", "--r", "1", "--eisenstein", "s^2-3"], capsys)
    assert "valuation" in err


def test_tate_unit_branch_point_exits_two(capsys):
    err = _exits_two_with_one_line(
        ["tate", "--p", "5", "--r", "1", "--q", "1+p"], capsys)
    assert "branch point" in err


@pytest.mark.parametrize("argv, word", [
    (["tate", "--p", "5", "--r", "1", "--q", "0"], "branch point"),
    (["tate", "--p", "5", "--r", "1", "--q", "1/0"], "division by zero"),
    (["log", "--p", "5", "--eval", "0"], "zero"),
    (["tate", "--p", "5", "--r", "1", "--U", "-1"], "U"),
    (["tate", "--p", "3", "--r", "1", "--U", "0"], "U"),
    (["tate", "--p", "3", "--r", "1", "--prec", "8", "--T", "27"], "T = 27"),
    (["tate", "--p", "5", "--r", "1", "--q", "(" * 1200 + "p" + ")" * 1200],
     "deeper than"),
    (["log", "--p", "5", "--q=" + "-" * 3000 + "p"], "deeper than"),
    (["log", "--p", "5", "--eval", "(" * 1200 + "1+p" + ")" * 1200],
     "deeper than"),
    (["log", "--p", "5", "--eval=" + "-" * 3000 + "p"], "deeper than"),
    (["tate", "--p", "5", "--r", "1", "--eisenstein", "s^2-5/0"], "denominator"),
    (["log", "--p", "5", "--field", "s^2-5/0"], "denominator"),
    (["tate", "--p", "5", "--r", "1", "--eisenstein", "s^65+5"], "degree 65"),
    (["log", "--p", "5", "--field", "s^65+5"], "degree 65"),
    (["log", "--p", "5", "--field", "s^99999+5"], "degree 99999"),
])
def test_zero_or_negative_input_exits_two(argv, word, capsys):
    # a branch point, divisor or log argument that is zero at the working
    # precision, a U below 1 (the class e2 carries u^[1]) and a window T that
    # reaches p^(prec - SLACK) (d(w^T) is then no certified pivot) are usage
    # errors, not failed certificates; so are an expression nested too deep,
    # a zero denominator and an Eisenstein degree past the limit
    assert word in _exits_two_with_one_line(argv, capsys)


@pytest.mark.parametrize("argv, word", [
    (["verify", "--p", "4"], "prime"),
    (["verify", "--prec", "0"], "prec"),
    (["verify", "--r", "0"], "r >= 1"),
    (["verify", "--p", "5", "--eisenstein", "s^2-3"], "valuation"),
    (["verify", "--suite", "kim_hain_algebra", "--trials", "-3"], "trials"),
    (["verify", "--suite", "kim_hain_algebra", "--trials", "0"], "trials"),
    (["verify", "--p", "5", "--eisenstein", "s^2-5/0"], "denominator"),
    (["verify", "--p", "5", "--eisenstein", "s^65+5"], "degree 65"),
])
def test_verify_bad_input_exits_two(argv, word, capsys):
    # a suite never starts on bad parameters, and a pass that checks
    # nothing (no trials) is refused rather than reported ok
    assert word in _exits_two_with_one_line(argv, capsys)


def test_tate_unwritable_out_exits_two_before_the_job(tmp_path, capsys,
                                                       monkeypatch):
    import tatehk.cli as cli

    def no_job(*args, **kwargs):
        raise AssertionError("the job ran before --out was checked")

    monkeypatch.setattr(cli, "run_tate_job", no_job)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        err = _exits_two_with_one_line(
            ["tate", "--p", "3", "--r", "1", "--out", str(out)], capsys)
        assert "--out" in err


def test_tate_into_a_closed_pipe_exits_without_traceback():
    # the reader end is closed before the job prints (hk tate | head -c 0)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tatehk.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tatehk.cli", "tate", "--p", "3", "--r", "1",
         "--prec", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert err == ""


def _no_work(job):
    raise AssertionError("compute_tate ran before the input was checked")


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "2", "--prec", "8", "--r", "1"],
    ["verify", "--p", "2", "--prec", "8", "--r", "1",
     "--suite", "truncation_stability"],
    ["tate", "--p", "2", "--prec", "8", "--r", "1",
     "--suite", "truncation_stability"],
])
def test_a_suite_job_past_the_window_bound_exits_two_before_work(
        argv, capsys, monkeypatch):
    # the truncation suite also runs its job at windows S + 4, T + 4, U + 1;
    # at p = 2, prec 8 that T = 10 reaches the bound 2^(8 - 5) = 8, and the
    # widened job is checked with the others before any job runs
    import tatehk.pipeline as pipeline

    monkeypatch.setattr(pipeline, "compute_tate", _no_work)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "truncation_stability" in err


def test_a_suite_with_no_widened_job_runs_at_p_two_prec_eight(capsys):
    code = main(["verify", "--p", "2", "--prec", "8", "--r", "1",
                 "--suite", "branch_calculus"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["branch_calculus"]["ok"] is True


def test_run_tate_job_checks_its_suites_before_the_job(monkeypatch):
    import tatehk.pipeline as pipeline

    monkeypatch.setattr(pipeline, "compute_tate", _no_work)
    with pytest.raises(ValueError, match="truncation_stability"):
        pipeline.run_tate_job(pipeline.JobSpec(2, 8, 1),
                              suites=["truncation_stability"])


@pytest.mark.parametrize("content", [b"\xff\xfe\x00{", b"[" * 100000],
                         ids=["not utf-8", "nested too deep"])
def test_report_diff_of_an_unreadable_report_exits_two(content, tmp_path, capsys):
    # bytes that are not UTF-8, and JSON nested past the recursion limit,
    # are input errors like a missing file or text that is not JSON
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    err = _exits_two_with_one_line(["report-diff", str(bad), str(bad)], capsys)
    assert "hk report-diff: " in err
