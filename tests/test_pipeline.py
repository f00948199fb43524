import json
import re
from pathlib import Path

import pytest

import tatehk
from tatehk.field import FieldDescriptor
from tatehk.padic import PadicContext
from tatehk.pipeline import (JobSpec, compute_tate, parse_expansion,
                             render_report, report_diff, run_tate_job,
                             suite_names, verify_suite)
from tatehk.plog import log_one_unit


def lift_int(x):
    c = x.coeffs[0]
    if c.is_zero():
        return 0
    m = c.lift()
    modulus = c.ctx.p ** c.prec
    return m - modulus if m > modulus // 2 else m


def test_job_spec_validation():
    with pytest.raises(ValueError):
        JobSpec(4, 12, 1)
    with pytest.raises(ValueError):
        JobSpec(3, 4, 1)
    with pytest.raises(ValueError):
        JobSpec(3, 12, 0)
    with pytest.raises(ValueError):
        JobSpec(3, 12, 1, S=2, T=2)
    job = JobSpec(3, 12, 2)
    assert (job.S, job.T, job.U) == (8, 8, 3)


def test_unramified_trivial_branch():
    comp = compute_tate(JobSpec(3, 12, 2))
    phi = [[lift_int(comp.phi.entry(i, j)) for j in range(2)] for i in range(2)]
    n = [[lift_int(comp.n_pi.entry(i, j)) for j in range(2)] for i in range(2)]
    psi = [[lift_int(comp.psi.entry(i, j)) for j in range(2)] for i in range(2)]
    assert phi == [[1, 0], [0, 3]]
    assert n == [[0, 2], [0, 0]]
    assert psi == [[1, 0], [0, 1]]
    assert lift_int(comp.h0_phi) == 1
    assert lift_int(comp.h2_phi) == 3
    assert lift_int(comp.h2_n) == 0
    assert comp.ranks_hk == {0: 1, 1: 2, 2: 1, 3: 0}
    assert comp.ranks_dr == {0: 1, 1: 2, 2: 1, 3: 0}
    assert not comp.ranks_tainted
    assert comp.lam.is_zero_at(12)
    # one-form line is the second basis class
    assert len(comp.fil_dr) == 1
    assert comp.fil_dr[0][0].is_zero_at(7)
    assert lift_int(comp.fil_dr[0][1]) == 1


def test_ramified_normalized_monodromy():
    comp = compute_tate(JobSpec(5, 10, 2, "s^2 - 5"))
    nn = comp.module.n_ordp()
    assert nn.entry(0, 1).same_at(comp.field.one(), 10)
    assert comp.module.check_relation(10)
    assert comp.module.is_weakly_admissible_numerically()
    assert lift_int(comp.n_pi.entry(0, 1)) == 2


def test_branch_moves_psi_and_filtration():
    comp = compute_tate(JobSpec(5, 12, 3, None, "p*(1+p)"))
    field = comp.field
    lv = log_one_unit(field.from_int(6))
    # lambda = -log_q(p) = log(1+p), and psi(e2) picks up r * lambda on e1
    assert comp.psi.entry(0, 1).same_at(lv * field.from_int(3), 7)
    assert comp.psi.entry(1, 1).same_at(field.one(), 7)
    # the fiber one-form line pulled back through psi tilts by -r*lambda
    assert comp.fil_hk[0][0].same_at(-(lv * field.from_int(3)), 7)
    assert comp.fil_hk[0][1].same_at(field.one(), 7)


def test_report_shape_and_determinism():
    job = JobSpec(3, 12, 1)
    rep1 = run_tate_job(job)
    rep2 = run_tate_job(job)
    assert rep1 == rep2
    assert sorted(rep1) == ["classes", "filtration", "identifications",
                            "matrices", "meta", "spec", "suites", "windows"]
    text = json.dumps(rep1, sort_keys=True)
    assert json.loads(text) == rep1
    assert rep1["identifications"]["h0_object"] == "K(0)"
    assert rep1["identifications"]["h2_object"] == "K(-1)"
    assert rep1["identifications"]["weakly_admissible"] is True
    for key, entry in rep1["classes"].items():
        assert entry["cocycle_ok"], key


def test_version_is_stated_once():
    # a regex, not tomllib: Python 3.10, which pyproject allows, lacks it
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
    assert tatehk.__version__ == version
    assert render_report(compute_tate(JobSpec(3, 8, 1)))["meta"]["version"] == version


def test_parse_expansion():
    assert parse_expansion("O(pi^12)") == ({}, 12)
    assert parse_expansion("1 + O(pi^12)") == ({0: 1}, 12)
    assert parse_expansion("2*pi + pi^3 + O(pi^9)") == ({1: 2, 3: 1}, 9)
    assert parse_expansion("pi + O(pi^4)") == ({1: 1}, 4)
    assert parse_expansion("pi^-2*(3 + O(pi^5))") == ({-2: 3}, 3)
    assert parse_expansion("hello") is None
    assert parse_expansion(7) is None


def test_report_diff():
    a = {"x": "1 + 2*pi + O(pi^8)", "y": [1, 2], "z": {"w": True}}
    b = {"x": "1 + 2*pi + pi^5 + O(pi^5)", "y": [1, 2], "z": {"w": True}}
    # the pi^5 term sits at the stated depth of b, so it is not compared
    assert report_diff(a, b) == []
    c = {"x": "1 + pi + O(pi^8)", "y": [1, 2], "z": {"w": True}}
    diffs = report_diff(a, c)
    assert len(diffs) == 1 and diffs[0]["path"] == "/x"
    assert report_diff({"y": [1]}, {"y": [1, 2]})
    assert report_diff({"k": 1}, {})[0]["path"] == "/k"


def test_reports_diff_only_below_shared_precision():
    rep_lo = run_tate_job(JobSpec(3, 10, 2))
    rep_hi = run_tate_job(JobSpec(3, 14, 2))
    diffs = report_diff(rep_lo["matrices"], rep_hi["matrices"])
    assert diffs == []


def test_verify_suites_pass():
    assert suite_names() == ["base_change", "branch_calculus", "choice_of_pi",
                             "kim_hain_algebra", "truncation_stability"]
    fast = {
        "kim_hain_algebra": dict(p=3, prec=10, r=2, trials=6),
        "branch_calculus": dict(p=3, prec=10, trials=6),
        "base_change": dict(p=3, prec=10),
        "truncation_stability": dict(p=5, prec=12, r=2, eisenstein="s^2 - 5"),
    }
    for name, kw in fast.items():
        result = verify_suite(name, **kw)
        assert result["ok"], result["failures"]
        assert result["checks"] > 0
    with pytest.raises(ValueError):
        verify_suite("nope")


@pytest.mark.parametrize("job", [
    (3, 14, 3, "s^3 + 9*s^2 - 3", "p*(2+pi)"), (5, 20, 2, "s^2 - 5", "p^2*(1+p)"),
    (3, 20, 2, None, "p*(1+p*77)"), (5, 20, 2, "s^2 - 5", "pi^3*(1+pi)"),
    (3, 12, 1, None, "pi"), (5, 20, 4, "s^4 + 5*s^3 + 5", "p^2*(1+p)"),
])
def test_reports_at_prec_n_and_n_plus_6_agree(job):
    """Every digit a report states at prec N is the same digit at prec N + 6;
    only the echoed precision, the floors and the class residual depths move."""
    p, prec, r, f, q = job
    lo, hi = (render_report(compute_tate(JobSpec(p, n, r, f, q=q)))
              for n in (prec, prec + 6))
    moved = {d["path"] for d in report_diff(lo, hi)}
    assert moved <= {"/spec/prec", "/meta/cap_pi", "/meta/floor_pi"} | \
        {f"/classes/{key}/residual_depth" for key in lo["classes"]}


def test_compute_tate_solves_one_system_per_side_and_degree(monkeypatch):
    """One compute_tate builds each dr D once, shared by h_ranks, the class
    systems and the fiber lines (2 operator_matrix calls: D_0 and D_1), and
    solves one class system per (side, degree) (6 _solve calls)."""
    import sys
    from collections import Counter

    import tatehk.cech as cech
    calls = Counter()
    modules = [m for k, m in list(sys.modules.items())
               if k.split(".")[0] == "tatehk" and m is not None]
    for name in ("operator_matrix", "_solve"):
        orig = getattr(cech, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            if vars(mod).get(name) is orig:
                monkeypatch.setattr(mod, name, counted)
    for job in ((3, 20, 2), (5, 20, 2, "s^2 - 5")):
        calls.clear()
        compute_tate(JobSpec(*job))
        assert calls == {"operator_matrix": 2, "_solve": 6}


def test_identity_suites_compute_each_shared_subterm_once(monkeypatch):
    """A kim_hain_algebra trial takes 9 u-form products (x*y once for its four
    identities) and a branch_calculus trial 8 logs of one-units (log_q(x) once
    for its two identities). A count, not a timing."""
    import sys
    from collections import Counter

    import tatehk.plog as plog
    from tatehk.kimhain import UForm
    calls = Counter()

    def counter(name, orig):
        def counted(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return counted

    monkeypatch.setattr(UForm, "mul", counter("mul", UForm.mul))
    log = counter("log", plog.log_one_unit)
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "tatehk" and mod is not None \
                and vars(mod).get("log_one_unit") is plog.log_one_unit:
            monkeypatch.setattr(mod, "log_one_unit", log)
    for seed in (1, 2, 3):
        calls.clear()
        verify_suite("kim_hain_algebra", p=3, prec=14, r=2, seed=seed, trials=3)
        verify_suite("branch_calculus", p=5, prec=20, eisenstein="s^2 - 5",
                     seed=seed, trials=3)
        assert calls == {"mul": 3 * 9, "log": 3 * 8}


def test_fiber_kernel_refuses_a_differential_that_is_not_integer(monkeypatch):
    """The fiber's one-form kernel is taken over Z only when every entry of
    D on the Z columns reads as an integer; otherwise AmbiguousSolve, never
    a kernel with the unread entries taken as zero."""
    import tatehk.cech as cech
    from tatehk.errors import AmbiguousSolve
    real = cech._centered_int
    monkeypatch.setattr(cech, "_centered_int",
                        lambda coeff: None if coeff.field.e > 1 else real(coeff))
    with pytest.raises(AmbiguousSolve, match="not an integer matrix"):
        compute_tate(JobSpec(5, 20, 2, "s^2 - 5"))
