"""Workloads of the benchmark: seeded inputs, the operation, and its oracle.

Every workload is a closed loop: one caller, one process, each operation
starting when the previous one has ended. Work is planned in passes; a pass
is the unit over which throughput is taken, so that runs of different seeds
cover the same mix of work.

- grid: one op is compute_tate + render_report on a distinct curve: the
  acceptance grid p in {3,5} x r in {1,2,3} at prec 20, plus the ramified
  field, a larger prime and a higher precision. A pass is every curve once,
  in seeded order. The hk h_ranks assembly and the integer elimination in
  cech and linalg do most of the work. No two ops share a curve, so a cache
  across branches is bypassed here.
- branch_sweep: one op is compute_tate + render_report on the single curve
  p=3, r=2, prec 20, with branch point "pi" or a seeded q = p^a * u,
  u = 1 + p*k. Everything except psi and lambda is the same for every
  branch, so this is where sharing the branch-independent part must show.
- identities: one op is one verify_suite call with its own seed, in turn
  kim_hain_algebra, branch_calculus over Q_3 and branch_calculus over a
  ramified quadratic field. These exercise scalar, field, logarithm and
  u-form arithmetic and hardly touch cech or linalg.

This module imports the package under test only inside functions, so that
setup_probe.py can time the import itself.
"""

from __future__ import annotations

import importlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent

GRID = (
    (3, 20, 1, None), (3, 20, 2, None), (3, 20, 3, None),
    (5, 20, 1, None), (5, 20, 2, None), (5, 20, 3, None),
    (5, 20, 2, "s^2 - 5"), (7, 20, 1, None), (5, 30, 2, None),
)
SWEEP_CURVE = (3, 20, 2)
SWEEP_EXPONENTS = (1, 2)          # a coprime to p, so 1/a is a unit
SWEEP_BRANCHES = 2                # seeded branch points per pass, plus "pi"
SUITE_TRIALS = 40
# (suite, parameters, least number of checks per trial); kim_hain_algebra
# skips at most one of its nine identities per trial for window overflow
SUITES = (
    ("kim_hain_algebra", {"p": 3, "prec": 14, "r": 2}, 8),
    ("branch_calculus", {"p": 3, "prec": 20}, 4),
    ("branch_calculus", {"p": 5, "prec": 20, "eisenstein": "s^2 - 5"}, 4),
)
WORKLOADS = ("grid", "branch_sweep", "identities")
SLACK = 5                         # floors sit SLACK digits under prec

# report entries that live over the base field Q_p; all others are over K
BASE_ENTRIES = ("frobenius", "monodromy_pi", "h0_frobenius", "h2_frobenius",
                "h2_monodromy")


def load_package():
    """Import tatehk from the checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        tatehk = importlib.import_module("tatehk")
    except ImportError as ex:
        raise SystemExit(f"cannot import tatehk from {src}: {ex}")
    if Path(tatehk.__file__).resolve().parent != src / "tatehk":
        raise SystemExit(f"tatehk was imported from {tatehk.__file__}, not {src}")
    return tatehk


class Op:
    """One operation: its inputs for the package and its expected outputs.

    field is the ground field of the inputs, built with the inputs so that
    set-up time covers field construction (parse_eisenstein included); the
    op itself does not read it."""

    __slots__ = ("label", "kind", "args", "expect", "field")

    def __init__(self, label, kind, args, expect, field):
        self.label = label
        self.kind = kind
        self.args = args
        self.expect = expect
        self.field = field


def _field(tatehk, p, prec, eisenstein):
    ctx = tatehk.PadicContext(p, prec)
    if eisenstein:
        return tatehk.parse_eisenstein(eisenstein, ctx)
    return tatehk.FieldDescriptor.base(ctx)


def tate_op(tatehk, p, prec, r, eisenstein=None, branch=None):
    """A job and its oracle inputs. branch = (a, u) sets q = p^a * u;
    None is the uniformizer."""
    e = oracle.ramification(eisenstein, p)
    q = "pi" if branch is None else f"p^{branch[0]}*(1+p*{(branch[1] - 1) // p})"
    spec = tatehk.JobSpec(p, prec, r, eisenstein, q)
    expect = {"p": p, "prec": prec, "r": r, "e": e, "branch": branch}
    label = f"p={p} r={r} prec={prec} K={eisenstein or 'Q_p'} q={q}"
    return Op(label, "tate", spec, expect, _field(tatehk, p, prec, eisenstein))


def suite_op(tatehk, name, params, per_trial, seed, trials):
    """A verify_suite call; it must pass with per_trial checks per trial."""
    args = dict(params, seed=seed, trials=trials)
    field = _field(tatehk, params["p"], params["prec"], params.get("eisenstein"))
    return Op(f"{name} {params}", "suite", (name, args),
              {"floor": per_trial * trials}, field)


def plan_pass(tatehk, workload: str, seed: int, index: int) -> list:
    """The ops of pass `index` of a run with this seed."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "grid":
        order = list(GRID)
        rng.shuffle(order)
        return [tate_op(tatehk, *job) for job in order]
    if workload == "branch_sweep":
        p, prec, r = SWEEP_CURVE
        ops = [tate_op(tatehk, p, prec, r)]
        for _ in range(SWEEP_BRANCHES):
            branch = (rng.choice(SWEEP_EXPONENTS), 1 + p * rng.randrange(1, p ** 8))
            ops.append(tate_op(tatehk, p, prec, r, branch=branch))
        rng.shuffle(ops)
        return ops
    if workload == "identities":
        return [suite_op(tatehk, name, params, per_trial,
                         rng.randrange(1, 2 ** 31), SUITE_TRIALS)
                for name, params, per_trial in SUITES]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def warm_up_op(tatehk, workload: str) -> Op:
    """An untimed, unchecked op run before the timed ones, on inputs that no
    timed op uses: it lets lazy set-up inside the interpreter finish."""
    if workload == "identities":
        name, params, per_trial = SUITES[0]
        return suite_op(tatehk, name, params, per_trial, 1, 1)
    return tate_op(tatehk, 3, 12, 1)


def run_op(tatehk, op: Op):
    """The timed operation: only calls into the package."""
    if op.kind == "tate":
        comp = tatehk.compute_tate(op.args)
        return comp, tatehk.render_report(comp)
    name, args = op.args
    return tatehk.verify_suite(name, **args)


def module_rows(comp):
    """Module matrices of a computation as report-style strings."""
    mod = comp.module
    return {name: [[m.entry(i, j).expansion_str() for j in range(m.ncols)]
                   for i in range(m.nrows)]
            for name, m in (("phi", mod.phi), ("n_pi", mod.n_pi))}


def _expansions(node, path=()):
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _expansions(val, path + (key,))
    elif isinstance(node, list):
        for val in node:
            yield from _expansions(val, path)
    elif isinstance(node, str) and "O(pi^" in node:
        yield path, node


def digits_margin(report, prec: int, e: int) -> int:
    """Least (stated depth - prec digits) over every expansion string of a
    report, counting pi-digits of K as 1/e of a p-adic digit."""
    margin = None
    for path, text in _expansions(report):
        _, depth = oracle.read_expansion(text)
        scale = 1 if path[-1] in BASE_ENTRIES else e
        m = depth - scale * prec
        margin = m if margin is None or m < margin else margin
    if margin is None:
        raise oracle.Mismatch("report holds no expansion strings")
    return margin


def check_op(op: Op, output):
    """Raise oracle.Mismatch unless the output agrees with the oracle.

    Returns the report's digits margin for a tate op, None for a suite."""
    if op.kind == "suite":
        name, args = op.args
        res = output
        if res.get("suite") != name or res.get("params", {}).get("seed") != args["seed"]:
            raise oracle.Mismatch(f"{op.label}: result is for another call")
        if res.get("ok") is not True or res.get("failures"):
            raise oracle.Mismatch(f"{op.label}: suite failed {res.get('failures')!r:.200}")
        if res.get("checks", 0) < op.expect["floor"]:
            raise oracle.Mismatch(f"{op.label}: {res.get('checks')} checks, "
                                  f"floor {op.expect['floor']}")
        return None

    x = op.expect
    p, prec, r, e = x["p"], x["prec"], x["r"], x["e"]
    comp, report = output
    floor_b = prec - SLACK
    floor_k = e * floor_b
    mats = report["matrices"]
    where = op.label
    oracle.check_matrix(mats["frobenius"], [[1, 0], [0, p]], p, 1, floor_b,
                        f"{where} frobenius")
    oracle.check_matrix(mats["monodromy_pi"], [[0, r], [0, 0]], p, 1, floor_b,
                        f"{where} monodromy_pi")
    oracle.check_entry(mats["h0_frobenius"], 1, p, 1, floor_b, f"{where} h0_frobenius")
    oracle.check_entry(mats["h2_frobenius"], p, p, 1, floor_b, f"{where} h2_frobenius")
    oracle.check_entry(mats["h2_monodromy"], 0, p, 1, floor_b, f"{where} h2_monodromy")
    # psi = [[1, r log(u) / a], [0, 1]] for q = p^a u (acceptance criterion 3)
    psi01 = 0
    if x["branch"] is not None:
        a, u = x["branch"]
        psi01 = Fraction(r, a) * oracle.log_one_unit(u, p, prec)
    oracle.check_matrix(mats["psi"], [[1, psi01], [0, 1]], p, e, floor_k,
                        f"{where} psi")
    oracle.check_matrix(mats["psi_inverse"], [[1, -psi01], [0, 1]], p, e,
                        floor_k, f"{where} psi_inverse")
    oracle.check_matrix(mats["monodromy_ordp"], [[0, Fraction(r, e)], [0, 0]],
                        p, e, floor_k, f"{where} monodromy_ordp")
    oracle.check_entry(report["spec"]["lambda"], psi01 / r, p, e, floor_k,
                       f"{where} lambda")
    for key in ("h0_psi", "h2_psi"):
        oracle.check_entry(mats[key], 1, p, e, floor_k, f"{where} {key}")
    fil = report["filtration"]
    if fil["gr_dims"] != {"0": 1, "1": 1}:
        raise oracle.Mismatch(f"{where}: gr_dims {fil['gr_dims']!r}")
    # F^1 is the line of e2 in de Rham coordinates, psi^-1 e2 on the hk side
    oracle.check_matrix(fil["f1_dr_coords"], [[0, 1]], p, e, floor_k,
                        f"{where} f1_dr_coords")
    oracle.check_matrix(fil["f1_hk_coords"], [[-psi01, 1]], p, e, floor_k,
                        f"{where} f1_hk_coords")
    module = module_rows(comp)
    oracle.check_matrix(module["phi"], [[1, 0], [0, p]], p, e, floor_k,
                        f"{where} module phi")
    oracle.check_matrix(module["n_pi"], [[0, r], [0, 0]], p, e, floor_k,
                        f"{where} module n_pi")
    classes = {f"{side}.{name}" for side in ("hk", "dr")
               for name in ("unit", "e1", "e2", "top")}
    if set(report["classes"]) != classes:
        raise oracle.Mismatch(f"{where}: classes {sorted(report['classes'])}")
    for key, cert in report["classes"].items():
        if cert.get("cocycle_ok") is not True:
            raise oracle.Mismatch(f"{where}: class {key} not certified")
    ident = report["identifications"]
    want = {"h_ranks_hk": [1, 2, 1, 0], "h_ranks_dr": [1, 2, 1, 0],
            "ranks_tainted": False, "h0_object": "K(0)", "h2_object": "K(-1)",
            "newton_number": "1", "hodge_number": 1,
            "weakly_admissible": True, "frobenius_monodromy_relation": True}
    for key, val in want.items():
        if ident.get(key) != val:
            raise oracle.Mismatch(f"{where}: {key} = {ident.get(key)!r}, oracle {val!r}")
    margin = digits_margin(report, prec, e)
    if margin < 0:
        raise oracle.Mismatch(f"{where}: certifies {-margin} digits fewer than prec")
    return margin
