"""End-to-end jobs for a multiplicatively degenerating curve.

A job fixes the prime, working precision, the chart count r (the curve
parameter is a uniformizer power pi^r times a unit), an optional
Eisenstein polynomial cutting out the ground field, and a branch point q
for the logarithm. The run certifies the standard cohomology classes on
both sides of the comparison, extracts Frobenius, monodromy and the
branch period matrix by expressing operator images in the class basis,
locates the one-form line of the fiber, assembles the filtered module
and renders everything into a deterministic JSON-ready report.

Verification suites re-derive key identities from scratch on randomized
data; they are what the `verify` command runs.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from .cech import (SLACK, CechSpec, cech_frobenius, cech_N, cech_psi, cert_floor,
                   class_e1, class_e2, dr_window_bound, express_all,
                   fiber_one_form_lines, h_ranks, is_cocycle, top_class, unit_class)
from .charts import _CHART_SLOTS, ChartElement
from .field import FieldDescriptor, k_teichmuller, parse_eisenstein
from .kimhain import UForm
from .linalg import PrecMatrix
from .padic import PadicContext
from .phin import (FilteredPhiNModule, branch_transition, embed_matrix,
                   exp_unipotent, matrix_inverse, matrix_same_at)
from .plog import LogBranch, branch_from_spec

# the package version: tatehk.__version__, and meta.version of every report
_VERSION = "0.1.0"


class JobSpec:
    """Parameters of one run; windows default to S = T = 2p + 2, U = 3.

    The p-adic context, the ground field and the log branch are built here,
    so that bad input fails with ValueError before any work starts.
    floor_b and floor_k are the certificate floors (cech.cert_floor) over
    the base field and over K."""

    __slots__ = ("p", "prec", "r", "eisenstein", "q", "S", "T", "U",
                 "floor_b", "floor_k", "ctx", "field", "branch")

    def __init__(self, p: int, prec: int, r: int, eisenstein: str | None = None,
                 q: str = "pi", S: int | None = None, T: int | None = None,
                 U: int = 3):
        ctx = PadicContext(p, prec)
        if prec < 8:
            raise ValueError("working precision below 8 leaves no room to certify")
        if r < 1:
            raise ValueError("need r >= 1 charts")
        if U < 1:
            raise ValueError("divided-power cap U must be >= 1: the class e2 "
                             "carries u^[1]")
        self.p = p
        self.prec = prec
        self.r = r
        self.eisenstein = eisenstein
        self.q = q
        self.S = 2 * p + 2 if S is None else S
        self.T = 2 * p + 2 if T is None else T
        self.U = U
        if self.T < p or self.S < p:
            raise ValueError("windows must at least contain the Frobenius image "
                             "of the class monomials")
        self.ctx = ctx
        self.field = parse_eisenstein(eisenstein, ctx) if eisenstein \
            else FieldDescriptor.base(ctx)
        self.floor_b = cert_floor(FieldDescriptor.base(ctx))
        self.floor_k = cert_floor(self.field)
        bound = dr_window_bound(p, self.floor_k, self.field.e)
        if self.T >= bound:
            raise ValueError(f"window T = {self.T} must stay below "
                             f"p^(prec - {SLACK}) = {bound}, or a de Rham "
                             "block off weight 0 is not certified acyclic")
        self.branch = branch_from_spec(self.field, q)

    def widened(self) -> "JobSpec":
        """This job at windows S + 4, T + 4, U + 1: the truncation suite's."""
        return JobSpec(self.p, self.prec, self.r, self.eisenstein, self.q,
                       self.S + 4, self.T + 4, self.U + 1)


class TateComputation:
    """All objects produced by one run, before report rendering."""

    __slots__ = ("job", "field", "base", "hk", "dr", "branch", "lam",
                 "hk_classes", "dr_classes", "cocycle_cert",
                 "phi", "n_pi", "psi", "psi_inv",
                 "h0_phi", "h2_phi", "h2_n", "h0_psi", "h2_psi",
                 "fil_dr", "fil_hk", "module",
                 "ranks_hk", "ranks_dr", "ranks_tainted")


def _in_basis(ops, sources, classes) -> list:
    """One matrix per op, column k the coordinates of op(sources[k]) in the
    classes; all the images are targets of one class system."""
    n, field = len(sources), classes[0].spec.field
    cols = [c for c, _ in express_all([op(s) for op in ops for s in sources], classes)]
    return [PrecMatrix.from_rows(field, list(zip(*cols[k:k + n])))
            for k in range(0, len(cols), n)]


def compute_tate(job: JobSpec) -> TateComputation:
    field = job.field
    base = FieldDescriptor.base(job.ctx)
    out = TateComputation()
    out.job = job
    out.field = field
    out.base = base
    out.hk = CechSpec(job.r, "hk", base, job.S, job.T, job.U)
    out.dr = CechSpec(job.r, "dr", field, job.S, job.T, 0, point=field.pi())
    out.branch = job.branch
    out.lam = -out.branch.log_pi()

    e1h, e2h = class_e1(out.hk), class_e2(out.hk)
    unith, toph = unit_class(out.hk), top_class(out.hk)
    e1d, e2d = class_e1(out.dr), class_e2(out.dr)
    unitd, topd = unit_class(out.dr), top_class(out.dr)
    out.hk_classes = {"unit": unith, "e1": e1h, "e2": e2h, "top": toph}
    out.dr_classes = {"unit": unitd, "e1": e1d, "e2": e2d, "top": topd}
    out.cocycle_cert = {}
    for side, table in (("hk", out.hk_classes), ("dr", out.dr_classes)):
        for name, cls in table.items():
            out.cocycle_cert[f"{side}.{name}"] = is_cocycle(cls)

    # one class system per (side, degree)
    h1h, h1d = [e1h, e2h], [e1d, e2d]
    out.phi, out.n_pi = _in_basis([cech_frobenius, cech_N], h1h, h1h)
    out.h0_phi = _in_basis([cech_frobenius], [unith], [unith])[0].entry(0, 0)
    h2_phi, h2_n = _in_basis([cech_frobenius, cech_N], [toph], [toph])
    out.h2_phi, out.h2_n = h2_phi.entry(0, 0), h2_n.entry(0, 0)

    def psi(cls):
        return cech_psi(cls, out.lam, out.dr)

    out.h0_psi = _in_basis([psi], [unith], [unitd])[0].entry(0, 0)
    out.h2_psi = _in_basis([psi], [toph], [topd])[0].entry(0, 0)
    out.fil_dr, psi_cols = fiber_one_form_lines(out.dr, h1d,
                                                [psi(c) for c in h1h])
    out.psi = PrecMatrix.from_rows(field, list(zip(*psi_cols)))
    out.psi_inv = matrix_inverse(out.psi)
    out.fil_hk = []
    for coords in out.fil_dr:
        vec = out.psi_inv.apply_to(dict(enumerate(coords)))
        out.fil_hk.append([vec.get(i, field.zero()) for i in range(2)])

    phi_k = embed_matrix(out.phi, field)
    n_k = embed_matrix(out.n_pi, field)
    one, zero = field.one(), field.zero()
    filtration = {0: [[one, zero], [zero, one]]}
    if out.fil_hk:
        filtration[1] = out.fil_hk
    out.module = FilteredPhiNModule(field, phi_k, n_k, filtration)

    out.ranks_hk = h_ranks(out.hk)
    out.ranks_dr = h_ranks(out.dr)
    out.ranks_tainted = False   # no D of the piece leaves the window (h_ranks)
    return out


# -- report rendering ----------------------------------------------------------


def _fmt_matrix(m: PrecMatrix):
    return [[m.entry(i, j).expansion_str() for j in range(m.ncols)]
            for i in range(m.nrows)]


def render_report(comp: TateComputation) -> dict:
    job = comp.job
    field = comp.field
    floor_k = cert_floor(field)
    mod = comp.module
    # K(0) has Frobenius 1, and K(-1) has Frobenius p
    h0_ok = (field.from_coeff(comp.h0_phi.coeff(0)).same_at(field.one(), floor_k)
             and comp.cocycle_cert["hk.unit"][0])
    h2_ok = (field.from_coeff(comp.h2_phi.coeff(0)).same_at(field.from_int(job.p), floor_k)
             and comp.h2_n.is_zero_at(cert_floor(comp.base)))
    report = {
        "spec": {
            "p": job.p,
            "prec": job.prec,
            "r": job.r,
            "eisenstein": field.poly_str(),
            "ramification": field.e,
            "q_branch": comp.branch.label,
            "lambda": comp.lam.expansion_str(),
        },
        "windows": {"S": job.S, "T": job.T, "U": job.U},
        "classes": {
            key: {"cocycle_ok": ok, "residual_depth": depth}
            for key, (ok, depth) in sorted(comp.cocycle_cert.items())
        },
        "matrices": {
            "frobenius": _fmt_matrix(comp.phi),
            "monodromy_pi": _fmt_matrix(comp.n_pi),
            "monodromy_ordp": _fmt_matrix(mod.n_ordp()),
            "psi": _fmt_matrix(comp.psi),
            "psi_inverse": _fmt_matrix(comp.psi_inv),
            "h0_frobenius": comp.h0_phi.expansion_str(),
            "h2_frobenius": comp.h2_phi.expansion_str(),
            "h2_monodromy": comp.h2_n.expansion_str(),
            "h0_psi": comp.h0_psi.expansion_str(),
            "h2_psi": comp.h2_psi.expansion_str(),
        },
        "filtration": {
            "jumps": {str(s): len(basis) for s, basis in mod.filtration.items()},
            "gr_dims": {str(s): d for s, d in mod.gr_dims().items()},
            "f1_dr_coords": [[v.expansion_str() for v in vec] for vec in comp.fil_dr],
            "f1_hk_coords": [[v.expansion_str() for v in vec] for vec in comp.fil_hk],
        },
        "identifications": {
            "h_ranks_hk": [comp.ranks_hk[d] for d in range(4)],
            "h_ranks_dr": [comp.ranks_dr[d] for d in range(4)],
            "ranks_tainted": comp.ranks_tainted,
            "h0_object": "K(0)" if h0_ok else "unidentified",
            "h2_object": "K(-1)" if h2_ok else "unidentified",
            "newton_number": str(mod.newton_number()),
            "hodge_number": mod.hodge_number(),
            "weakly_admissible": mod.is_weakly_admissible_numerically(),
            "frobenius_monodromy_relation": mod.check_relation(floor_k),
        },
        "suites": {},
        "meta": {
            "package": "tatehk",
            "version": _VERSION,
            "floor_pi": floor_k,
            "cap_pi": field.e * job.prec,
            "report_format": 1,
        },
    }
    return report


def run_tate_job(job: JobSpec, suites=()) -> dict:
    """The report of job with the named suites run at its p, prec, r and
    field; every suite is checked (check_suite_args) before the job runs."""
    for name in suites:
        check_suite_args(name, job.p, job.prec, job.r, job.eisenstein)
    report = render_report(compute_tate(job))
    for name in suites:
        report["suites"][name] = verify_suite(name, p=job.p, prec=job.prec,
                                              r=job.r, eisenstein=job.eisenstein)
    return report


# -- verification suites -------------------------------------------------------


def _random_uform(rng, field, r, kind, n, degree, S, T, U):
    """Sum of three random monomials: s-exponent up to max(1, S // 4),
    |j| up to max(1, T // 4) (j >= 0 on W), u-order up to 1."""
    total = UForm.zero(field, r, kind, n, degree, S, T, U)
    slots = _CHART_SLOTS[degree]
    imax, jmax = max(1, S // 4), max(1, T // 4)
    for _ in range(3):
        i = rng.randrange(0, imax + 1)
        j = rng.randrange(-jmax, jmax + 1)
        if kind == "W":
            j = abs(j)
        u = rng.randrange(0, 2)
        slot = rng.choice(slots)
        coeff = field.from_int(rng.randrange(-9, 10))
        el = ChartElement.monomial(field, r, kind, n, degree, S, T, i, j,
                                   slot, coeff)
        total = total + UForm.from_chart(el, U, u)
    return total


def _suite_result(name, params, failures, checks):
    return {"suite": name, "params": params, "checks": checks,
            "failures": failures, "ok": not failures}


def _suite_kim_hain(p, prec, r, eisenstein, seed, trials):
    job = JobSpec(p, prec, r, eisenstein)   # the windows check_suite_args checks
    field = FieldDescriptor.base(job.ctx)
    rng = random.Random(seed)
    S, T, U = job.S, job.T, job.U
    cap = prec
    failures = []
    checks = 0
    skipped = 0
    trials = trials or 40
    p_scalar = field.from_int(p)
    for t in range(trials):
        kind = rng.choice(("Z", "W"))
        n = rng.randrange(1, r + 1)
        x = _random_uform(rng, field, r, kind, n, 0, S, T, U)
        y = _random_uform(rng, field, r, kind, n, 0, S, T, U)
        z = _random_uform(rng, field, r, kind, n, 0, S, T, U)
        w = _random_uform(rng, field, r, kind, n, 1, S, T, U)
        xy, xd, xn, xf, wd = x.mul(y), x.d(), x.N(), x.frobenius(), w.d()
        residuals = {
            "d_squared": xd.d(),
            "w_d_squared": wd.d(),
            "leibniz": xy.d() - (xd.mul(y) + x.mul(y.d())),
            "n_derivation": xy.N() - (xn.mul(y) + x.mul(y.N())),
            "nd_commute": wd.N() - w.N().d(),
            "frobenius_twist": xf.N() - xn.frobenius().scale(p_scalar),
            "frobenius_ring": xy.frobenius() - xf.mul(y.frobenius()),
            "frobenius_chain": w.frobenius().d() - wd.frobenius(),
            "associativity": xy.mul(z) - x.mul(y.mul(z)),
        }
        for label, res in residuals.items():
            if res.overflow:
                # a route left the monomial window; identities are only
                # certified on in-window data
                skipped += 1
                continue
            checks += 1
            if not res.is_zero_at(cap):
                failures.append(f"trial {t}: {label}")
    return _suite_result("kim_hain_algebra",
                         {"p": p, "prec": prec, "r": r, "seed": seed,
                          "trials": trials, "skipped": skipped},
                         failures, checks)


def _suite_branch_calculus(p, prec, r, eisenstein, seed, trials):
    ctx = PadicContext(p, prec)
    field = parse_eisenstein(eisenstein, ctx) if eisenstein \
        else FieldDescriptor.base(ctx)
    rng = random.Random(seed)
    floor = field.e * (prec - 3)
    failures = []
    checks = 0
    trials = trials or 30

    def random_unit():
        return field.one() + field.pi() * field.from_int(
            rng.randrange(1, p ** (prec - 2)))

    for t in range(trials):
        a = rng.randrange(1, 4)
        q = field.pi() ** a * random_unit()
        b = LogBranch(field, q)
        checks += 1
        if not b.log(q).is_zero_at(floor):
            failures.append(f"trial {t}: log_q(q) != 0")
        x = field.pi() ** rng.randrange(0, 3) * random_unit()
        y = field.pi() ** rng.randrange(0, 3) * random_unit()
        log_x = b.log(x)
        checks += 1
        if not (b.log(x * y) - log_x - b.log(y)).is_zero_at(floor):
            failures.append(f"trial {t}: log not additive")
        tw = k_teichmuller(field.from_int(rng.randrange(1, p)))
        checks += 1
        if not b.log(tw).is_zero_at(floor):
            failures.append(f"trial {t}: log of a root of unity != 0")
        q2 = field.pi() ** rng.randrange(1, 4) * random_unit()
        b2 = LogBranch(field, q2)
        ax = x.ord_pi()
        checks += 1
        lhs = log_x - b2.log(x)
        rhs = (b.log_pi() - b2.log_pi()) * field.from_int(ax)
        if not (lhs - rhs).is_zero_at(floor):
            failures.append(f"trial {t}: branches disagree off the uniformizer")
    return _suite_result("branch_calculus",
                         {"p": p, "prec": prec, "eisenstein": eisenstein,
                          "seed": seed, "trials": trials}, failures, checks)


def _suite_choice_of_pi(p, prec, r, eisenstein, seed, trials):
    """psi transitions between the branch points q in {pi, p, p(1+p), p^2(1+p)}."""
    specs = ["pi", "p", "p*(1+p)", "p^2*(1+p)"]
    runs = {q: compute_tate(JobSpec(p, prec, r, eisenstein, q)) for q in specs}
    failures = []
    checks = 0
    floor = cert_floor(runs["pi"].field)
    for qa in specs:
        for qb in specs:
            if qa == qb:
                continue
            ca, cb = runs[qa], runs[qb]
            factor = branch_transition(ca.module, ca.branch, cb.branch)
            checks += 1
            if not matrix_same_at(cb.psi, ca.psi.matmul(factor), floor):
                failures.append(f"psi transition fails for {qa} -> {qb}")
            # same identity written with the inverse factor
            c = ca.branch.log(cb.branch.q) * ca.field.from_rational(
                Fraction(ca.field.e, cb.branch.m))
            inv = exp_unipotent(ca.module.n_ordp(), -c)
            checks += 1
            if not matrix_same_at(ca.psi, cb.psi.matmul(inv), floor):
                failures.append(f"inverse transition fails for {qa} -> {qb}")
    return _suite_result("choice_of_pi",
                         {"p": p, "prec": prec, "r": r,
                          "eisenstein": eisenstein, "seed": seed},
                         failures, checks)


def _suite_base_change(p, prec, r, eisenstein, seed, trials):
    eis = eisenstein or f"s^2 - {p}"
    bigfield = parse_eisenstein(eis, PadicContext(p, prec))
    ell = bigfield.e
    small = compute_tate(JobSpec(p, prec, 1, None, "pi"))
    moved = small.module.base_change(bigfield)
    big = compute_tate(JobSpec(p, prec, ell, eis, "pi"))
    floor = cert_floor(bigfield)
    failures = []
    checks = 3
    if not matrix_same_at(moved.phi, big.module.phi, floor):
        failures.append("frobenius changes under base change")
    if not matrix_same_at(moved.n_pi, big.module.n_pi, floor):
        failures.append("pi-normalized monodromy mismatch")
    if not matrix_same_at(moved.n_ordp(), big.module.n_ordp(), floor):
        failures.append("ord_p-normalized monodromy not invariant")
    return _suite_result("base_change",
                         {"p": p, "prec": prec, "eisenstein": eis,
                          "ell": ell}, failures, checks)


def _suite_truncation_stability(p, prec, r, eisenstein, seed, trials):
    job = JobSpec(p, prec, r, eisenstein, "p")
    comp = compute_tate(job)
    wide = compute_tate(job.widened())
    failures = []
    checks = 5
    for name in ("phi", "n_pi", "psi"):
        a, b = getattr(comp, name), getattr(wide, name)
        if not matrix_same_at(a, b, cert_floor(a.field)):
            failures.append(f"{name} moved when the windows grew")
    if comp.ranks_hk != wide.ranks_hk:
        failures.append("hk ranks moved when the windows grew")
    if comp.ranks_dr != wide.ranks_dr:
        failures.append("dr ranks moved when the windows grew")
    return _suite_result("truncation_stability",
                         {"p": p, "prec": prec, "r": r,
                          "eisenstein": eisenstein}, failures, checks)


_SUITES = {
    "kim_hain_algebra": _suite_kim_hain,
    "branch_calculus": _suite_branch_calculus,
    "choice_of_pi": _suite_choice_of_pi,
    "base_change": _suite_base_change,
    "truncation_stability": _suite_truncation_stability,
}


def suite_names():
    return sorted(_SUITES)


def verify_suite(name: str, p: int = 3, prec: int = 14, r: int = 2,
                 eisenstein: str | None = None, seed: int = 1,
                 trials: int | None = None) -> dict:
    """Run one verification suite; trials=None keeps the suite's default.

    A bad name or parameters raise ValueError before it starts."""
    check_suite_args(name, p, prec, r, eisenstein, trials)
    return _SUITES[name](p, prec, r, eisenstein, seed, trials)


def check_suite_args(name: str, p: int, prec: int, r: int,
                     eisenstein: str | None = None, trials: int | None = None):
    """ValueError unless name is a suite, trials is None or >= 1, and every
    job the suite builds passes the JobSpec checks. JobSpec(p, prec, r,
    eisenstein) stands for those at the default windows, as T's bound rests
    on p and prec alone; the truncation suite's widened job is built too."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    if trials is not None and trials < 1:
        raise ValueError("need trials >= 1")
    job = JobSpec(p, prec, r, eisenstein)
    if name == "truncation_stability":
        try:
            job.widened()
        except ValueError as err:
            raise ValueError(f"suite {name}: {err}") from None


# -- report comparison ---------------------------------------------------------

_O_TAIL = re.compile(r"O\(pi\^(-?\d+)\)$")
_SHIFT = re.compile(r"^pi\^(-?\d+)\*\((.*)\)$")


def parse_expansion(s: str):
    """Digits and stated depth of an expansion string, or None."""
    if not isinstance(s, str):
        return None
    text = s.strip()
    shift = 0
    m = _SHIFT.match(text)
    if m:
        shift = int(m.group(1))
        text = m.group(2).strip()
    mo = _O_TAIL.search(text)
    if mo is None:
        return None
    depth = int(mo.group(1)) + shift
    body = text[:mo.start()].strip()
    if body.endswith("+"):
        body = body[:-1].strip()
    digits = {}
    if body:
        for term in body.split("+"):
            term = term.strip()
            if not term:
                return None
            m2 = re.fullmatch(r"(\d+)", term)
            m3 = re.fullmatch(r"(?:(\d+)\*)?pi(?:\^(\d+))?", term)
            if m2:
                digits[shift] = int(m2.group(1))
            elif m3:
                c = int(m3.group(1)) if m3.group(1) else 1
                k = int(m3.group(2)) if m3.group(2) else 1
                digits[k + shift] = c
            else:
                return None
    return digits, depth


def _values_differ(a, b) -> bool:
    ea, eb = parse_expansion(a), parse_expansion(b)
    if ea is not None and eb is not None:
        depth = min(ea[1], eb[1])
        positions = set(ea[0]) | set(eb[0])
        return any(ea[0].get(k, 0) != eb[0].get(k, 0)
                   for k in positions if k < depth)
    return a != b


def report_diff(a, b, path: str = "") -> list:
    """Differences between two reports, comparing expansion strings only
    up to the smaller stated depth. Empty list means agreement."""
    diffs = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{path}/{key}"
            if key not in a:
                diffs.append({"path": sub, "a": None, "b": b[key]})
            elif key not in b:
                diffs.append({"path": sub, "a": a[key], "b": None})
            else:
                diffs.extend(report_diff(a[key], b[key], sub))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append({"path": path, "a": f"list of {len(a)}",
                          "b": f"list of {len(b)}"})
        else:
            for k, (xa, xb) in enumerate(zip(a, b)):
                diffs.extend(report_diff(xa, xb, f"{path}/{k}"))
    else:
        if type(a) is not type(b) and not (isinstance(a, str) and isinstance(b, str)):
            diffs.append({"path": path, "a": a, "b": b})
        elif _values_differ(a, b):
            diffs.append({"path": path, "a": a, "b": b})
    return diffs
