"""The whole report of a Tate curve against its closed form.

For the Tate curve with r charts over K = Q_p[s]/(f), every entry of the
report is known exactly in lam = -log_q(pi):

    phi = diag(1, p), N_pi = [[0, r], [0, 0]], N_ordp = N_pi / e,
    psi = I + lam N_pi, psi_inv = I - lam N_pi,
    F^1 = (0, 1) in dr coordinates and (-r lam, 1) in hk coordinates,
    h0_phi = 1, h2_phi = p, h2_N = 0, h0_psi = h2_psi = 1.

lam is computed here without the package's logarithm: for q = pi^m v,
lam = log(v^(p-1)) / (m (p-1)), where v^(p-1) is a one-unit (the residue
field is F_p) and its log is the exact Fraction series mod f of
test_plog._exact_log. Every stated digit of every entry is compared with
the exact value, and every stated depth must reach the floor the report
claims: floor_k over K, and floor_k / e over Q_p for the hk entries.
"""

from fractions import Fraction

import pytest

from tatehk.field import FieldDescriptor, parse_eisenstein
from tatehk.padic import PadicContext
from tatehk.pipeline import JobSpec, compute_tate, parse_expansion, render_report

from test_padic import _digit_sum, _exact_pi_val, _exact_times, frac_vp
from test_plog import _exact_log

PREC = 9
EXTRA = 4
# the DIGIT_FIELDS shapes of test_padic, and Q_p itself
SHAPES = (None, "s-{p}", "s+{p}", "s^2-{p}", "s^2+{p}/2*s+{p}", "s^3-{p}",
          "s^3+{pp}*s^2-{p}", "s^3+{p}*s+{p2}", "s^4+{p}*s^3+{p}", "s^4-{p2}")


def _eisenstein(shape, p):
    """The shape at p; False for a shape that is not Eisenstein at p, as
    several are not at p = 2."""
    if shape is None:
        return None
    eis = shape.format(p=p, pp=p * p, p2=2 * p)
    try:
        parse_eisenstein(eis, PadicContext(p, PREC))
    except ValueError:
        return False
    return eis


CASES = [(p, eis) for p in (2, 3, 5, 7) for shape in SHAPES
         if (eis := _eisenstein(shape, p)) is not False]


class _Exact:
    """Exact arithmetic in Q[s]/(f) on coefficient lists of Fractions."""

    def __init__(self, fld: FieldDescriptor):
        self.fld = fld
        c = fld.coeffs
        self.zero = [Fraction(0)] * fld.e
        self.one = [Fraction(1)] + self.zero[1:]
        self.pi = _digit_sum(fld, [0, 1])
        # pi * (pi^(e-1) + c_(e-1) pi^(e-2) + ... + c_1) = -c_0
        self.pi_inv = [-x / c[0] for x in (*c[1:], Fraction(1))]

    def times(self, x, y):
        return _exact_times(self.fld, x, y)

    def add(self, x, y):
        return [a + b for a, b in zip(x, y)]

    def scale(self, k, x=None):
        return [k * c for c in (self.one if x is None else x)]

    def power(self, x, n):
        acc = self.one
        for _ in range(n):
            acc = self.times(acc, x)
        return acc

    def pi_power(self, k):
        return self.power(self.pi if k >= 0 else self.pi_inv, abs(k))

    def stated(self, digits):
        """sum d_k pi^k of parsed digits, k of either sign."""
        if not digits:
            return self.zero
        low = min(digits)
        body = _digit_sum(self.fld, [digits.get(k, 0)
                                     for k in range(low, max(digits) + 1)])
        return self.times(body, self.pi_power(low))

    def val(self, x):
        return _exact_pi_val(self.fld, x) if any(x) else None


def _branches(p, a):
    """(spec, exact q) of the five branch shapes, with exponent a."""
    return [("pi", lambda ex: ex.pi),
            ("p", lambda ex: ex.scale(p)),
            (f"p^{a}*(1+p)", lambda ex: ex.scale(p ** a * (1 + p))),
            (f"pi^{a}*(1+pi)",
             lambda ex: ex.times(ex.pi_power(a), ex.add(ex.one, ex.pi))),
            ("p*(2+pi)", lambda ex: ex.scale(p, ex.add(ex.scale(2), ex.pi)))]


def _lam(job, q):
    """(lam, depth): lam = -log_q(pi) = log(v^(p-1)) / (m (p-1)) for
    q = pi^m v, and the pi-adic depth to which it is exact. The series runs
    EXTRA digits past the job's precision, which covers v_p(m) <= 3."""
    p, e, prec = job.p, job.field.e, job.prec + EXTRA
    deep = parse_eisenstein(job.eisenstein, PadicContext(p, prec)) \
        if job.eisenstein else FieldDescriptor.base(PadicContext(p, prec))
    ex = _Exact(deep)
    m = ex.val(q)
    w = ex.power(ex.times(q, ex.pi_power(-m)), p - 1)
    log_w = _exact_log(deep, ex.add(ex.one, ex.scale(-1, w)))
    scale = Fraction(1, m * (p - 1))
    return ex.scale(scale, log_w), e * prec + 1 + e * frac_vp(scale, p)


def _check(ex, text, exact, floor, known):
    """Every digit of the expansion `text` agrees with `exact`, and its
    stated depth reaches `floor` without passing the oracle's depth."""
    parsed = parse_expansion(text)
    assert parsed is not None, text
    digits, depth = parsed
    assert floor <= depth <= known, (text, floor, known)
    v = ex.val(ex.add(exact, ex.scale(-1, ex.stated(digits))))
    assert v is None or v >= depth, (text, exact)


@pytest.mark.parametrize("p, eisenstein", CASES)
def test_report_matches_the_closed_form(p, eisenstein):
    # three of the five branch shapes per case, in turn, and r in 1..5
    k0 = CASES.index((p, eisenstein))
    branches = _branches(p, 1 + k0 % 3)
    for k in range(k0, k0 + 3):
        spec, make_q = branches[k % 5]
        r = 1 + k % 5
        job = JobSpec(p, PREC, r, eisenstein)
        ex, base = _Exact(job.field), _Exact(FieldDescriptor.base(job.ctx))
        q = make_q(ex)
        if not any(q):
            # p * (2 + pi) = 0 at p = 2 over s + 2
            with pytest.raises(ValueError, match="zero"):
                JobSpec(p, PREC, r, eisenstein, spec)
            continue
        job = JobSpec(p, PREC, r, eisenstein, spec)
        rep = render_report(compute_tate(job))
        e, floor_k, floor_b = job.field.e, job.floor_k, job.floor_b
        lam, known = _lam(job, q)
        r_lam = ex.scale(r, lam)
        zero, one = ex.zero, ex.one

        def k_entry(text, value, depth=e * job.prec):
            _check(ex, text, value, floor_k, depth)

        def b_entry(text, value):
            _check(base, text, [Fraction(value)], floor_b, job.prec)

        mat, fil = rep["matrices"], rep["filtration"]
        k_entry(rep["spec"]["lambda"], lam, known)
        for i in range(2):
            for j in range(2):
                top = (i, j) == (0, 1)
                diag = one if i == j else zero
                b_entry(mat["frobenius"][i][j], (1, 0, 0, p)[2 * i + j])
                b_entry(mat["monodromy_pi"][i][j], r if top else 0)
                k_entry(mat["monodromy_ordp"][i][j],
                        ex.scale(Fraction(r, e)) if top else zero)
                k_entry(mat["psi"][i][j], r_lam if top else diag, known)
                k_entry(mat["psi_inverse"][i][j],
                        ex.scale(-1, r_lam) if top else diag, known)
        b_entry(mat["h0_frobenius"], 1)
        b_entry(mat["h2_frobenius"], p)
        b_entry(mat["h2_monodromy"], 0)
        k_entry(mat["h0_psi"], one)
        k_entry(mat["h2_psi"], one)
        assert len(fil["f1_dr_coords"]) == len(fil["f1_hk_coords"]) == 1
        for text, value in zip(fil["f1_dr_coords"][0], (zero, one)):
            k_entry(text, value)
        for text, value in zip(fil["f1_hk_coords"][0], (ex.scale(-1, r_lam), one)):
            k_entry(text, value, known)
        for key, (ok, depth) in ((key, (c["cocycle_ok"], c["residual_depth"]))
                                 for key, c in rep["classes"].items()):
            assert ok and depth >= (floor_b if key.startswith("hk.") else floor_k), key
        ids = rep["identifications"]
        assert ids["h_ranks_hk"] == ids["h_ranks_dr"] == [1, 2, 1, 0]
        assert (ids["h0_object"], ids["h2_object"]) == ("K(0)", "K(-1)")
        assert ids["weakly_admissible"] and ids["frobenius_monodromy_relation"]
        assert not ids["ranks_tainted"]
