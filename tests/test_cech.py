"""Covering complex tests: overlap map, total differential, standard
classes, certified class arithmetic, and rank estimation."""

import random
from fractions import Fraction

import pytest

import tatehk.cech as cech
from tatehk.cech import (SLACK, BlockIndex, CechCochain, CechSpec, cech_D,
                         cech_frobenius, cech_N, cech_partial, cech_psi,
                         class_e1, class_e2, coboundary_witness,
                         cochain_blocks, express_in_classes, h_ranks,
                         hk_D_rows, operator_int_rows, operator_matrix,
                         top_class, unit_class, _block_h_direct,
                         _hk_solve, _hk_system, _solve_indices)
from tatehk.errors import (AmbiguousPivot, AmbiguousSolve, ChartMismatch,
                           NotACoboundary, NotInSpan, TaintedWindow)
from tatehk.field import FieldDescriptor, KElement, parse_eisenstein
from tatehk.padic import PadicContext, PadicScalar, vp

CTX = PadicContext(3, 12)
QP = FieldDescriptor.base(CTX)
CAP = CTX.prec

RCTX = PadicContext(5, 12)
RAM = parse_eisenstein("s^2 - 5", RCTX)


def hk_spec(r, S=8, T=8, U=3):
    return CechSpec(r, "hk", QP, S=S, T=T, U=U)

def dr_spec(r, S=8, T=8):
    return CechSpec(r, "dr", RAM, S=S, T=T, U=0, point=RAM.pi())


def lift_int(coeff):
    """Centered integer value of an exact base-field scalar."""
    c = coeff.coeffs[0]
    if c.is_zero():
        return 0
    m = c.lift()
    modulus = c.ctx.p ** c.prec
    return m - modulus if m > modulus // 2 else m


def random_cochain(rng, spec, degree, span=3, umax=2):
    c = CechCochain.zero(spec, degree)
    for _ in range(rng.randrange(2, 7)):
        part = rng.choice([p for p, d in (("Z", degree), ("W", degree - 1))
                           if 0 <= d <= 2])
        deg = degree if part == "Z" else degree - 1
        n = rng.randrange(1, spec.r + 1)
        slots = spec.slots(deg)
        if not slots:
            continue
        el = spec.monomial_part(part, n, deg, rng.randrange(0, span),
                                rng.randrange(-span, span + 1),
                                rng.choice(slots),
                                rng.randrange(0, umax + 1) if spec.side == "hk" else 0,
                                spec.field.from_int(rng.randrange(-9, 10)))
        if part == "Z":
            c.zpart[n - 1] = c.zpart[n - 1] + el
        else:
            c.wpart[n - 1] = c.wpart[n - 1] + el
    return c


def test_partial_on_constants():
    spec = hk_spec(3)
    zparts = [spec.monomial_part("Z", n, 0, 0, 0, 0, 0, QP.from_int(n - 1))
              for n in (1, 2, 3)]
    out = cech_partial(spec, zparts)
    vals = [lift_int(el.level(0).coeffs.get((0, 0, 0), QP.zero())) for el in out]
    assert vals == [1, 1, 2]
    # r = 1 wraps onto itself: constants cancel
    spec1 = hk_spec(1)
    out1 = cech_partial(spec1, [spec1.monomial_part("Z", 1, 0, 0, 0, 0, 0,
                                                    QP.from_int(7))])
    assert out1[0].is_zero_at(CAP)


def test_D_squared_vanishes():
    rng = random.Random(83)
    for spec in (hk_spec(1), hk_spec(3), dr_spec(2)):
        floor = spec.cap()
        for degree in (0, 1):
            for _ in range(8):
                c = random_cochain(rng, spec, degree)
                assert cech_D(cech_D(c)).is_zero_at(floor)


def test_standard_classes_are_cocycles():
    for r in (1, 2, 3):
        for spec in (hk_spec(r), dr_spec(r)):
            cap = spec.cap()
            for cls in (unit_class(spec), class_e1(spec), class_e2(spec)):
                image = cech_D(cls)
                assert image.is_zero_at(cap)
                assert image.residual_prec() == cap
                assert not cls.overflow
            top = top_class(spec)
            assert cech_D(top).is_zero_at(cap) and not top.overflow


def test_frobenius_and_monodromy_matrices():
    for r in (1, 2, 3):
        spec = hk_spec(r)
        e1, e2 = class_e1(spec), class_e2(spec)
        f1, _ = express_in_classes(cech_frobenius(e1), [e1, e2])
        f2, _ = express_in_classes(cech_frobenius(e2), [e1, e2])
        assert [lift_int(c) for c in f1] == [1, 0]
        assert [lift_int(c) for c in f2] == [0, 3]
        n1, _ = express_in_classes(cech_N(e1), [e1, e2])
        n2, wit = express_in_classes(cech_N(e2), [e1, e2])
        assert [lift_int(c) for c in n1] == [0, 0]
        assert [lift_int(c) for c in n2] == [r, 0]
        # returned witness really closes the identity N(e2) = r e1 + D(wit)
        check = cech_N(e2) - e1.scale(QP.from_int(r)) - cech_D(wit)
        assert check.is_zero_at(CAP)


def test_unit_and_top_class_operators():
    for r in (1, 2):
        spec = hk_spec(r)
        one = unit_class(spec)
        t = top_class(spec)
        c_one, _ = express_in_classes(cech_frobenius(one), [one])
        assert lift_int(c_one[0]) == 1
        c_top, _ = express_in_classes(cech_frobenius(t), [t])
        assert lift_int(c_top[0]) == 3
        c_n, _ = express_in_classes(cech_N(t), [t])
        assert lift_int(c_n[0]) == 0


def test_psi_at_the_trivial_branch_is_identity():
    # u evaluates to 0, s to pi; over the base field pi = p
    QP5 = FieldDescriptor.base(RCTX)
    hk = CechSpec(2, "hk", QP5, S=8, T=8, U=3)
    dr = CechSpec(2, "dr", QP5, S=8, T=8, U=0, point=QP5.pi())
    lam = QP5.zero()
    e1d, e2d = class_e1(dr), class_e2(dr)
    c1, _ = express_in_classes(cech_psi(class_e1(hk), lam, dr), [e1d, e2d])
    c2, _ = express_in_classes(cech_psi(class_e2(hk), lam, dr), [e1d, e2d])
    assert [lift_int(c) for c in c1] == [1, 0]
    assert [lift_int(c) for c in c2] == [0, 1]
    ct, _ = express_in_classes(cech_psi(top_class(hk), lam, dr), [top_class(dr)])
    assert lift_int(ct[0]) == 1
    # certified at cert_floor = 7, and every coordinate known to pi^10
    assert all(c.cert_prec_pi() >= 10 for c in c1 + c2 + ct)


def test_coboundary_witness_roundtrip():
    rng = random.Random(89)
    for spec in (hk_spec(2), dr_spec(2)):
        floor = spec.cap() - (0 if spec.side == "hk" else 4)
        for _ in range(5):
            y = random_cochain(rng, spec, 0, span=2)
            target = cech_D(y)
            if target.overflow:
                continue
            # the basis sweep may drop edge monomials, so opt in to the
            # truncated-window solve; the residual check below is exact
            wit = coboundary_witness(target, allow_tainted=True)
            assert (cech_D(wit) - target).is_zero_at(floor)


def test_certified_failures():
    spec = hk_spec(2)
    e1, e2 = class_e1(spec), class_e2(spec)
    with pytest.raises(NotACoboundary):
        coboundary_witness(e1)
    with pytest.raises(NotInSpan):
        express_in_classes(e2, [e1])
    with pytest.raises(AmbiguousSolve):
        express_in_classes(e1, [e1, e1.scale(QP.from_int(2))])


def test_tainted_window_is_refused():
    spec = hk_spec(2, S=3, T=3)
    c = CechCochain.zero(spec, 1)
    # nat pushes s^3 v^2 to s^5, outside S = 3
    c.zpart[0] = spec.monomial_part("Z", 1, 1, 3, 2, 0, 0, QP.one())
    target = cech_D(c)
    assert target.overflow
    with pytest.raises(TaintedWindow):
        express_in_classes(target, [top_class(spec)])


def test_h_ranks():
    for r in (1, 2, 3):
        h, tainted = h_ranks(hk_spec(r))
        assert (h[0], h[1], h[2], h[3]) == (1, 2, 1, 0)
        assert not tainted
    for r in (1, 2):
        h, tainted = h_ranks(dr_spec(r))
        assert (h[0], h[1], h[2], h[3]) == (1, 2, 1, 0)
        assert not tainted


def alternating_sums(h):
    """h_d - h_(d-1) + h_(d-2) - ... for each degree d of naive ranks h."""
    out = dict(h)
    for d in (1, 2, 3):
        out[d] -= out[d - 1]
    return out


def h_ranks_over_all_blocks(spec):
    """The rank estimate summed over every weight block, each eliminated
    whole: the computation h_ranks reduces to one piece."""
    out, tainted = {d: 0 for d in range(4)}, False
    for wt in range(-spec.T, spec.T + 1):
        h, idx, t = _block_h_direct(spec, wt)
        if not any(h.values()):
            continue
        tainted = tainted or t
        stable = alternating_sums(h) if spec.side == "hk" else h
        for d in range(4):
            out[d] += stable[d]
    return out, tainted


def test_cohomology_lives_on_one_piece():
    """Off the piece (weight 0, i = 0 on hk; weight 0 on dr) every block is
    acyclic: naive h = 0 by int_echelon on the stencil (hk) and rank_at
    (dr) on every (side, degree, weight, i) block, where only weight 0 is
    split by i, into subcomplexes summing to the whole block. And h_ranks
    on the piece equals the sum over all weight blocks, tainted flag too."""
    qp5 = FieldDescriptor.base(RCTX)
    hk = [hk_spec(r, S=s, T=s, U=U) for r in (1, 2, 3) for s in (3, 5)
          for U in (1, 3)] + [CechSpec(2, "hk", qp5, S=5, T=5, U=3)]
    dr = [dr_spec(r, S=s, T=s) for r in (1, 2, 3) for s in (3, 5)] \
        + [CechSpec(2, "dr", QP, S=3, T=3, U=0, point=QP.pi())]
    for spec in hk + dr:
        levels = range(spec.S + 1) if spec.side == "hk" else (0,)
        for wt in range(-spec.T, spec.T + 1):
            whole, idx, _ = _block_h_direct(spec, wt)
            if wt:
                # levels split weight 0 only: D mixes i elsewhere
                assert [idx[d].keys for d in range(4)] == \
                    [BlockIndex(spec, d, [wt], [0]).keys for d in range(4)]
                assert not any(whole.values()), (spec.side, spec.r, wt)
                continue
            total = {d: 0 for d in range(4)}
            for i in levels:
                h, _, _ = _block_h_direct(spec, 0, [i])
                assert i == 0 or not any(h.values()), (spec.side, spec.r, i)
                total = {d: total[d] + h[d] for d in range(4)}
            assert total == whole
        assert h_ranks(spec) == h_ranks_over_all_blocks(spec), \
            (spec.side, spec.r, spec.S, spec.U)


def test_piece_dims_and_class_systems_on_the_piece():
    """At p=5, r=3, U=3 the piece has dims 12/36/36/12 against 13 times
    that for the whole weight-0 block (S = 12), and the hk class systems of
    Frobenius and monodromy on H^1 index the piece alone."""
    spec = CechSpec(3, "hk", FieldDescriptor.base(RCTX), S=12, T=12, U=3)
    piece = [len(BlockIndex(spec, d, [0], [0])) for d in range(4)]
    assert piece == [12, 36, 36, 12]
    assert [len(BlockIndex(spec, d, [0])) for d in range(4)] == \
        [13 * n for n in piece]
    e1, e2 = class_e1(spec), class_e2(spec)
    for op in (cech_frobenius, cech_N):
        src, tgt = _solve_indices([op(e2)], [e1, e2])
        assert (len(src), len(tgt)) == (12, 36)


def test_h_ranks_refuses_a_failed_premise(monkeypatch):
    """h_ranks raises instead of returning a rank when a block off the
    piece is not certified acyclic."""
    low = FieldDescriptor.base(PadicContext(3, 6))     # floor 1
    for T, ok in ((2, True), (3, False)):
        spec = CechSpec(1, "dr", low, S=T, T=T, U=0, point=low.pi())
        if ok:
            assert h_ranks(spec)[0] == {0: 1, 1: 2, 2: 1, 3: 0}
            continue
        # d(w^3) = 3 w^3 dlog w has valuation 1, not below the floor
        with pytest.raises(AmbiguousPivot, match="j=-3"):
            h_ranks(spec)
    # an hk key off the piece with exponents (0, 0) would have a zero
    # chart column: its block is not known to be acyclic. The scan over the
    # window refuses it; h_ranks needs no scan, as the real exponents never
    # vanish off (0, 0) (the lemma in the cech docstring)
    real = cech._exponents
    monkeypatch.setattr(cech, "_exponents", lambda part, j, i: (0, 0)
                        if (part, j, i) == ("W", 0, 1) else real(part, j, i))
    spec = hk_spec(1, S=3, T=3, U=1)
    with pytest.raises(AmbiguousPivot, match="part W, j=0, i=1"):
        _scan_off_piece(spec, spec.cap() - SLACK)


def _scan_off_piece(spec: CechSpec, floor_pi: int):
    """The premise checked key by key: raise AmbiguousPivot unless every
    (part, j, i) of the window off the piece is acyclic; on hk its exponents
    (a, b) are not (0, 0); on dr d(w^j) = +-j is a pivot certified at
    floor_pi, e v_p(j) below it. cech checked it this way before the lemma."""
    e, p = spec.field.e, spec.field.ctx.p
    levels = range(spec.S + 1) if spec.side == "hk" else (0,)
    for part in ("Z", "W"):
        for j in range(-spec.T, spec.T + 1):
            for i in levels:
                if (j, i) == (0, 0):
                    continue
                if spec.side == "hk":
                    if cech._exponents(part, j, i) != (0, 0):
                        continue
                elif e * vp(j, p) < floor_pi:
                    continue
                raise AmbiguousPivot(
                    f"{spec.side} block at part {part}, j={j}, i={i} is not "
                    f"certified acyclic at the floor {floor_pi}")


def _premise_verdict(check, spec, floor_pi):
    try:
        check(spec, floor_pi)
    except AmbiguousPivot as err:
        return str(err)
    return None


def test_premise_check_matches_the_scan():
    """The one-comparison premise check raises exactly where the key-by-key
    scan does, with the same message, over a grid of windows and floors:
    never on hk, and on dr from T = p^ceil(floor/e) on."""
    fields = [FieldDescriptor.base(PadicContext(p, 8)) for p in (2, 3, 5)]
    fields += [parse_eisenstein(f, PadicContext(p, 8))
               for f, p in (("s^2 - 2", 2), ("s^2 - 3", 3), ("s^3 - 3", 3))]
    refusals = 0
    for fld in fields:
        for T in range(0, 30):
            specs = [CechSpec(1, "dr", fld, S=T, T=T, U=0, point=fld.pi())]
            if fld.e == 1 and T < 12:
                specs += [CechSpec(1, "hk", fld, S=S, T=T, U=1) for S in (0, 1, 5)]
            for spec in specs:
                for floor_pi in range(-1, 3 * fld.e + 2):
                    want = _premise_verdict(_scan_off_piece, spec, floor_pi)
                    got = _premise_verdict(cech._check_acyclic_off_piece, spec, floor_pi)
                    assert got == want, (fld, spec.side, T, floor_pi)
                    refusals += want is not None
    assert refusals > 100


def fraction_rank_kernel(rows, ncols):
    """(rank, kernel basis) over Q of the first ncols columns of sparse
    integer rows, by Gauss-Jordan elimination in Fractions."""
    work = [{j: Fraction(v) for j, v in row.items() if v and j < ncols}
            for row in rows]
    pivots = {}
    for c in range(ncols):
        prow = next((row for row in work if row.get(c)), None)
        if prow is None:
            continue
        work.remove(prow)
        prow = {j: v / prow[c] for j, v in prow.items()}
        for row in work + list(pivots.values()):
            f = row.get(c)
            if f:
                for j, v in prow.items():
                    row[j] = row.get(j, 0) - f * v
                    if not row[j]:
                        del row[j]
        pivots[c] = prow
    kernel = []
    for f in range(ncols):
        if f not in pivots:
            vec = {f: Fraction(1)}
            vec.update({c: -row[f] for c, row in pivots.items() if f in row})
            kernel.append(vec)
    return len(pivots), kernel


def test_block_stable_rank_matches_fraction_oracle():
    """Per weight block and degree, the stable rank, the alternating sum of
    the naive ranks (lemma of h_ranks), is rank([B | Z]) - rank(B): B the
    coboundaries of the window with two more u-levels, Z the kernel of D in
    the window, both from operator_int_rows and eliminated over Q with
    Fractions."""
    for r in (1, 2):
        spec = hk_spec(r, S=3, T=3, U=2)
        big = hk_spec(r, S=3, T=3, U=4)
        seen_nonzero = 0
        for wt in range(-spec.T, spec.T + 1):
            naive, idx, _ = _block_h_direct(spec, wt)
            stable = alternating_sums(naive)
            for d in range(4):
                dim = len(idx[d])
                if not dim:
                    continue
                if d < 3 and len(idx[d + 1]):
                    rows, _ = operator_int_rows(idx[d], idx[d + 1], cech_D)
                    _, kernel = fraction_rank_kernel(rows, dim)
                else:
                    kernel = [{k: Fraction(1)} for k in range(dim)]
                tgt = BlockIndex(big, d, [wt])
                if d:
                    src = BlockIndex(big, d - 1, [wt])
                    rows, _ = operator_int_rows(src, tgt, cech_D)
                    nb = len(src)
                else:
                    rows, nb = [{} for _ in range(len(tgt))], 0
                rank_b, _ = fraction_rank_kernel(rows, nb)
                for t, vec in enumerate(kernel):
                    for k, v in vec.items():
                        rows[tgt.pos[idx[d].keys[k]]][nb + t] = v
                rank_bz, _ = fraction_rank_kernel(rows, nb + len(kernel))
                got = stable[d]
                assert got == rank_bz - rank_b, (r, wt, d)
                seen_nonzero += got > 0
        assert seen_nonzero


def piece_stable_rank_oracle(spec, d):
    """rank(H^d(piece) -> H^d(piece with two more u-levels)) as rank([B | Z])
    - rank(B), B and Z from operator_int_rows, eliminated with Fractions."""
    big = CechSpec(spec.r, "hk", spec.field, S=spec.S, T=spec.T, U=spec.U + 2)
    idx = BlockIndex(spec, d, [0], [0])
    if d < 3:
        rows, _ = operator_int_rows(idx, BlockIndex(spec, d + 1, [0], [0]), cech_D)
        _, kernel = fraction_rank_kernel(rows, len(idx))
    else:
        kernel = [{k: Fraction(1)} for k in range(len(idx))]
    tgt = BlockIndex(big, d, [0], [0])
    if d:
        src = BlockIndex(big, d - 1, [0], [0])
        rows, _ = operator_int_rows(src, tgt, cech_D)
        nb = len(src)
    else:
        rows, nb = [{} for _ in range(len(tgt))], 0
    rank_b, _ = fraction_rank_kernel(rows, nb)
    for t, vec in enumerate(kernel):
        for k, v in vec.items():
            rows[tgt.pos[idx.keys[k]]][nb + t] = v
    return fraction_rank_kernel(rows, nb + len(kernel))[0] - rank_b


def test_h_ranks_lemma_sweep_matches_fraction_oracle():
    """h_ranks' hk ranks, the alternating sums of the naive ranks (the lemma
    in its docstring), equal the stable ranks of the piece computed without
    the lemma, for r = 1..5, U = 0..4 and p in {2, 3, 5}: (1, 2, 1, 0) for
    U >= 1 and (1, 1, 1, 0) at U = 0."""
    for p in (2, 3, 5):
        field = FieldDescriptor.base(PadicContext(p, 12))
        for r in range(1, 6):
            for U in range(5):
                spec = CechSpec(r, "hk", field, S=1, T=1, U=U)
                want = {d: piece_stable_rank_oracle(spec, d) for d in range(4)}
                assert want == ({0: 1, 1: 2, 2: 1, 3: 0} if U else
                                {0: 1, 1: 1, 2: 1, 3: 0}), (p, r, U)
                assert h_ranks(spec) == (want, False), (p, r, U)


def test_spec_refuses_a_negative_window():
    for S, T, U in ((-1, 4, 3), (4, -1, 3), (4, 4, -1), (-1, -1, 3)):
        with pytest.raises(ValueError, match="at least 0"):
            CechSpec(1, "hk", QP, S=S, T=T, U=U)
        with pytest.raises(ValueError, match="at least 0"):
            CechSpec(1, "dr", RAM, S=S, T=T, U=U, point=RAM.pi())


def test_block_index_roundtrip():
    rng = random.Random(97)
    for spec in (hk_spec(2), dr_spec(2)):
        one = [spec.field.one().coeff(i) for i in range(spec.field.e)]
        for degree in (0, 1, 2):
            c = random_cochain(rng, spec, degree)
            blocks = cochain_blocks(c)
            idx = BlockIndex(spec, degree, {wt for wt, _ in blocks})
            vec = idx.vector(c)
            # the blocks are the (weight, i) pairs of the keys the vector uses
            assert blocks == {(idx.keys[k][0], idx.keys[k][3]) for k in vec}
            back = idx.cochain(vec)
            assert (back - c).is_zero_at(spec.cap())
            # every basis cochain reads back as its own unit vector
            for key, k in idx.pos.items():
                unit = idx.vector(idx.basis_cochain(key))
                assert list(unit) == [k]
                assert [unit[k].coeff(i) for i in range(spec.field.e)] == one
    # a cochain outside the indexed weights is rejected
    spec = hk_spec(2)
    idx = BlockIndex(spec, 0, [0])
    stray = CechCochain.zero(spec, 0)
    stray.zpart[0] = spec.monomial_part("Z", 1, 0, 0, 2, 0, 0, QP.one())
    with pytest.raises(ChartMismatch):
        idx.vector(stray)


def test_integer_and_padic_operator_matrices_agree():
    spec = hk_spec(2)
    for wt in (-2, 0, 1):
        src = BlockIndex(spec, 0, [wt])
        tgt = BlockIndex(spec, 1, [wt])
        rows, t1 = operator_int_rows(src, tgt, cech_D)
        mat, t2 = operator_matrix(src, tgt, cech_D)
        assert rows is not None and t1 == t2
        for i in range(len(tgt)):
            for j in range(len(src)):
                assert rows[i].get(j, 0) == lift_int(mat.entry(i, j))
    # the stencil equals cech_D applied to every basis cochain, rows and
    # tainted flag, on every (degree, weight) block; S = T = p overflows
    narrow = hk_spec(2, S=3, T=3)
    for spec in [hk_spec(r, S=5, T=5, U=U) for r in (1, 2, 3) for U in (3, 5)] \
            + [narrow]:
        tainted = {}
        for wt in range(-spec.T, spec.T + 1):
            idx = [BlockIndex(spec, d, [wt]) for d in range(4)]
            for d in range(3):
                rows, t = hk_D_rows(idx[d], idx[d + 1])
                assert (rows, t) == operator_int_rows(idx[d], idx[d + 1], cech_D)
                tainted[wt] = tainted.get(wt, False) or t
                if spec.r == 1 and wt == 0 and d == 0:
                    # nat and twist of a constant cancel on the one W chart
                    col = idx[0].pos[(0, "Z", 1, 0, 0, 0)]
                    assert not any(col in row for row in rows)
        assert not tainted[0] and any(tainted.values())
    # the exact class system [D | classes | target]: embedded into the
    # scalars, its stencil columns are the coboundary matrix that
    # operator_matrix builds, and its class and target columns are the
    # coefficient vectors, entry by entry and at the same precision
    for r in (1, 3):
        spec = hk_spec(r)
        e1, e2 = class_e1(spec), class_e2(spec)
        for target, classes in ((cech_frobenius(e2), [e1, e2]),
                                (cech_frobenius(top_class(spec)), [top_class(spec)])):
            src, tgt, rows, _ = _hk_system([target], classes)
            mat, _ = operator_matrix(src, tgt, cech_D)
            vectors = [tgt.vector(c) for c in (*classes, target)]
            for i, (irow, row) in enumerate(zip(rows, mat.rows)):
                want = dict(row)
                for t, vec in enumerate(vectors):
                    if i in vec and not vec[i].is_prunable_zero():
                        want[len(src) + t] = vec[i]
                assert irow.keys() == want.keys()
                for c, v in want.items():
                    exact = QP.from_int(irow[c])
                    assert (exact - v).is_zero_at(CAP)
                    assert exact.cert_prec_pi() == v.cert_prec_pi()
    # an entry that is not an integer known to the cap refuses the rows:
    # every entry over a ramified field, and an operator scaling by 1/3;
    # tainted still reports the overflow of every column (at i = S on hk)
    third = QP.from_rational(Fraction(1, 3))
    for spec, op in ((dr_spec(2), cech_D),
                     (hk_spec(2), lambda c: cech_D(c).scale(third))):
        src, tgt = BlockIndex(spec, 0, [1]), BlockIndex(spec, 1, [1])
        mat, tainted = operator_matrix(src, tgt, op)
        assert any(mat.rows) and tainted == (spec.side == "hk")
        assert operator_int_rows(src, tgt, op) == (None, tainted)


def test_hk_class_solve_matches_fraction_oracle():
    """Exact hk class solving against Gauss-Jordan in Fractions on the same
    system, built from operator_int_rows and the coefficient vectors: in-span,
    out-of-span and coboundary targets, dependent classes, and degree 0."""
    rng = random.Random(211)
    spec = hk_spec(2, S=3, T=3, U=1)
    seen = set()
    for trial in range(48):
        degree = (0, 1, 2)[trial % 3]
        case = ("in_span", "outside", "dependent", "coboundary")[trial // 3 % 4]
        nclasses = 0 if case == "coboundary" else rng.randrange(1, 3)
        classes = [random_cochain(rng, spec, degree, span=2, umax=1)
                   for _ in range(nclasses)]
        if case == "dependent":
            # a multiple of the last class, modulo a coboundary
            extra = classes[-1].scale(QP.from_int(rng.choice((-2, 3))))
            if degree:
                extra = extra + cech_D(
                    random_cochain(rng, spec, degree - 1, span=2, umax=1))
            classes.append(extra)
        target = random_cochain(rng, spec, degree, span=2, umax=1)
        if case != "outside":
            target = CechCochain.zero(spec, degree)
            for cl in classes:
                target = target + cl.scale(QP.from_int(rng.randrange(-4, 5)))
            if degree:
                target = target + cech_D(
                    random_cochain(rng, spec, degree - 1, span=2, umax=1))
        # the oracle system [D | classes | target]
        weights = {wt for c in (target, *classes)
                   for wt, _ in cochain_blocks(c)}
        tgt = BlockIndex(spec, degree, weights or {0})
        if degree:
            src = BlockIndex(spec, degree - 1, weights or {0})
            rows, _ = operator_int_rows(src, tgt, cech_D)
            nsrc = len(src)
        else:
            rows, nsrc = [{} for _ in range(len(tgt))], 0
        for t, c in enumerate((*classes, target)):
            for i, v in tgt.vector(c).items():
                if lift_int(v):
                    rows[i][nsrc + t] = lift_int(v)
        nb = nsrc + len(classes)
        _, kernel = fraction_rank_kernel(rows, nb + 1)
        # in reduced echelon, a kernel vector's free column is its last one
        free = {max(vec): vec for vec in kernel}
        # exact solve through the package: the internal Fractions and the
        # public entry points. The package indexes only the sub-blocks the
        # system touches (in weight 0, the s-exponents of target and
        # classes); cols and tgt.pos carry its columns and rows to the
        # oracle's, where they are the oracle's rows at those keys, and no
        # other oracle row meets its columns
        gsrc, gtgt, got_rows, _ = _hk_system([target], classes)
        cols = [src.pos[k] for k in (gsrc.keys if degree else ())] \
            + list(range(nsrc, nb + 1))
        lifted = {tgt.pos[key]: {cols[c]: v for c, v in row.items()}
                  for key, row in zip(gtgt.keys, got_rows)}
        for i, row in enumerate(rows):
            assert lifted[i] == row if i in lifted \
                else not set(row) & set(cols)
        gnsrc = len(gsrc or ())
        if nb not in free:
            assert _hk_solve(got_rows, gnsrc, len(classes), 1)[0] is None
            with pytest.raises(NotACoboundary if case == "coboundary" else NotInSpan):
                if case == "coboundary":
                    coboundary_witness(target, allow_tainted=True)
                else:
                    express_in_classes(target, classes, allow_tainted=True)
            seen.add("outside")
            continue
        if any(c in free for c in range(nsrc, nb)):
            with pytest.raises(AmbiguousSolve):
                express_in_classes(target, classes, allow_tainted=True)
            seen.add("dependent")
            continue
        vec = free[nb]
        want_coords = [-vec.get(c, 0) for c in range(nsrc, nb)]
        want_witness = {c: -v for c, v in vec.items() if c < nsrc and v}
        coords, witness = _hk_solve(got_rows, gnsrc, len(classes), 1)[0]
        witness = {cols[c]: v for c, v in witness.items()}
        assert coords == want_coords and witness == want_witness
        # D(witness) + sum_k coords[k] classes[k] - target = 0 exactly
        x = dict(witness)
        x.update({nsrc + t: c for t, c in enumerate(coords)})
        x[nb] = Fraction(-1)
        for row in rows:
            assert sum(v * x.get(j, 0) for j, v in row.items()) == 0
        if case == "coboundary":
            wit = coboundary_witness(target, allow_tainted=True)
            pub = [] if wit is None else list(src.vector(wit).items())
            seen.add("coboundary")
        else:
            pub_coords, wit = express_in_classes(target, classes,
                                                 allow_tainted=True)
            for got, want in zip(pub_coords, want_coords):
                assert same_scalar(got, QP.from_rational(want))
            pub = [] if wit is None else list(src.vector(wit).items())
            seen.add("degree 0" if not degree else "in_span")
        for c, v in pub:
            assert same_scalar(v, QP.from_rational(want_witness.get(c, 0)))
    assert seen == {"outside", "dependent", "coboundary", "degree 0", "in_span"}


def same_scalar(a, b):
    """Equal digits and equal stated precision."""
    return [(c.val, c.unit, c.prec) for c in a.coeffs] == \
        [(c.val, c.unit, c.prec) for c in b.coeffs]


def test_hk_coefficient_below_the_cap_is_refused():
    """An hk class or target coefficient that is not an integer known to the
    cap is refused, never rounded to a nearby integer."""
    spec = hk_spec(2)
    e1, e2 = class_e1(spec), class_e2(spec)
    short = KElement(QP, (PadicScalar.from_int(CTX, 1, prec=CAP - 1),))
    for bad in (short, QP.from_rational(Fraction(1, 3))):
        with pytest.raises(AmbiguousSolve, match="not an integer"):
            express_in_classes(e1.scale(bad), [e1, e2])
        with pytest.raises(AmbiguousSolve, match="not an integer"):
            express_in_classes(e1, [e1.scale(bad), e2])
        with pytest.raises(AmbiguousSolve, match="not an integer"):
            coboundary_witness(e1.scale(bad))


def cochain_digits(c):
    """Every term of a cochain with the digits and stated precision of its
    coefficient."""
    return {key: [(x.val, x.unit, x.prec) for x in v.coeffs]
            for key, v in cech._terms(c)}


@pytest.mark.parametrize("side", ["hk", "dr"])
def test_several_targets_solve_as_each_alone(side):
    """One elimination over a list of targets gives every target what its own
    system gives: coordinates, witness and stated depth, on hk over Q_3 and
    on dr over s^2 - 5. Targets certified outside the span, one of them a
    multiple of the other plus a member, come back as their own None and
    leave the others unchanged."""
    rng = random.Random(19)
    for r in (1, 2, 3):
        spec = hk_spec(r) if side == "hk" else dr_spec(r)
        fld = spec.field
        # on dr every degree-2 cochain is a multiple of top_class plus a
        # coboundary, so only its coboundary system has a target outside
        top = [top_class(spec)] if side == "hk" else []
        for degree, classes in ((0, [unit_class(spec)]),
                                (1, [class_e1(spec), class_e2(spec)]),
                                (1, []), (2, top)):
            def member():
                t = CechCochain.zero(spec, degree)
                for cl in classes:
                    t = t + cl.scale(fld.from_int(rng.randrange(-4, 5)))
                if degree:
                    t = t + cech_D(random_cochain(rng, spec, degree - 1,
                                                  span=2, umax=1))
                return t

            def alone(t):
                return cech._solve([t], classes, True, "class")[0]

            out = next(c for c in (random_cochain(rng, spec, degree, span=2,
                                                  umax=1) for _ in range(20))
                       if alone(c) is None)
            first, second = member(), member()
            if degree == 1 and classes:
                first = cech_frobenius(classes[1]) if side == "hk" else first
            targets = [first, out, second, out.scale(fld.from_int(2)) + first]
            want = [alone(t) for t in targets]
            assert [w is None for w in want] == [False, True, False, True]
            got = cech._solve(targets, classes, True, "class")
            assert [g is None for g in got] == [w is None for w in want]
            for g, w in zip(got, want):
                if w is None:
                    continue
                assert [same_scalar(a, b) for a, b in zip(g[0], w[0])] == \
                    [True] * len(classes)
                assert (g[1] is None) == (w[1] is None) == (degree == 0)
                if w[1] is not None:
                    assert cochain_digits(g[1]) == cochain_digits(w[1])
            with pytest.raises(NotInSpan):
                cech.express_all(targets, classes, allow_tainted=True)


# -- certificates at the floor ----------------------------------------------

FLOOR_FIELD = parse_eisenstein("s^2 - 3", PadicContext(3, 20))


def _e1_plus_pi_power(k):
    """(spec, e1 + pi^k x) on the dr side of r = 2 over s^2 - 3, x the cochain
    with a unit at (0, 'Z', 1, 0, 0, 0): dlog v at j = 0 on the first
    chart, whose D is a unit cochain. So D of the sum has valuation k."""
    fld = FLOOR_FIELD
    spec = CechSpec(2, "dr", fld, S=8, T=8, U=0, point=fld.pi())
    x = BlockIndex(spec, 1, {0}, {0}).basis_cochain((0, "Z", 1, 0, 0, 0))
    assert cech_D(x).residual_prec() == 0
    return spec, class_e1(spec) + x.scale(fld.one().shift(k))


def test_is_cocycle_decides_at_the_floor():
    """A cochain whose D has valuation cert_floor - 1 is no cocycle; one
    whose D has valuation cert_floor is one."""
    floor = cech.cert_floor(FLOOR_FIELD)
    assert floor == 30
    assert cech.is_cocycle(_e1_plus_pi_power(floor - 1)[1]) == (False, floor - 1)
    assert cech.is_cocycle(_e1_plus_pi_power(floor)[1]) == (True, floor)


def test_dr_residual_is_certified_at_the_floor():
    """e1 + pi^k x lies outside the span of e1, e2 modulo coboundaries at
    k = cert_floor - 1 and inside it at k = cert_floor, with coordinates
    (1, 0) there."""
    floor = cech.cert_floor(FLOOR_FIELD)
    spec, target = _e1_plus_pi_power(floor - 1)
    with pytest.raises(NotInSpan):
        express_in_classes(target, [class_e1(spec), class_e2(spec)])
    spec, target = _e1_plus_pi_power(floor)
    coords, _ = express_in_classes(target, [class_e1(spec), class_e2(spec)])
    assert (coords[0] - FLOOR_FIELD.one()).is_zero_at(floor)
    assert coords[1].is_zero_at(floor)


def test_dr_classes_dependent_modulo_coboundaries_are_refused():
    """e1 and e1 + D(x) are one class, so e1 has no canonical coordinates in
    them: the dr solve raises AmbiguousSolve, as the hk solve does."""
    fld = FLOOR_FIELD
    spec = CechSpec(2, "dr", fld, S=8, T=8, U=0, point=fld.pi())
    x = BlockIndex(spec, 0, {0}, {0}).basis_cochain((0, "Z", 1, 0, 0, 0))
    e1 = class_e1(spec)
    with pytest.raises(AmbiguousSolve):
        express_in_classes(e1, [e1, e1 + cech_D(x)])


# -- exact integers over K ------------------------------------------------------


def test_centered_int_reads_integers_over_a_ramified_field():
    """Over s^2 - 5, 1, -1, 0 and 7 read as integers; pi, 1 + pi and an
    element whose pi-coefficient is zero only below the cap do not."""
    one = RAM.one()
    assert [cech._centered_int(x) for x in (one, -one, RAM.zero(), RAM.from_int(7))] \
        == [1, -1, 0, 7]
    low_zero = KElement(RAM, (PadicScalar.from_int(RCTX, 1),
                              PadicScalar.zero(RCTX, RCTX.prec - 2)))
    for x in (RAM.pi(), one + RAM.pi(), low_zero):
        assert cech._centered_int(x) is None


@pytest.mark.parametrize("field", [FieldDescriptor.base(RCTX), RAM], ids=["Q5", "s^2-5"])
def test_dr_piece_differential_reads_as_integers(field):
    """The premise of the exact fiber kernel (pipeline.fiber_one_form_lines):
    on the dr piece, D from degree 1 to 2 reads as integers in {-1, 1} (zero
    at r = 1), and the Z columns come before the W columns."""
    for r in (1, 2, 3):
        spec = CechSpec(r, "dr", field, S=8, T=8, U=0, point=field.pi())
        idx1 = BlockIndex(spec, 1, [0], [0])
        D, _ = cech.block_D(idx1, BlockIndex(spec, 2, [0], [0]))
        assert [key[1] for key in idx1.keys] == ["Z"] * r + ["W"] * r
        values = {cech._centered_int(v) for row in D.rows for v in row.values()}
        assert values == (set() if r == 1 else {-1, 1})
