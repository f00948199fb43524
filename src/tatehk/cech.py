"""Covering complex of the length-r chart polygon and its cohomology.

Cochains live on the two-chart-type cover: degree k holds Z-chart forms of
degree k together with W-chart forms of degree k-1 (the overlap data). The
total differential combines the chart differential d with the overlap map

    partial(eta)_n = twist(eta_{n+1}) - nat(eta_n)   (n < r)
    partial(eta)_r = nat(eta_r) - twist(eta_1)

so that D0(f) = (df, partial f), D1(a, b) = (da, db - partial a) and
D2(a, b) = db + partial a, with D compose D = 0 exactly.

Two sides share the machinery: the "hk" side uses divided-power u-forms
over the base scalars, the "dr" side uses fiber forms at a chosen point.

Everything splits over the weight grading (weight of a Z monomial is -j,
of a W monomial +j; all the structure maps are weight-homogeneous), which
keeps the linear algebra per weight block small. In weight 0 the
differential also keeps the s-exponent i (nat and twist send s^i to s^i),
so the weight-0 block splits further into one subcomplex per i.

Only one piece carries cohomology: weight 0 with i = 0 on the hk side,
weight 0 on the dr side. Every key off it is a monomial v^a w^b with
(a, b) != (0, 0); filtered by u-order, its chart column is the Koszul
complex of (a, b) on {dlog v, dlog w}, acyclic over Q, and a two-column
Cech complex with acyclic columns is acyclic, in any window (the chart d
keeps (i, j), and the u-cap cuts a subcomplex). On the dr side d(w^j) =
+-j for j != 0. So h_ranks eliminates the piece alone, and class systems
index only the sub-blocks their target and classes touch.

The premise costs one comparison. On hk it is a lemma: the exponents of
key (i, j) are (i + max(j, 0), i + max(-j, 0)) on Z and (i, i + j) on W,
and for i >= 0 both vanish only at (j, i) = (0, 0), so it holds in every
window. On dr the pivot +-j is certified at the floor while e v_p(j) stays
below it, so the premise fails exactly when the window reaches
j = p^ceil(floor/e), i.e. T >= dr_window_bound(p, floor, e).

Each rule of the chart complex has one definition, read by the chart
and u-form operators and by the stencil below alike: the exponents (a, b)
of v^a w^b (charts._vw_exponents, imported here as _exponents), the slots
per degree (charts._CHART_SLOTS), the chart d of one monomial
(charts._chart_d), the slot map of the twist (charts._TWIST_SLOTS) and
the u-tail of d (kimhain.U_TAIL).
Cochains and block coordinates meet in one place: _terms reads a
cochain's terms as block keys (for BlockIndex.vector and cochain_blocks),
and BlockIndex.cochain writes coordinates back (basis_cochain included).

On the hk side every structure constant of D is a small integer, so its
matrix between two block bases is a fixed stencil: hk_D_rows writes it
straight from the basis keys, for exact integer elimination (int_rank_sparse
counts the ranks of the piece, and the echelon of a class system gives its
coordinates and witnesses). operator_int_rows, which is operator_matrix
(cech_D applied to every basis cochain) read as integers, is kept as the
oracle the stencil is tested against. block_D builds D (stencil or
operator_matrix) once per spec and block, for h_ranks, the class systems
and the fiber lines. All targets of one degree share one class system, a
column each: on hk one exact echelon of [stencil | classes | targets] over
Q, so coordinates and witnesses are exact rationals; on dr one elimination
over the scalars, each residual certified at cert_floor(field).
"""

from __future__ import annotations

from fractions import Fraction

from .charts import (_CHART_SLOTS, _FIBER_SLOTS, _TWIST_SLOTS, ChartElement,
                     FiberElement, _chart_d, _vw_exponents as _exponents)
from .errors import (AmbiguousPivot, AmbiguousSolve, ChartMismatch,
                     NotACoboundary, NotInSpan, TaintedWindow)
from .field import FieldDescriptor, KElement
from .kimhain import U_TAIL, UForm
from .linalg import (PrecMatrix, _back_substitute, _solve_echelon, int_echelon,
                     int_rank_sparse, rank_at)

# certificate floors sit SLACK digits under the working precision
SLACK = 5
# form degree of the Z-part and W-part of a cochain of each total degree
_ZDEG = {0: 0, 1: 1, 2: 2, 3: None}
_WDEG = {0: None, 1: 0, 2: 1, 3: 2}


def cert_floor(field: FieldDescriptor) -> int:
    """The pi-adic floor of every certificate over field: e * (prec - SLACK)."""
    return field.e * (field.ctx.prec - SLACK)


class CechSpec:
    """Shape of the covering complex: chart count, side, scalars, windows."""

    __slots__ = ("r", "side", "field", "S", "T", "U", "point", "d_table")

    def __init__(self, r: int, side: str, field: FieldDescriptor,
                 S: int, T: int, U: int = 0, point: KElement | None = None):
        if r < 1:
            raise ValueError("need at least one chart")
        if side not in ("hk", "dr"):
            raise ValueError("side must be 'hk' or 'dr'")
        if min(S, T, U) < 0:
            raise ValueError("windows S, T and U must be at least 0")
        if side == "hk" and field.e != 1:
            raise ValueError("hk side works over the base scalars")
        if side == "dr":
            if point is None or point.field != field:
                raise ValueError("dr side needs a specialization point in its field")
            if point.ord_pi() < 1:
                raise ValueError("specialization point must have positive valuation")
        self.r = r
        self.side = side
        self.field = field
        self.S = S
        self.T = T
        self.U = U
        self.point = point
        self.d_table = {}   # D between block indices, filled by block_D

    def __eq__(self, other):
        if not isinstance(other, CechSpec):
            return NotImplemented
        if (self.r, self.side, self.field, self.S, self.T, self.U) != \
                (other.r, other.side, other.field, other.S, other.T, other.U):
            return False
        return self.point is other.point or self.side == "hk" or \
            (self.point - other.point).is_zero()

    # -- element factories -------------------------------------------------

    def zero_part(self, part: str, n: int, degree: int):
        if self.side == "hk":
            return UForm.zero(self.field, self.r, part, n, degree,
                              self.S, self.T, self.U)
        kind = "XF" if part == "Z" else "WF"
        return FiberElement.zero(self.field, self.r, kind, n, degree, self.T)

    def monomial_part(self, part: str, n: int, degree: int, i: int, j: int,
                      slot: int, u: int, coeff: KElement):
        if self.side == "hk":
            el = ChartElement.monomial(self.field, self.r, part, n, degree,
                                       self.S, self.T, i, j, slot, coeff)
            return UForm.from_chart(el, self.U, u)
        kind = "XF" if part == "Z" else "WF"
        return FiberElement.monomial(self.field, self.r, kind, n, degree,
                                     self.T, j, slot, coeff)

    def nat(self, el):
        if self.side == "hk":
            return el.restrict_nat()
        return el.restrict_nat(self.point)

    def twist(self, el, target_n: int):
        if self.side == "hk":
            return el.restrict_twist(target_n)
        return el.restrict_twist(target_n, self.point)

    def slots(self, degree: int):
        table = _CHART_SLOTS if self.side == "hk" else _FIBER_SLOTS
        return table.get(degree, ())

    def cap(self) -> int:
        return self.field.e * self.field.ctx.prec


class CechCochain:
    """Degree-k cochain: Z-part of form degree k, W-part of form degree k-1."""

    __slots__ = ("spec", "degree", "zpart", "wpart")

    def __init__(self, spec: CechSpec, degree: int, zpart, wpart):
        self.spec = spec
        self.degree = degree
        self.zpart = zpart
        self.wpart = wpart

    @classmethod
    def zero(cls, spec: CechSpec, degree: int):
        if degree not in (0, 1, 2, 3):
            raise ValueError("cochain degree out of range")
        zdeg, wdeg = _ZDEG[degree], _WDEG[degree]
        zpart = None if zdeg is None else \
            [spec.zero_part("Z", n, zdeg) for n in range(1, spec.r + 1)]
        wpart = None if wdeg is None else \
            [spec.zero_part("W", n, wdeg) for n in range(1, spec.r + 1)]
        return cls(spec, degree, zpart, wpart)

    def map_parts(self, fn, spec: CechSpec | None = None) -> "CechCochain":
        """Cochain of the same degree with fn applied to every chart part,
        in `spec` (default: this cochain's complex)."""
        z = None if self.zpart is None else [fn(el) for el in self.zpart]
        w = None if self.wpart is None else [fn(el) for el in self.wpart]
        return CechCochain(self.spec if spec is None else spec, self.degree, z, w)

    def _compatible(self, other: "CechCochain"):
        if self.spec != other.spec or self.degree != other.degree:
            raise ChartMismatch("cochains live in different complexes or degrees")

    def __add__(self, other):
        self._compatible(other)
        z = None if self.zpart is None else \
            [a + b for a, b in zip(self.zpart, other.zpart)]
        w = None if self.wpart is None else \
            [a + b for a, b in zip(self.wpart, other.wpart)]
        return CechCochain(self.spec, self.degree, z, w)

    def __neg__(self):
        return self.map_parts(lambda el: -el)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self.map_parts(lambda el: el.scale(c))

    def parts(self):
        out = []
        if self.zpart is not None:
            out.extend(("Z", n + 1, el) for n, el in enumerate(self.zpart))
        if self.wpart is not None:
            out.extend(("W", n + 1, el) for n, el in enumerate(self.wpart))
        return out

    @property
    def overflow(self) -> bool:
        return any(el.overflow for _, _, el in self.parts())

    def is_zero_at(self, floor_pi: int) -> bool:
        return all(el.is_zero_at(floor_pi) for _, _, el in self.parts())

    def residual_prec(self) -> int:
        return min((el.residual_prec() for _, _, el in self.parts()),
                   default=self.spec.cap())


def cech_partial(spec: CechSpec, zparts) -> list:
    """Overlap map on a tuple of Z-chart elements, one output per W chart."""
    r = spec.r
    out = []
    for n0 in range(r - 1):
        out.append(spec.twist(zparts[n0 + 1], n0 + 1) - spec.nat(zparts[n0]))
    out.append(spec.nat(zparts[r - 1]) - spec.twist(zparts[0], r))
    return out


def cech_D(c: CechCochain) -> CechCochain:
    """Total differential."""
    spec = c.spec
    if c.degree == 0:
        z = [el.d() for el in c.zpart]
        w = cech_partial(spec, c.zpart)
        return CechCochain(spec, 1, z, w)
    if c.degree == 1:
        z = [el.d() for el in c.zpart]
        pb = cech_partial(spec, c.zpart)
        w = [el.d() - q for el, q in zip(c.wpart, pb)]
        return CechCochain(spec, 2, z, w)
    if c.degree == 2:
        pb = cech_partial(spec, c.zpart)
        w = [el.d() + q for el, q in zip(c.wpart, pb)]
        return CechCochain(spec, 3, None, w)
    raise ValueError("no differential out of the top degree")


def cech_N(c: CechCochain) -> CechCochain:
    if c.spec.side != "hk":
        raise ChartMismatch("monodromy acts on the hk side")
    return c.map_parts(lambda el: el.N())


def cech_frobenius(c: CechCochain) -> CechCochain:
    if c.spec.side != "hk":
        raise ChartMismatch("Frobenius acts on the hk side")
    return c.map_parts(lambda el: el.frobenius())


def cech_psi(c: CechCochain, lam: KElement, dr_spec: CechSpec) -> CechCochain:
    """Evaluate an hk cochain at u := lam, s := the dr specialization point."""
    if c.spec.side != "hk" or dr_spec.side != "dr":
        raise ChartMismatch("evaluation goes from the hk side to the dr side")
    if (c.spec.r, c.spec.S, c.spec.T) != (dr_spec.r, dr_spec.S, dr_spec.T):
        raise ChartMismatch("window mismatch between the two sides")
    a = dr_spec.point
    return c.map_parts(lambda el: el.evaluate(lam, a, dr_spec.field), dr_spec)


# -- standard classes ---------------------------------------------------------


def unit_class(spec: CechSpec) -> CechCochain:
    """Degree-0 cocycle of constants 1."""
    c = CechCochain.zero(spec, 0)
    one = spec.field.one()
    c.zpart = [spec.monomial_part("Z", n, 0, 0, 0, 0, 0, one)
               for n in range(1, spec.r + 1)]
    return c


def class_e1(spec: CechSpec) -> CechCochain:
    """First basis class in degree 1: the constant 1 on the last W chart."""
    c = CechCochain.zero(spec, 1)
    c.wpart[spec.r - 1] = spec.monomial_part("W", spec.r, 0, 0, 0, 0, 0,
                                             spec.field.one())
    return c


def class_e2(spec: CechSpec) -> CechCochain:
    """Second basis class in degree 1.

    hk side: dlog w on every Z chart plus u-corrections (-u^[1] on the first
    r-1 W charts, +u^[1] on the last) making it a cocycle. dr side: -dlog v
    on every chart, no correction needed."""
    c = CechCochain.zero(spec, 1)
    one = spec.field.one()
    if spec.side == "hk":
        c.zpart = [spec.monomial_part("Z", n, 1, 0, 0, 1, 0, one)
                   for n in range(1, spec.r + 1)]
        w = []
        for n in range(1, spec.r + 1):
            sign = one if n == spec.r else -one
            w.append(spec.monomial_part("W", n, 0, 0, 0, 0, 1, sign))
        c.wpart = w
    else:
        c.zpart = [spec.monomial_part("Z", n, 1, 0, 0, 0, 0, -one)
                   for n in range(1, spec.r + 1)]
    return c


def top_class(spec: CechSpec) -> CechCochain:
    """Degree-2 generator: a relative one-form on the last W chart."""
    c = CechCochain.zero(spec, 2)
    one = spec.field.one()
    if spec.side == "hk":
        c.wpart[spec.r - 1] = spec.monomial_part("W", spec.r, 1, 0, 0, 1, 0, one)
    else:
        c.wpart[spec.r - 1] = spec.monomial_part("W", spec.r, 1, 0, 0, 0, 0, -one)
    return c


# -- weight-block bases and matrices ------------------------------------------


def part_weight(part: str, j: int) -> int:
    return -j if part == "Z" else j


def _terms(c: CechCochain):
    """Yield (key, coeff) for every term of the cochain, key = (weight,
    part, n, i, u, slot) as in BlockIndex; i and u are 0 on the dr side."""
    hk = c.spec.side == "hk"
    for part, n, el in c.parts():
        if hk:
            for u, chart_el in el.items():
                for (i, j, slot), coeff in chart_el.items():
                    yield (part_weight(part, j), part, n, i, u, slot), coeff
        else:
            for (j, slot), coeff in el.items():
                yield (part_weight(part, j), part, n, 0, 0, slot), coeff


def cochain_blocks(c: CechCochain) -> set:
    """The (weight, s-exponent) pairs carrying a coefficient of the
    cochain; the s-exponent is 0 on the dr side."""
    return {(key[0], key[3]) for key, _ in _terms(c)}


class BlockIndex:
    """Ordered basis of the given weight blocks of one cochain degree.

    levels, when given, keeps only those s-exponents i in the weight-0
    block, each a subcomplex there; blocks of other weights are whole, as
    D mixes i in them."""

    def __init__(self, spec: CechSpec, degree: int, weights, levels=None):
        self.spec = spec
        self.degree = degree
        self.weights = tuple(sorted(set(weights)))
        self.levels = None if levels is None else tuple(sorted(set(levels)))
        self.keys = []
        for wt in self.weights:
            self.keys.extend(self._block(wt))
        self.pos = {k: idx for idx, k in enumerate(self.keys)}

    def _block(self, wt):
        spec = self.spec
        top = spec.S if spec.side == "hk" else 0
        levels = range(top + 1) if wt or self.levels is None else self.levels
        ulevels = range(spec.U + 1) if spec.side == "hk" else (0,)
        keys = []
        for part, deg in (("Z", _ZDEG[self.degree]), ("W", _WDEG[self.degree])):
            if deg is None:
                continue
            j = -wt if part == "Z" else wt
            if abs(j) > spec.T:
                continue
            slots = spec.slots(deg)
            keys.extend((wt, part, n, i, u, slot)
                        for n in range(1, spec.r + 1) for i in levels
                        for u in ulevels for slot in slots)
        return keys

    def __len__(self):
        return len(self.keys)

    def basis_cochain(self, key) -> CechCochain:
        return self.cochain({self.pos[key]: self.spec.field.one()})

    def vector(self, c: CechCochain) -> dict:
        """Coefficient vector; raises if the cochain leaves the index."""
        if c.degree != self.degree or c.spec != self.spec:
            raise ChartMismatch("cochain does not match the block index")
        vec = {}
        for key, coeff in _terms(c):
            idx = self.pos.get(key)
            if idx is None:
                raise ChartMismatch(
                    f"coefficient at {key} falls outside the block index")
            vec[idx] = coeff
        return vec

    def cochain(self, vec: dict) -> CechCochain:
        c = CechCochain.zero(self.spec, self.degree)
        for idx, coeff in vec.items():
            wt, part, n, i, u, slot = self.keys[idx]
            j = -wt if part == "Z" else wt
            deg = _ZDEG[self.degree] if part == "Z" else _WDEG[self.degree]
            el = self.spec.monomial_part(part, n, deg, i, j, slot, u, coeff)
            if part == "Z":
                c.zpart[n - 1] = c.zpart[n - 1] + el
            else:
                c.wpart[n - 1] = c.wpart[n - 1] + el
        return c


def operator_matrix(src: BlockIndex, tgt: BlockIndex, op):
    """Matrix of a linear cochain operator between block bases.

    Returns (matrix, tainted): tainted records window overflow during any
    image computation (dropped coefficients beyond the window)."""
    mat = PrecMatrix(tgt.spec.field, len(tgt), len(src))
    tainted = False
    for col, key in enumerate(src.keys):
        image = op(src.basis_cochain(key))
        tainted = tainted or image.overflow
        for row, coeff in tgt.vector(image).items():
            mat.set_entry(row, col, coeff)
    return mat, tainted


def _centered_int(coeff: KElement):
    """Exact signed integer value of an element of K, or None unless its coefficient
    of 1 is an integer known to the cap and those of pi, pi^2, ... are zeros there."""
    (v, u, n), *rest = coeff._c
    p, cap = coeff.field.p, coeff.field.cap
    if n < cap or u and v < 0 or any(ui or ni < cap for _, ui, ni in rest):
        return None
    m = u * p ** v
    modulus = p ** n
    return m - modulus if m > modulus // 2 else m


def operator_int_rows(src: BlockIndex, tgt: BlockIndex, op):
    """Sparse integer rows of an operator with exact integer matrix.

    operator_matrix read entry by entry with _centered_int. Returns (rows,
    tainted) or (None, tainted) when an entry fails the integrality
    certificate."""
    mat, tainted = operator_matrix(src, tgt, op)
    rows = [{} for _ in range(len(tgt))]
    for row, entries in enumerate(mat.rows):
        for col, coeff in entries.items():
            m = _centered_int(coeff)
            if m is None:
                return None, tainted
            if m:
                rows[row][col] = m
    return rows, tainted


def hk_D_rows(src: BlockIndex, tgt: BlockIndex):
    """Sparse integer rows of the hk total differential between block bases.

    Written straight from the basis keys (wt, part, n, i, u, slot), with
    the rules of charts.py and kimhain.py: the chart d is charts._chart_d
    of the v, w exponents (a, b) of charts._vw_exponents; the twist maps
    slots by charts._TWIST_SLOTS; the u-tail is kimhain.U_TAIL at u-order
    u - 1; the overlap map shifts indices along nat and twist, entering
    degree 2 with sign -1. Returns (rows, tainted) exactly as
    operator_int_rows(src, tgt, cech_D) does: an entry beyond the S window
    is dropped and sets tainted."""
    spec = src.spec
    if spec.side != "hk" or tgt.spec != spec or tgt.degree != src.degree + 1:
        raise ChartMismatch("hk differential needs consecutive hk block indices")
    r, S, degree = spec.r, spec.S, src.degree
    overlap = -1 if degree == 1 else 1
    pos = tgt.pos
    rows = [{} for _ in range(len(tgt))]
    tainted = False
    for col, (wt, part, n, i, u, slot) in enumerate(src.keys):
        fdeg = degree if part == "Z" else degree - 1
        a, b = _exponents(part, -wt if part == "Z" else wt, i)
        # (part, n, i, u, slot, coefficient) of the image, all of weight wt
        terms = []
        for tslot, c in _chart_d(fdeg, slot, a, b):
            terms.append((part, n, i, u, tslot, c))
        if u:
            for tslot, c in U_TAIL[fdeg][slot]:
                terms.append((part, n, i, u - 1, tslot, c))
        if part == "Z":
            # nat sends v^a w^b to s^a w^-j, twist to s^b w^-j
            if a > S:
                tainted = True
            else:
                terms.append(("W", n, a, u, slot, overlap if n == r else -overlap))
            if b > S:
                tainted = True
            else:
                tw_n, tw_sign = (n - 1, overlap) if n > 1 else (r, -overlap)
                for tslot, c in _TWIST_SLOTS[fdeg][slot]:
                    terms.append(("W", tw_n, b, u, tslot, tw_sign * c))
        for tpart, tn, ti, tu, tslot, c in terms:
            if not c:
                continue
            key = (wt, tpart, tn, ti, tu, tslot)
            row = pos.get(key)
            if row is None:
                raise ChartMismatch(
                    f"coefficient at {key} falls outside the block index")
            cur = rows[row].get(col, 0) + c
            if cur:
                rows[row][col] = cur
            else:
                del rows[row][col]
    return rows, tainted


def block_D(src: BlockIndex, tgt: BlockIndex):
    """(D, tainted) from src to tgt, the next degree of the same blocks: hk
    stencil rows (hk_D_rows) or a dr operator_matrix of cech_D. Built once
    per spec, keyed by src's degree, weights and levels, and shared by
    h_ranks, the class systems and the fiber lines; a caller copies it
    before adding columns."""
    spec = src.spec
    key = (src.degree, src.weights, src.levels)
    if key not in spec.d_table:
        spec.d_table[key] = hk_D_rows(src, tgt) if spec.side == "hk" \
            else operator_matrix(src, tgt, cech_D)
    return spec.d_table[key]


def _block_h_direct(spec: CechSpec, wt: int, levels=None):
    """Naive per-weight ranks of the truncated complex (one weight block,
    or in weight 0 its sub-block of the given s-exponents): the dims less
    the ranks of D, counted exactly by int_rank_sparse on the hk stencil and
    by rank_at at cert_floor on dr. Returns (h, idx, tainted)."""
    idx = {d: BlockIndex(spec, d, [wt], levels) for d in range(4)}
    dims = {d: len(idx[d]) for d in range(4)}
    ranks, tainted = dict.fromkeys(range(-1, 4), 0), False
    for d in range(3):
        if dims[d] and dims[d + 1]:
            D, t = block_D(idx[d], idx[d + 1])
            ranks[d] = int_rank_sparse(D, dims[d]) if spec.side == "hk" \
                else rank_at(D, cert_floor(spec.field))
            tainted = tainted or t
    h = {d: dims[d] - ranks[d] - ranks[d - 1] for d in range(4)}
    return h, idx, tainted


def dr_window_bound(p: int, floor_pi: int, e: int) -> int:
    """p^ceil(floor_pi/e): the least window T at which a dr block off the
    piece is not certified acyclic at floor_pi (module docstring)."""
    return p ** max(0, -(-floor_pi // e))


def _check_acyclic_off_piece(spec: CechSpec, floor_pi: int):
    """Raise AmbiguousPivot unless every (part, j, i) of the window off the
    piece is acyclic; by the lemma of the module docstring that fails only
    on dr, for T >= dr_window_bound. The error names the first key a scan
    from part Z, j = -T would meet."""
    if spec.side == "hk":
        return
    step = dr_window_bound(spec.field.p, floor_pi, spec.field.e)
    if spec.T >= step:
        raise AmbiguousPivot(
            f"dr block at part Z, j={-(spec.T // step) * step}, i=0 is not "
            f"certified acyclic at the floor {floor_pi}")


def h_ranks(spec: CechSpec):
    """Cohomology ranks of the truncated complex, per degree.

    Eliminates the piece P_U alone (module docstring), once every block off
    it is certified acyclic, for its naive ranks n_d = dim H^d(P_U). Returns
    (ranks, tainted), tainted if the window overflowed in a piece with
    cohomology. dr ranks are n, certified at cert_floor; hk ranks, h_d =
    rank(H^d(P_U) -> H^d(P_U+2)), drop the u-cap's artifacts.

    Lemma. On the hk piece h_d = n_d - h_(d-1) (h_(-1) = 0), so no second
    elimination is needed: h = (1, 2, 1, 0) for U >= 1 (n = (1, 3, 3, 1)),
    (1, 1, 1, 0) for U = 0.

    Proof. As (a, b) = (0, 0), the chart d vanishes: D is the overlap map
    delta plus the u-tail -sig^ (x) del on L (x) <u^[0..U]>, where L =
    Lambda(dlog v, dlog w), sig = dlog v + dlog w, om = dlog w and del u^[k]
    = u^[k-1] (kimhain.U_TAIL). nat is 1 on L and the twist is g = 1 + eps,
    eps x = sig ^ (d/d om)x (charts._TWIST_SLOTS); both fix u. Let K_U = H(L
    (x) <u^[0..U]>, -sig^ (x) del). With the W-parts as subcomplex and the
    Z-parts as quotient, the connecting map is delta on K_U, the r-cycle
    with monodromy g^r = 1 + r eps, so
        0 -> H^1(K_U^(d-1)) -> H^d(P_U) -> H^0(K_U^d) -> 0,
    H^0 = ker eps and H^1 = coker eps of equal dims. For U >= 1, K_U = L(om)
    u^[0] + sig L(om) u^[U] and eps = 0 on it (eps(om u^[0]) = sig u^[0] is
    the u-tail of -u^[1]): dims (1, 2, 1, 0). For U = 0, K_0 = L, ker eps =
    <1, sig, sig om>, coker eps = L/<sig>: dims (1, 1, 1, 0). P_U -> P_U+2
    maps the sequences to each other; on K it kills sig L u^[U] (sig y u^[U]
    is the u-tail of -y u^[U+1]) and maps onto L(om) u^[0] = L/sig L, where
    eps = 0. A class dying in H^0(K_U+2) has, up to a coboundary of P_U,
    Z-part sig y u^[U] on every chart: the Z-part of D(c), c = -y u^[U+1],
    whose W-part +-eps(c) is the u-tail of +-(d/d om)y u^[U+2]. So the class
    maps into the image of its W-part, and the rank is that on H^1 plus that
    on H^0: dim L(om)^(d-1) + dim L(om)^d = (1, 2, 1, 0) for U >= 1; for U =
    0, (0, 1, 1, 0) + (1, 0, 0, 0), as coker eps maps onto L/sig L and ker
    eps onto <1>. So h_d = dim H^0(K_U^d) = dim H^1(K_U^d), and n_d =
    h_(d-1) + h_d.
    """
    _check_acyclic_off_piece(spec, cert_floor(spec.field))
    h, _, tainted = _block_h_direct(spec, 0, [0])
    if spec.side == "hk":
        for d in (1, 2, 3):
            h[d] -= h[d - 1]
    return h, tainted and any(h.values())


# -- certified class arithmetic ------------------------------------------------


def is_cocycle(c: CechCochain):
    """(verdict at cert_floor, certified residual depth) for D(c) = 0."""
    image = cech_D(c)
    return image.is_zero_at(cert_floor(c.spec.field)), image.residual_prec()


def _solve_indices(targets, classes):
    """Block indices (src, tgt) of D(witness) + sum_k coords[k] classes[k] =
    target for targets of one degree, in it and the one below (src is None
    in degree 0): the weights the targets and classes carry, and in weight 0
    only the s-exponents they carry. The other sub-blocks of weight 0 are
    direct summands that hold no target or class, so leaving them out changes
    neither a solution nor its pivots: each target solves as it would alone."""
    blocks = set()
    for c in (*targets, *classes):
        blocks |= cochain_blocks(c)
    blocks = blocks or {(0, 0)}
    weights = {wt for wt, _ in blocks}
    levels = {i for wt, i in blocks if wt == 0}
    spec, degree = targets[0].spec, targets[0].degree
    tgt = BlockIndex(spec, degree, weights, levels)
    src = BlockIndex(spec, degree - 1, weights, levels) if degree else None
    return src, tgt


def _hk_system(targets, classes):
    """(src, tgt, rows, tainted): the exact integer rows of an hk class
    system. Its columns are, in order, the stencil of D (block_D), the
    classes, and one column per target. A class or target entry that is
    not an integer known to the cap is refused, never rounded."""
    src, tgt = _solve_indices(targets, classes)
    tainted = any(c.overflow for c in (*targets, *classes))
    if src is None:
        rows = [{} for _ in range(len(tgt))]
    else:
        D, t = block_D(src, tgt)
        rows = [dict(row) for row in D]
        tainted = tainted or t
    for col, c in enumerate((*classes, *targets), start=len(src or ())):
        for row, coeff in tgt.vector(c).items():
            m = _centered_int(coeff)
            if m is None:
                raise AmbiguousSolve(
                    f"hk coefficient {coeff.expansion_str()} at {tgt.keys[row]}"
                    f" is not an integer known to O(p^{tgt.spec.cap()})")
            if m:
                rows[row][col] = m
    return src, tgt, rows, tainted


def _hk_solve(rows: list, nsrc: int, nclasses: int, ntargets: int):
    """Exact solution over Q of an _hk_system with ntargets target columns:
    per target (coords, witness vector) as Fractions, or None outside the span.

    One int_echelon decides everything. Its rows led at a column >= nb =
    nsrc + nclasses span the row combinations vanishing on [D | classes], so
    a target is outside the span exactly when one of them has an entry at its
    column (being a pivot also tests it against the earlier targets). A
    class column that is no pivot makes the classes dependent modulo
    coboundaries. Otherwise _back_substitute(ech, f) at the target's column
    f gives x with x_f = d > 0, so coords = -x_C / d and witness = -x_D / d."""
    nb = nsrc + nclasses
    ech = int_echelon(rows, nb + ntargets)
    outside = {j for c, prow in ech.items() if c >= nb for j in prow}
    if any(f not in outside for f in range(nb, nb + ntargets)) and \
            any(c not in ech for c in range(nsrc, nb)):
        raise AmbiguousSolve("classes are dependent modulo coboundaries")
    sols = []
    for f in range(nb, nb + ntargets):
        x = None if f in outside else _back_substitute(ech, f)
        sols.append(None if x is None else
                    ([Fraction(-x.get(c, 0), x[f]) for c in range(nsrc, nb)],
                     {c: Fraction(-v, x[f]) for c, v in x.items() if c < nsrc}))
    return sols


def _solve(targets, classes, allow_tainted: bool, what: str):
    """Per target, (coords, witness) of target = D(witness) + sum_k
    coords[k] classes[k], or None when it is certified outside the span.

    The targets share one degree and one elimination, with one column each.
    hk cochains are integer cochains: their system is solved exactly over Q
    (_hk_solve) and only the solutions are entered into K. The dr system is
    eliminated over K and each residual certified at cert_floor."""
    if not targets:
        return []
    spec = targets[0].spec
    field = spec.field
    if spec.side == "hk":
        src, tgt, rows, tainted = _hk_system(targets, classes)
    else:
        # [D | classes] over K; the targets are right-hand sides
        src, tgt = _solve_indices(targets, classes)
        D, tainted = (PrecMatrix(field, len(tgt), 0), False) if src is None \
            else block_D(src, tgt)
        full = PrecMatrix(field, D.nrows, D.ncols + len(classes),
                          [dict(row) for row in D.rows])
        for t, cl in enumerate(classes, start=D.ncols):
            for row, coeff in tgt.vector(cl).items():
                full.set_entry(row, t, coeff)
        tainted = tainted or any(c.overflow for c in (*targets, *classes))
    if tainted and not allow_tainted:
        raise TaintedWindow(f"window overflow while forming the {what} system")
    nsrc = len(src or ())
    if spec.side == "hk":
        sols = [None if s is None else
                ([field.from_rational(q) for q in s[0]],
                 {c: field.from_rational(q) for c, q in s[1].items()})
                for s in _hk_solve(rows, nsrc, len(classes), len(targets))]
    else:
        xs, res = _solve_echelon(full, [tgt.vector(t) for t in targets],
                                 cert_floor(field))
        if classes and any(x is not None for x in xs):
            # coordinates are canonical only if every class column earns a
            # pivot after the coboundary columns (independence modulo the
            # image of D)
            res.rank_at(cert_floor(field))
            if sum(1 for _, c in res.pivots if c >= nsrc) < len(classes):
                raise AmbiguousSolve(
                    "classes are dependent modulo coboundaries at this depth")
        sols = [None if x is None else
                ([x.get(nsrc + t, field.zero()) for t in range(len(classes))],
                 {c: v for c, v in x.items() if c < nsrc}) for x in xs]
    return [None if s is None else
            (s[0], None if src is None else src.cochain(s[1])) for s in sols]


def express_all(targets, classes, *, allow_tainted: bool = False) -> list:
    """express_in_classes for several targets of one degree, solved in one
    elimination: one (coords, witness) per target, each equal to what the
    target gets alone. Raises as express_in_classes does; NotInSpan if any
    target is certified outside the span."""
    sols = _solve(targets, classes, allow_tainted, "class")
    if any(s is None for s in sols):
        raise NotInSpan("target is certified outside the span of the classes "
                        "modulo coboundaries")
    return sols


def express_in_classes(target: CechCochain, classes, *,
                       allow_tainted: bool = False):
    """Write target = D(witness) + sum_k coords[k] * classes[k].

    Returns (coords, witness). On the hk side coords and witness are exact
    rationals; on the dr side they are certified at cert_floor of the
    field. Raises NotInSpan on a certified obstruction,
    AmbiguousSolve if the coordinates are not pinned down (dependent
    classes, or a dr system undecidable at the requested depth),
    TaintedWindow if window overflow undermines the certificate. It is the
    one-target case of express_all."""
    return express_all([target], classes, allow_tainted=allow_tainted)[0]


def coboundary_witness(target: CechCochain, *,
                       allow_tainted: bool = False) -> CechCochain:
    """Solve D(witness) = target; raises NotACoboundary when obstructed.
    The witness is exact on the hk side and certified at cert_floor on the
    dr side."""
    sol = _solve([target], [], allow_tainted, "coboundary")[0]
    if sol is None:
        raise NotACoboundary("target is certified not to be a coboundary",
                             obstruction=target)
    return sol[1]
