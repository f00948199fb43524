"""Frobenius-monodromy modules over a p-adic field at finite precision.

A module packs a free K-module of finite rank with two matrices: an
invertible Frobenius Phi and a nilpotent monodromy N, tied by the
commutation rule N * Phi = p * Phi * N. Matrices act on column vectors,
so column j is the image of the j-th basis vector.

Monodromy comes in two normalizations. The integral one, n_pi, counts
against the uniformizer of K and is what cocycle calculus produces; the
invariant one, n_ordp = n_pi / e, counts against ord_p and does not move
under ramified base change. Branch transport of period matrices is the
unipotent factor exp(c * n_ordp) with c = log_q(q') / ord_p(q').

Determinants and inverses come from the one eliminator, linalg.row_reduce.
"""

from __future__ import annotations

from fractions import Fraction
import math

from .errors import AmbiguousValuation, NotNilpotent
from .field import FieldDescriptor, KElement
from .linalg import PrecMatrix, row_reduce
from .plog import LogBranch


def matrix_same_at(a: PrecMatrix, b: PrecMatrix, floor_pi: int) -> bool:
    """Entrywise agreement certified at the floor."""
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        return False
    for i in range(a.nrows):
        for j in range(a.ncols):
            if not (a.entry(i, j) - b.entry(i, j)).is_zero_at(floor_pi):
                return False
    return True


def matrix_is_zero_at(a: PrecMatrix, floor_pi: int) -> bool:
    for row in a.rows:
        for v in row.values():
            if not v.is_zero_at(floor_pi):
                return False
    return True


def matrix_det(a: PrecMatrix) -> KElement:
    """The pivots of row_reduce(a) multiplied, signed by the order of their rows.

    When a column has no pivot, the rows left over are zero there, and the
    determinant is zero to the precision of the least precise such entry
    (exactly zero when there is none)."""
    if a.nrows != a.ncols:
        raise ValueError("determinant of a non-square matrix")
    res = row_reduce(a)
    rows = [r for r, _ in res.pivots]
    det = a.field.one()
    for v in res.pivot_values:
        det = det * v
    for col in set(range(a.ncols)) - {c for _, c in res.pivots}:
        zeros = [row[col] for i, row in enumerate(res.echelon.rows)
                 if i not in rows and col in row]
        if not zeros:
            return a.field.zero()
        det = det * min(zeros, key=KElement.cert_prec_pi)
    odd = sum(r > s for k, r in enumerate(rows) for s in rows[k + 1:]) % 2
    return -det if odd else det


def matrix_inverse(a: PrecMatrix) -> PrecMatrix:
    """Gauss-Jordan by row_reduce on [A | 1]: the row that pivots on column c
    of A carries row c of the inverse."""
    if a.nrows != a.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = a.nrows
    aug = PrecMatrix(a.field, n, 2 * n, [dict(r) for r in a.rows])
    for i in range(n):
        aug.rows[i][n + i] = a.field.one()
    res = row_reduce(aug, max_cols=n)
    if len(res.pivots) < n:
        raise AmbiguousValuation("matrix is singular at the working precision: "
                                 f"{n - len(res.pivots)} columns have no pivot")
    out = PrecMatrix(a.field, n, n)
    for r, c in res.pivots:
        out.rows[c] = {j - n: v for j, v in res.echelon.rows[r].items() if j >= n}
    return out


def exp_unipotent(mat: PrecMatrix, coeff: KElement) -> PrecMatrix:
    """sum_k coeff^k * mat^k / k! for a nilpotent matrix.

    Nilpotency is certified by checking that mat^dim vanishes at the
    field cap; anything weaker raises NotNilpotent.
    """
    field = mat.field
    if mat.nrows != mat.ncols:
        raise ValueError("exponential of a non-square matrix")
    n = mat.nrows
    total = PrecMatrix.identity(field, n)
    power = PrecMatrix.identity(field, n)
    cpow = field.one()
    for k in range(1, n + 1):
        power = power.matmul(mat)
        if k == n:
            if not matrix_is_zero_at(power, field.e * field.ctx.prec):
                raise NotNilpotent("matrix power dim does not vanish at the cap")
            break
        cpow = cpow * coeff
        scale = cpow * field.from_rational(Fraction(1, math.factorial(k)))
        total = total.add(power.scale(scale))
    return total


class PhiNModule:
    """Free K-module with Frobenius and nilpotent monodromy matrices."""

    __slots__ = ("field", "phi", "n_pi")

    def __init__(self, field: FieldDescriptor, phi: PrecMatrix, n_pi: PrecMatrix):
        if phi.nrows != phi.ncols or n_pi.nrows != n_pi.ncols:
            raise ValueError("module matrices must be square")
        if phi.nrows != n_pi.nrows:
            raise ValueError("Frobenius and monodromy sizes differ")
        if phi.field != field or n_pi.field != field:
            raise ValueError("matrices must live over the module field")
        self.field = field
        self.phi = phi
        self.n_pi = n_pi

    @property
    def dim(self) -> int:
        return self.phi.nrows

    def n_ordp(self) -> PrecMatrix:
        """Monodromy normalized against ord_p: n_pi / e."""
        return self.n_pi.scale(self.field.from_rational(Fraction(1, self.field.e)))

    def relation_defect(self) -> PrecMatrix:
        """N * Phi - p * Phi * N; zero when the commutation rule holds."""
        p_phi_n = self.phi.matmul(self.n_pi).scale(
            self.field.from_int(self.field.ctx.p))
        return self.n_pi.matmul(self.phi).add(p_phi_n.scale(self.field.from_int(-1)))

    def check_relation(self, floor_pi: int) -> bool:
        return matrix_is_zero_at(self.relation_defect(), floor_pi)

    def newton_number(self) -> Fraction:
        """ord_p of det(Phi)."""
        return matrix_det(self.phi).ord_p()

    def base_change(self, new_field: FieldDescriptor) -> "PhiNModule":
        """Extend scalars to a totally ramified extension of the base.

        Frobenius is unchanged; n_pi multiplies by the ramification jump
        because ord_pi sharpens by that factor. n_ordp is invariant.
        """
        old = self.field
        if old.e != 1:
            raise ValueError("base change is implemented from an unramified base")
        if new_field.ctx.p != old.ctx.p:
            raise ValueError("base change must keep the residue characteristic")
        ell = new_field.e
        phi2 = embed_matrix(self.phi, new_field)
        n2 = embed_matrix(self.n_pi, new_field).scale(new_field.from_int(ell))
        return PhiNModule(new_field, phi2, n2)


def embed_matrix(mat: PrecMatrix, new_field: FieldDescriptor) -> PrecMatrix:
    out = PrecMatrix(new_field, mat.nrows, mat.ncols)
    for i, row in enumerate(mat.rows):
        for j, v in row.items():
            out.rows[i][j] = new_field.from_coeff(v.coeff(0))
    return out


def branch_transition(module: PhiNModule, branch_from: LogBranch,
                      branch_to: LogBranch) -> PrecMatrix:
    """Unipotent factor carrying the branch_from period matrix to branch_to.

    Returns exp(c * n_ordp) with c = log_{q}(q') / ord_p(q') for q the
    branch_from point and q' the branch_to point; the period matrix for
    q' is the one for q times this factor.
    """
    field = module.field
    if branch_from.field != field or branch_to.field != field:
        raise ValueError("branches must live over the module field")
    log_qq = branch_from.log(branch_to.q)
    inv_ordp = field.from_rational(Fraction(field.e, branch_to.m))
    return exp_unipotent(module.n_ordp(), log_qq * inv_ordp)


class FilteredPhiNModule(PhiNModule):
    """PhiNModule with a decreasing filtration by column spans.

    filtration maps step i to a basis of the i-th piece, as column
    vectors (lists of KElements). Steps must be contiguous, the lowest
    listed step must be the whole module, and everything above the
    highest listed step is zero.
    """

    __slots__ = ("filtration",)

    def __init__(self, field, phi, n_pi, filtration: dict):
        super().__init__(field, phi, n_pi)
        if not filtration:
            raise ValueError("filtration needs at least one step")
        steps = sorted(filtration)
        if steps != list(range(steps[0], steps[-1] + 1)):
            raise ValueError("filtration steps must be contiguous")
        if len(filtration[steps[0]]) != self.dim:
            raise ValueError("lowest filtration step must span the module")
        prev = self.dim
        for s in steps:
            basis = filtration[s]
            for vec in basis:
                if len(vec) != self.dim:
                    raise ValueError("filtration vectors must have module length")
            if len(basis) > prev:
                raise ValueError("filtration dimensions must be non-increasing")
            prev = len(basis)
        self.filtration = {s: [list(v) for v in filtration[s]] for s in steps}

    def gr_dims(self) -> dict:
        """Dimensions of the graded pieces, keyed by step."""
        steps = sorted(self.filtration)
        out = {}
        for idx, s in enumerate(steps):
            nxt = len(self.filtration[steps[idx + 1]]) if idx + 1 < len(steps) else 0
            d = len(self.filtration[s]) - nxt
            if d:
                out[s] = d
        return out

    def hodge_number(self) -> int:
        """Sum of step * dim gr_step."""
        return sum(s * d for s, d in self.gr_dims().items())

    def is_weakly_admissible_numerically(self) -> bool:
        """Newton number equals Hodge number for the whole module."""
        return self.newton_number() == Fraction(self.hodge_number())


def tate_object(field: FieldDescriptor, n: int) -> FilteredPhiNModule:
    """Rank-one module K(n): Frobenius p^(-n), zero monodromy, jump at -n."""
    phi = PrecMatrix.from_rows(field, [[Fraction(1, field.ctx.p ** n) if n >= 0
                                        else field.ctx.p ** (-n)]])
    n_pi = PrecMatrix(field, 1, 1)
    filtration = {s: [[field.one()]] for s in range(min(0, -n), -n + 1)}
    return FilteredPhiNModule(field, phi, n_pi, filtration)
