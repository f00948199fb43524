"""Precision-certified linear algebra over K with valuation pivoting.

Rows are sparse dicts of KElements; an absent entry is an exact zero.
Pivots are chosen with minimal pi-adic valuation (best numerical
quality) and every certificate states the precision floor it holds at.
Rank questions that the working precision cannot decide raise
AmbiguousPivot / AmbiguousSolve instead of guessing.

Matrices with integer entries take an exact path instead, where rank
over Q equals rank over Q_p and no precision bookkeeping is needed:
one fraction-free row-insertion echelon, int_echelon, whose pivot
columns are the canonical ones. int_rank_sparse counts its pivots;
int_kernel_sparse, and the exact hk class solving in cech, back-substitute
one free column at a time through it (_back_substitute).
"""

from __future__ import annotations

from math import gcd

from .errors import AmbiguousPivot, AmbiguousSolve
from .field import FieldDescriptor, KElement


class PrecMatrix:
    """Sparse matrix over K with explicit precision semantics."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldDescriptor, nrows: int, ncols: int, rows=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)] if rows is None else rows

    @classmethod
    def from_rows(cls, field: FieldDescriptor, data) -> "PrecMatrix":
        """Dense list-of-lists input; entries are KElements, ints or Fractions."""
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        m = cls(field, nrows, ncols)
        for i, row in enumerate(data):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if not isinstance(v, KElement):
                    v = field.from_rational(v)
                if not v.is_prunable_zero():
                    m.rows[i][j] = v
        return m

    @classmethod
    def identity(cls, field: FieldDescriptor, n: int) -> "PrecMatrix":
        m = cls(field, n, n)
        one = field.one()
        for i in range(n):
            m.rows[i][i] = one
        return m

    def entry(self, i: int, j: int) -> KElement:
        v = self.rows[i].get(j)
        return v if v is not None else self.field.zero()

    def set_entry(self, i: int, j: int, v: KElement):
        if v.is_prunable_zero():
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = v

    def copy(self) -> "PrecMatrix":
        return PrecMatrix(self.field, self.nrows, self.ncols,
                          [dict(r) for r in self.rows])

    def matmul(self, other: "PrecMatrix") -> "PrecMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = PrecMatrix(self.field, self.nrows, other.ncols)
        for i, row in enumerate(self.rows):
            acc: dict = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    prev = acc.get(j)
                    acc[j] = a * b if prev is None else prev + a * b
            out.rows[i] = acc
        return out

    def add(self, other: "PrecMatrix") -> "PrecMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = self.copy()
        for i, row in enumerate(other.rows):
            for j, v in row.items():
                out.set_entry(i, j, out.entry(i, j) + v)
        return out

    def scale(self, c) -> "PrecMatrix":
        out = PrecMatrix(self.field, self.nrows, self.ncols)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out.rows[i][j] = v * c if isinstance(c, KElement) else v.scale(c)
        return out

    def apply_to(self, vec: dict) -> dict:
        """Matrix times sparse column vector (dict col -> KElement)."""
        out: dict = {}
        for i, row in enumerate(self.rows):
            acc = None
            for j, a in row.items():
                b = vec.get(j)
                if b is None:
                    continue
                term = a * b
                acc = term if acc is None else acc + term
            if acc is not None:
                out[i] = acc
        return out


class EchelonResult:
    """Reduced echelon data: pivots is a list of (row, col) and pivot_values
    the entries found there before their row was scaled to 1; ambiguity maps
    a pivotless column to the worst precision of a skipped numerically-zero
    entry."""

    __slots__ = ("echelon", "pivots", "pivot_values", "ambiguity")

    def __init__(self, echelon, pivots, pivot_values, ambiguity):
        self.echelon = echelon
        self.pivots = pivots
        self.pivot_values = pivot_values
        self.ambiguity = ambiguity

    def rank_at(self, floor_pi: int) -> int:
        """Rank certified at the given pi-adic floor."""
        for col, prec in self.ambiguity.items():
            if prec < floor_pi:
                raise AmbiguousPivot(
                    f"column {col}: all pivot candidates are zero at O(pi^{prec}), "
                    f"below the requested floor {floor_pi}")
        return len(self.pivots)


def row_reduce(a: PrecMatrix, max_cols: int | None = None) -> EchelonResult:
    """Gauss-Jordan with minimal-valuation pivoting over the first max_cols columns.

    Entries indistinguishable from zero never become pivots; the precision
    at which they were skipped is recorded per column so callers can decide
    whether rank statements are certified at their floor.
    """
    work = a.copy()
    ncols = a.ncols if max_cols is None else max_cols
    pivots = []
    pivot_values = []
    ambiguity = {}
    pivot_rows = set()
    for col in range(ncols):
        best = None
        worst_zero_prec = None
        for i in range(work.nrows):
            if i in pivot_rows:
                continue
            v = work.rows[i].get(col)
            if v is None:
                continue
            ordv = v.ord_pi_or_none()
            if ordv is None:
                p = v.cert_prec_pi()
                if worst_zero_prec is None or p < worst_zero_prec:
                    worst_zero_prec = p
                continue
            if best is None or (ordv, i) < best[0]:
                best = ((ordv, i), v)
        if best is None:
            if worst_zero_prec is not None:
                ambiguity[col] = worst_zero_prec
            continue
        (_, pi_row), pivot_val = best
        pivots.append((pi_row, col))
        pivot_values.append(pivot_val)
        pivot_rows.add(pi_row)
        prow = work.rows[pi_row]
        inv = pivot_val.inverse()
        # scale pivot row to a leading 1 for reduced form
        work.rows[pi_row] = {j: v * inv for j, v in prow.items()}
        prow = work.rows[pi_row]
        for i in range(work.nrows):
            if i == pi_row:
                continue
            v = work.rows[i].get(col)
            if v is None:
                continue
            if v.is_prunable_zero():
                del work.rows[i][col]
                continue
            row = work.rows[i]
            for j, pv in prow.items():
                cur = row.get(j)
                nxt = (cur - v * pv) if cur is not None else -(v * pv)
                if nxt.is_prunable_zero():
                    row.pop(j, None)
                else:
                    row[j] = nxt
            row.pop(col, None)  # eliminated exactly by construction
    return EchelonResult(work, pivots, pivot_values, ambiguity)


def solve(a: PrecMatrix, b: dict, floor_pi: int):
    """One solution of A x = b as a sparse dict, or None when certified unsolvable.

    b is a sparse dict row-index -> KElement. Consistency is decided at the
    pi-adic floor; an undecidable residual raises AmbiguousSolve.
    """
    return _solve_echelon(a, [b], floor_pi)[0][0]


def _solve_echelon(a: PrecMatrix, bs: list, floor_pi: int):
    """([solve(a, b, floor_pi) for b in bs], echelon of the one elimination
    that decided them all).

    The right-hand sides ride along as columns after a. Pivot choice in a
    column never looks at them, so each gets the row operations it would get
    alone, and the echelon has the pivots and ambiguity of row_reduce(a)
    without a second pass."""
    n = a.ncols
    aug = PrecMatrix(a.field, a.nrows, n + len(bs), [dict(r) for r in a.rows])
    for k, b in enumerate(bs, start=n):
        for i, v in b.items():
            if not v.is_prunable_zero():
                aug.rows[i][k] = v
    res = row_reduce(aug, max_cols=n)
    pivot_rows = {r for r, _ in res.pivots}
    free_rows = [row for i, row in enumerate(res.echelon.rows) if i not in pivot_rows]
    sols = []
    for k in range(n, n + len(bs)):
        for row in free_rows:
            v = row.get(k)
            if v is not None and not v.is_zero_at(floor_pi):
                if v.ord_pi_or_none() is None:
                    raise AmbiguousSolve(f"residual zero only at O(pi^"
                                         f"{v.cert_prec_pi()}) < floor {floor_pi}")
                sols.append(None)  # certified obstruction: residual below floor
                break
        else:
            # pivots are scaled to 1, free variables set to zero
            sols.append({col: res.echelon.rows[i][k] for i, col in res.pivots
                         if k in res.echelon.rows[i]})
    return sols, res


def kernel_basis(a: PrecMatrix, floor_pi: int) -> list:
    """Basis of ker(A) certified at the floor: substituting back gives entries
    of valuation >= floor_pi."""
    res = row_reduce(a)
    res.rank_at(floor_pi)
    pivot_cols = {c for _, c in res.pivots}
    basis = []
    for f in range(a.ncols):
        if f in pivot_cols:
            continue
        vec = {f: a.field.one()}
        for i, c in res.pivots:
            v = res.echelon.rows[i].get(f)
            if v is not None:
                vec[c] = -v
        residual = a.apply_to(vec)
        for v in residual.values():
            if not v.is_zero_at(floor_pi):
                raise AmbiguousSolve("kernel vector residual exceeds the floor")
        basis.append(vec)
    return basis


def rank_at(a: PrecMatrix, floor_pi: int) -> int:
    return row_reduce(a).rank_at(floor_pi)


# -- exact integer path ---------------------------------------------------------


def int_echelon(rows: list, ncols: int) -> dict:
    """Row echelon over Z of a sparse integer matrix: {pivot column: row}.

    Rows (dicts col -> int; entries at columns >= ncols are ignored) are
    inserted one at a time. A row is reduced fraction-free against the
    pivot row of its leading column until it vanishes or leads at a column
    with no pivot yet; it then becomes that column's pivot row, with its
    content divided out. There is no pivot search, and the pivot columns
    are the canonical ones: column c is a pivot exactly when it is not in
    the span of the columns before it. So the pivots below a column bound
    count the rank of those columns, over Q and over Q_p alike, and no
    precision floor is needed.
    """
    ech = {}
    for r in rows:
        row = {j: v for j, v in r.items() if v and j < ncols}
        while row:
            col = min(row)
            prow = ech.get(col)
            if prow is None:
                g = gcd(*row.values())
                ech[col] = {j: v // g for j, v in row.items()} if g > 1 else row
                break
            a, b = row[col], prow[col]
            g = gcd(a, b)
            mult_r, mult_p = b // g, a // g
            if mult_r != 1:
                row = {j: v * mult_r for j, v in row.items()}
            for j, w in prow.items():
                nv = row.get(j, 0) - w * mult_p
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
    return ech


def _back_substitute(ech: dict, f: int) -> dict:
    """The primitive integer vector x with ech x = 0, x_f > 0 on the free
    column f, and zero at the other free columns. It is unique, because the
    one with x_f = 1 is. The pivot columns below f are solved downwards; the
    row of pivot c has entries only at columns >= c, all known by then. x
    stays primitive at every step: it is scaled only by |d| / g, which is
    coprime to the new entry s / g."""
    x = {f: 1}
    for c in sorted((c for c in ech if c < f), reverse=True):
        prow = ech[c]
        s = sum(v * x[j] for j, v in prow.items() if j in x)
        if not s:
            continue
        d = prow[c]
        g = gcd(s, d)
        scale = abs(d) // g
        if scale != 1:
            x = {j: v * scale for j, v in x.items()}
        x[c] = -(s // g) if d > 0 else s // g
    return x


def int_kernel_sparse(rows: list, ncols: int) -> list:
    """Exact kernel basis over Q of the first ncols columns of a sparse integer
    matrix: one primitive integer vector (dict col -> int) per free column,
    from the back-substitution of int_echelon, in column order."""
    ech = int_echelon(rows, ncols)
    return [_back_substitute(ech, f) for f in range(ncols) if f not in ech]


def int_rank_sparse(rows: list, ncols: int) -> int:
    """Exact rank over Q (equal to the rank over Q_p) of the first ncols
    columns of a sparse integer matrix: the pivot count of int_echelon."""
    return len(int_echelon(rows, ncols))
