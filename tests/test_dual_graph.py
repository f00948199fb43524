"""The (phi, N)-module of the Tate curve against its dual graph.

The special fibre of the curve with parameter pi^r times a unit is an
r-gon of projective lines. Its dual graph G is the r-cycle (one loop at
r = 1): vertex k is line k, edge k the double point where lines k and
k + 1 meet, every edge of thickness 1 at a = pi. The E1 page of the weight
spectral sequence of a semistable curve (Mokrane, "La suite spectrale des
poids en cohomologie de Hyodo-Kato", Duke Math. J. 72, 1993) is built
from G alone, with B the incidence matrix (B[v][k] = +1 at the head of
edge k, -1 at its tail) and delta its transpose:

    E1^(0,0) = Q^vertices --delta--> E1^(1,0) = Q^edges           (weight 0)
    E1^(-1,2) = Q^edges(-1) --B--> E1^(0,2) = Q^vertices(-1)      (weight 2)

It degenerates at E2: H^0 = ker delta, H^1 = coker delta (phi = 1) plus
ker B (phi = p), H^2 = coker B (phi = p). N is the identity E1^(1,0) ->
E1^(-1,2) weighted by the edge thicknesses; on H^1 it sends a cycle c of
G to the class of sum_k t_k c_k [k], the monodromy pairing, and it kills
H^0 and H^2. The oracle below does that linear algebra in Fractions,
with nothing from the package, and the basis of H^1 is the class of the
last edge (the package's e1, the constant 1 on the last overlap) and the
cycle with last coordinate 1.
"""

from fractions import Fraction

import pytest

from tatehk.cech import cert_floor
from tatehk.pipeline import JobSpec, compute_tate


def _rank_and_kernel(rows, ncols):
    """Rank and a kernel basis over Q of a matrix given by its rows."""
    rows, pivots = [[Fraction(x) for x in row] for row in rows], []
    for col in range(ncols):
        k = len(pivots)
        piv = next((m for m in range(k, len(rows)) if rows[m][col]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][col] for x in rows[k]]
        for m in range(len(rows)):
            if m != k and rows[m][col]:
                f = rows[m][col]
                rows[m] = [a - f * b for a, b in zip(rows[m], rows[k])]
        pivots.append(col)
    kernel = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for k, col in enumerate(pivots):
            vec[col] = -rows[k][free]
        kernel.append(vec)
    return len(pivots), kernel


def dual_graph_oracle(r, p):
    """Ranks, H^1 phi and N, and the H^0 and H^2 Frobenius and monodromy of
    the E2 page of the r-cycle, as Fractions."""
    # edge k runs from vertex k to vertex k + 1 mod r
    B = [[(v == (k + 1) % r) - (v == k) for k in range(r)] for v in range(r)]
    delta = [list(col) for col in zip(*B)]
    rank_delta, ker_delta = _rank_and_kernel(delta, r)
    rank_b, ker_b = _rank_and_kernel(B, r)
    ranks = [len(ker_delta), (r - rank_delta) + len(ker_b), r - rank_b, 0]
    assert len(ker_b) == 1, "the r-cycle has one independent cycle"
    cycle = [x / ker_b[0][-1] for x in ker_b[0]]
    thickness = [1] * r
    image = [t * c for t, c in zip(thickness, cycle)]
    # pairing with the cycle kills the image of delta (B cycle = 0), so it
    # reads a class of coker delta in the basis [last edge]
    n = sum(x * c for x, c in zip(image, cycle)) / cycle[-1]
    return {"ranks": ranks, "phi": [[1, 0], [0, p]], "n": [[0, n], [0, 0]],
            "h0_phi": 1, "h2_phi": p, "h2_n": 0}


def _is(x, q) -> bool:
    return (x - x.field.from_rational(Fraction(q))).is_zero_at(cert_floor(x.field))


def _matrix_is(m, want) -> bool:
    return all(_is(m.entry(i, j), want[i][j]) for i in range(2) for j in range(2))


@pytest.mark.parametrize("e", [1, 2, 3])
def test_compute_tate_matches_the_dual_graph(e):
    p = 5
    for r in range(1, 9):
        want = dual_graph_oracle(r, p)
        assert want["n"][0][1] == r
        comp = compute_tate(JobSpec(p, 12, r, None if e == 1 else f"s^{e} - {p}"))
        assert [comp.ranks_hk[d] for d in range(4)] == want["ranks"] == [1, 2, 1, 0]
        assert [comp.ranks_dr[d] for d in range(4)] == want["ranks"]
        assert _matrix_is(comp.phi, want["phi"]), (r, e)
        assert _matrix_is(comp.n_pi, want["n"]), (r, e)
        n_ordp = [[x / e for x in row] for row in want["n"]]
        assert _matrix_is(comp.module.n_ordp(), n_ordp), (r, e)
        assert _is(comp.h0_phi, want["h0_phi"]) and _is(comp.h2_phi, want["h2_phi"])
        assert _is(comp.h2_n, want["h2_n"]), (r, e)
