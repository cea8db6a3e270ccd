"""Basis expansion between F_{q^m}^l and l x m matrices over F_q.

The map eps_b writes each coordinate of a vector over the top field as an
F_q-row with respect to an ordered basis b, and eps_b^{-1} reassembles it.
The module also builds the structured m x m matrices that realise, under
eps_b, multiplication by a scalar (M_alpha), the q-power Frobenius (Q), and
the p^r-power twist (P_r), together with the subgroup K generated by the
first two.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .elimination import decompose
from .errors import BadParams, TowerMismatch
from .fields import FieldElement, FieldTower, IndependentTuple, OrderedBasis
from .matrices import Mat


def _as_codes(x) -> tuple[tuple[int, ...], FieldTower]:
    """Normalise a vector argument (FieldElement sequence) to codes."""
    if isinstance(x, FieldElement):
        x = (x,)
    els = tuple(x)
    if not els:
        raise BadParams("empty vector")
    tw = els[0].tower
    for e in els:
        if e.tower is not tw:
            raise TowerMismatch("vector elements from different towers")
    return tuple(e.code for e in els), tw


def coords_codes(codes: Sequence[int], g: IndependentTuple) -> Mat:
    """Row i holds the F_q-coefficients of the element with code codes[i]
    in terms of g, read off the solver g kept; NotInSpan if there are none."""
    tower = g.tower
    return Mat(tower, decompose(g.solver, map(tower.fq_coords, codes)),
               subdeg=1, check=False)


def coords(w, g: IndependentTuple) -> Mat:
    """Expansion of w with respect to the independent tuple g.

    Row i holds the F_q-coefficients of w_i in terms of g; raises NotInSpan
    when some entry falls outside span_{F_q}(g).
    """
    codes, tower = _as_codes(w)
    if tower is not g.tower:
        raise TowerMismatch("vector and tuple from different towers")
    return coords_codes(codes, g)


def expand(x, b: OrderedBasis) -> Mat:
    """eps_b: row i of the result is the F_q-coordinate row of x_i."""
    return coords(x, b)


def compress_codes(X: Mat, b: OrderedBasis) -> tuple[int, ...]:
    tower = b.tower
    if X.tower is not tower:
        raise TowerMismatch("matrix and basis from different towers")
    if X.ncols != tower.m:
        raise BadParams(f"matrix has {X.ncols} columns, basis has {tower.m}")
    bcodes = [e.code for e in b.elements]
    add, mul = tower.add, tower.mul
    out = []
    for row in X.rows:
        s = 0
        for c, bc in zip(row, bcodes):
            if c:
                s = add(s, mul(c, bc))
        out.append(s)
    return tuple(out)


def compress(X: Mat, b: OrderedBasis) -> tuple[FieldElement, ...]:
    """eps_b^{-1}: row i maps to the field element with those coordinates."""
    tower = b.tower
    return tuple(FieldElement(tower, c) for c in compress_codes(X, b))


def mult_matrix(alpha: FieldElement, b: OrderedBasis) -> Mat:
    """M_alpha with eps_b(alpha*x) = eps_b(x) M_alpha; invertible iff alpha != 0."""
    tower = b.tower
    if alpha.tower is not tower:
        raise TowerMismatch("scalar and basis from different towers")
    return coords_codes([tower.mul(alpha.code, e.code) for e in b.elements], b)


def frobenius_matrix(b: OrderedBasis) -> Mat:
    """Q with eps_b(x^q) = eps_b(x) Q; has multiplicative order m."""
    tower = b.tower
    return coords_codes([tower.frob(e.code, tower.e) for e in b.elements], b)


def semilinear_matrix(b: OrderedBasis, r: int) -> Mat:
    """P_r with eps_b(x^(p^r)) = (eps_b(x) P_r)^(p^r), for 0 <= r < e.

    r is reduced modulo e; r = 0 yields the identity, matching the fact that
    the q-power itself is already covered by Q.
    """
    tower = b.tower
    r %= tower.e
    if r == 0:
        return Mat.identity(tower, tower.m)
    raised = coords_codes([tower.frob(e.code, r) for e in b.elements], b)
    return raised.frobenius(-r)


class KSubgroup:
    """K = <M_alpha> . <Q> inside GL_m(F_q), for alpha the tower generator.

    Every member factors uniquely as M_gamma Q^j with gamma nonzero and
    0 <= j < m, so membership is decided by peeling Q powers and matching
    the remainder against a multiplication matrix.
    """

    def __init__(self, basis: OrderedBasis):
        tower = basis.tower
        self.basis = basis
        self.tower = tower
        self._q_powers = [Mat.identity(tower, tower.m)]
        Q = frobenius_matrix(basis)
        for _ in range(tower.m - 1):
            self._q_powers.append(self._q_powers[-1] @ Q)
        self.Q = Q
        self.M_gen = mult_matrix(tower.generator, basis)

    def order(self) -> int:
        return self.tower.m * self.tower.mult_order

    def factor(self, M: Mat) -> tuple[int, int] | None:
        """Return (i, j) with M = M_(g^i) Q^j, or None if M is not in K."""
        tower = self.tower
        m = tower.m
        if M.shape() != (m, m) or M.tower is not tower:
            return None
        for j in range(m):
            N = M @ self._q_powers[(m - j) % m]
            gamma = compress_codes(Mat(tower, [N.rows[0]], subdeg=1, check=False),
                                   self.basis)[0]
            gamma = tower.div(gamma, self.basis.elements[0].code)
            if gamma == 0:
                continue
            if N == mult_matrix(FieldElement(tower, gamma), self.basis):
                return tower.log(gamma), j
        return None

    def contains(self, M: Mat) -> bool:
        return self.factor(M) is not None

    def enumerate(self) -> Iterator[Mat]:
        tower = self.tower
        for i in range(tower.mult_order):
            Mg = mult_matrix(tower.gen_power(i), self.basis)
            for j in range(tower.m):
                yield Mg @ self._q_powers[j]
