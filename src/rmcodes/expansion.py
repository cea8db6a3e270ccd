"""Basis expansion between F_{q^m}^l and l x m matrices over F_q.

The map eps_b writes each coordinate of a vector over the top field as an
F_q-row with respect to an ordered basis b, and eps_b^{-1} reassembles it.
The structured matrices that realise, under eps_b, multiplication by a
scalar (M_alpha), the q-power Frobenius (Q) and the p^r-power twist (P_r),
and the members of the subgroup K they generate, are all built by one rule:
the matrix of x -> (alpha x)^(p^gamma) in a tuple g has row i
coords((alpha g_i)^(p^gamma), g), twisted by sigma^-(gamma mod e).
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


def _image_matrix(g: IndependentTuple, alpha: int, gamma: int) -> Mat:
    """The matrix M of x -> (alpha x)^(p^gamma) on span(g), with
    coords((alpha x)^(p^gamma), g) = (coords(x, g) M)^(p^r), r = gamma mod e.

    Row i is coords((alpha g_i)^(p^gamma), g), twisted by sigma^-r since the
    F_q-coefficients of x are raised to p^r; the matrix of a semilinear map
    in a basis is unique, so every structured matrix here is one call.
    NotInSpan when an image leaves span(g).
    """
    tower = g.tower
    mul, frob = tower.mul, tower.frob
    images = [frob(mul(alpha, x.code), gamma) for x in g.elements]
    return coords_codes(images, g).frobenius(-(gamma % tower.e))


def mult_matrix(alpha: FieldElement, b: OrderedBasis) -> Mat:
    """M_alpha with eps_b(alpha*x) = eps_b(x) M_alpha; invertible iff alpha != 0."""
    if alpha.tower is not b.tower:
        raise TowerMismatch("scalar and basis from different towers")
    return _image_matrix(b, alpha.code, 0)


def frobenius_matrix(b: OrderedBasis) -> Mat:
    """Q with eps_b(x^q) = eps_b(x) Q; has multiplicative order m."""
    return _image_matrix(b, 1, b.tower.e)


def semilinear_matrix(b: OrderedBasis, r: int) -> Mat:
    """P_r with eps_b(x^(p^r)) = (eps_b(x) P_r)^(p^r); r is reduced modulo e,
    so r = 0 yields the identity (the q-power itself is covered by Q)."""
    return _image_matrix(b, 1, r % b.tower.e)


class KSubgroup:
    """K = <M_alpha> . <Q> inside GL_m(F_q), for alpha the tower generator.

    Every member factors uniquely as M_gamma Q^j with gamma nonzero and
    0 <= j < m: it is the matrix of x -> (gamma x)^(q^j), whose row 0 is
    the expansion of (gamma b_0)^(q^j), so each j names one candidate gamma.
    """

    def __init__(self, basis: OrderedBasis):
        tower = basis.tower
        self.basis = basis
        self.tower = tower
        self.Q = frobenius_matrix(basis)
        self.M_gen = mult_matrix(tower.generator, basis)

    def order(self) -> int:
        return self.tower.m * self.tower.mult_order

    def factor(self, M: Mat) -> tuple[int, int] | None:
        """Return (i, j) with M = M_(g^i) Q^j, or None if M is not in K."""
        tower, b = self.tower, self.basis
        m, e = tower.m, tower.e
        if M.shape() != (m, m) or M.tower is not tower:
            return None
        y = compress_codes(Mat(tower, M.rows[:1], subdeg=1, check=False), b)[0]
        if y == 0:
            return None
        b0 = b.elements[0].code
        for j in range(m):
            gamma = tower.div(tower.frob(y, -e * j), b0)
            if M == _image_matrix(b, gamma, e * j):
                return tower.log(gamma), j
        return None

    def contains(self, M: Mat) -> bool:
        return self.factor(M) is not None

    def enumerate(self) -> Iterator[Mat]:
        tower, b = self.tower, self.basis
        for i in range(tower.mult_order):
            gamma = tower.gen_power(i).code
            for j in range(tower.m):
                yield _image_matrix(b, gamma, tower.e * j)
