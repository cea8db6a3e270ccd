"""Basis expansion between F_{q^m}^l and l x m matrices over F_q.

The map eps_b writes each coordinate of a vector over the top field as an
F_q-row with respect to an ordered basis b, and eps_b^{-1} reassembles it.
The matrices that rm_to_mat and m_beta read are built by one rule: the
matrix of x -> (alpha x)^(p^gamma) in a tuple g has row i
coords((alpha g_i)^(p^gamma), g), twisted by sigma^-(gamma mod e).
"""

from __future__ import annotations

from typing import Sequence

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
    in a basis is unique, so M_alpha Q^j P_r for gamma = e*j + r is one
    call.  NotInSpan when an image leaves span(g).
    """
    tower = g.tower
    mul, frob = tower.mul, tower.frob
    images = [frob(mul(alpha, x.code), gamma) for x in g.elements]
    return coords_codes(images, g).frobenius(-(gamma % tower.e))
