"""Automorphism groups: equivalence maps that fix a code setwise.

For a Gabidulin code the linear rank-metric automorphism group has a known
analytic form: every member is [alpha, M_beta] where alpha is any nonzero
top-field scalar and M_beta realises multiplication by beta on the span of
the defining vector, with beta ranging over the largest subfield F_{q^d}
over which that span is a vector space.  Brute-force stabilizer filters are
provided alongside as oracles, and for the expanded matrix code the image
of the analytic group is a (generally proper) subgroup of the full matrix
stabilizer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd
from typing import Callable, Sequence

from .codes import GabidulinCode, MatrixCode, RankMetricCode, expand_code
from .errors import BadParams, NotInSpan, TooLarge
from .expansion import IndependentTuple, coords
from .fields import FieldElement, FieldTower, OrderedBasis
from .matrices import Mat
from .equivalence import (
    MatMap,
    RmMap,
    _gl_leading_one,
    _mat_image_equals,
    enumerate_mat_maps,
    group_order,
    mat_compose,
    rm_compose,
    rm_to_mat,
)


@dataclass(frozen=True)
class StabilizerDegree:
    """Largest d with span_{F_q}(g) an F_{q^d}-vector space, plus a witness
    generator of F_{q^d}^*."""

    d: int
    witness_beta: FieldElement


def stabilizer_degree(g: IndependentTuple) -> StabilizerDegree:
    """Search divisors of gcd(l, m) in decreasing order.

    Testing closure of the span under one multiplicative generator of the
    candidate subfield suffices: the span is F_q-linear, so closure under a
    generator beta gives closure under every polynomial in beta, which is
    all of F_{q^d}.
    """
    tower = g.tower
    n = tower.mult_order
    bound = gcd(len(g), tower.m)
    for d in sorted((d for d in range(1, bound + 1) if bound % d == 0),
                    reverse=True):
        beta = tower.gen_power(n // (tower.q**d - 1))
        if d == 1:
            return StabilizerDegree(1, beta)
        scaled = tuple(beta * x for x in g.elements)
        try:
            coords(scaled, g)
            return StabilizerDegree(d, beta)
        except NotInSpan:
            continue
    raise BadParams("unreachable: d = 1 always succeeds")


def m_beta(g: IndependentTuple, beta: FieldElement) -> Mat:
    """The l x l matrix over F_q with g . M_beta = beta g.

    Columns are the coordinate rows of the scaled entries with respect to g;
    NotInSpan when beta does not stabilise the span.  Invertible whenever
    beta is nonzero.
    """
    scaled = tuple(beta * x for x in g.elements)
    return coords(scaled, g).transpose()


@dataclass(frozen=True)
class AutGroup:
    """A finite group of equivalence maps fixing one code setwise.

    elements is the full enumeration in canonical coset form, sorted by
    key; complete=False marks groups that are only known to be a subgroup
    of the full stabilizer.
    """

    kind: str                      # "rm" or "mat"
    tower: FieldTower
    generators: tuple
    elements: tuple
    d: int | None = None
    complete: bool = True

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def keys(self) -> frozenset:
        return frozenset(f.key for f in self.elements)

    def contains(self, f) -> bool:
        return f.key in self.keys

    def same_elements(self, other: "AutGroup") -> bool:
        return self.kind == other.kind and self.keys == other.keys

    def is_closed(self) -> bool:
        """Exhaustive closure check under composition and inverse."""
        compose = rm_compose if self.kind == "rm" else mat_compose
        for f1 in self.elements:
            for f2 in self.elements:
                if compose(f1, f2).key not in self.keys:
                    return False
        return True

    def __repr__(self):
        return (f"AutGroup(kind={self.kind!r}, order={self.order}, "
                f"d={self.d}, complete={self.complete})")


def _greedy_generators(elements: Sequence, compose: Callable,
                       identity) -> tuple:
    """A small generating set, grown greedily with closure bookkeeping."""
    if len(elements) > 4096:
        return tuple(elements)
    gens: list = []
    closure = {identity.key: identity}
    for f in sorted(elements, key=lambda x: x.key):
        if f.key in closure:
            continue
        gens.append(f)
        frontier = list(closure.values())
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    h = compose(a, g)
                    if h.key not in closure:
                        closure[h.key] = h
                        nxt.append(h)
            frontier = nxt
        if len(closure) == len(elements):
            break
    return tuple(gens)


def _alpha_reps(tower: FieldTower) -> list[int]:
    """Coset representatives of F_{q^m}^* modulo F_q^*: g^0 .. g^(n'-1)."""
    n_reps = tower.mult_order // (tower.q - 1)
    return [tower._exp[i] for i in range(n_reps)]


def rm_aut_group(c: GabidulinCode, verify: bool = True) -> AutGroup:
    """The analytic linear rank-metric automorphism group of a Gabidulin code.

    Elements are the canonical cosets [alpha, M_beta] for alpha over the
    scalar-quotient representatives and beta over F_{q^d}^*; the order is
    (q^m - 1)(q^d - 1)/(q - 1).  Requires k < l (for k = l the code is the
    full ambient space and the brute-force stabilizer is returned instead).
    """
    tower = c.tower
    if c.k == c.l:
        return rm_aut_brute(c)
    sd = stabilizer_degree(c.g)
    betas = [x for x in tower.subfield(sd.d) if x.code]
    reps = _alpha_reps(tower)
    elements = []
    for beta in betas:
        Mb = m_beta(c.g, beta)
        if verify and not all(c.contains_codes(Mb.vec_mul(row))
                              for row in c.gen.rows):
            raise BadParams("analytic automorphism failed to fix the code")
        for alpha in reps:
            elements.append(RmMap(alpha, Mb))
    expected = (tower.mult_order * (tower.q**sd.d - 1)) // (tower.q - 1)
    if len({f.key for f in elements}) != expected:
        raise BadParams("canonical coset collapse went wrong")
    elements.sort(key=lambda f: f.key)
    gens = (RmMap(tower.generator.code, Mat.identity(tower, c.l)),
            RmMap(1, m_beta(c.g, sd.witness_beta)))
    return AutGroup("rm", tower, gens, tuple(elements), d=sd.d)


def rm_aut_brute(c: RankMetricCode, semilinear: bool = False,
                 guard: int = 2**20) -> AutGroup:
    """Exact stabilizer of a rank-metric code inside the equivalence group.

    Filters the full canonical-coset enumeration by the fix-the-code
    predicate.  The predicate is evaluated once per (L, gamma) pair since
    the scalar part acts trivially on a linear code.
    """
    tower = c.tower
    mode = "rm-semilinear" if semilinear else "rm-linear"
    order = group_order(tower, c.l, mode)
    if order > guard:
        raise TooLarge(f"group order {order} exceeds guard {guard}")
    if c.size > guard:
        raise TooLarge(f"|code| = {c.size} exceeds guard {guard}")
    gammas = range(tower.degree) if semilinear else (0,)
    elements = []
    for gamma in gammas:
        for L in _gl_leading_one(tower, c.l):
            # [1, L, gamma] maps row x to (x L)^(p^gamma)
            images = (L.vec_mul(row) for row in c.gen.rows)
            if gamma:
                images = ([tower.frob(x, gamma) for x in img] for img in images)
            if all(map(c.contains_codes, images)):
                for alpha in range(1, tower.order):
                    elements.append(RmMap(alpha, L, gamma))
    elements.sort(key=lambda f: f.key)
    gens = _greedy_generators(elements, rm_compose,
                              RmMap.identity(tower, c.l))
    return AutGroup("rm", tower, gens, tuple(elements))


def mat_aut_subgroup(c: GabidulinCode, b: OrderedBasis,
                     verify: bool = True) -> AutGroup:
    """Image of the analytic rank-metric group under translation to matrix maps.

    A subgroup of the full matrix stabilizer of the expanded code, not
    claimed maximal (complete=False).  Each image map is verified to fix
    the expanded code when verify is set.
    """
    rm_group = rm_aut_group(c)
    mc = expand_code(c, b) if verify else None
    elements = []
    seen = set()
    for f in rm_group.elements:
        g = rm_to_mat(f, b)
        if g.key in seen:
            raise BadParams("translation collided on canonical cosets")
        seen.add(g.key)
        if verify and not _mat_image_equals(g, mc, mc):
            raise BadParams("translated automorphism failed to fix the code")
        elements.append(g)
    elements.sort(key=lambda f: f.key)
    gens = tuple(rm_to_mat(f, b) for f in rm_group.generators)
    return AutGroup("mat", c.tower, gens, tuple(elements), d=rm_group.d,
                    complete=False)


def mat_aut_brute(mc: MatrixCode, semilinear: bool = False,
                  guard: int = 2**22) -> AutGroup:
    """Exact stabilizer of a matrix code inside the matrix-equivalence group."""
    tower = mc.tower
    mode = "mat-semilinear" if semilinear else "mat-linear"
    order = group_order(tower, mc.l, mode, m=mc.m)
    if order > guard:
        raise TooLarge(f"group order {order} exceeds guard {guard}")
    if mc.size > guard:
        raise TooLarge(f"|code| = {mc.size} exceeds guard {guard}")
    elements = [f for f in enumerate_mat_maps(tower, mc.l, mc.m,
                                              semilinear=semilinear)
                if _mat_image_equals(f, mc, mc)]
    elements.sort(key=lambda f: f.key)
    gens = _greedy_generators(elements, mat_compose,
                              MatMap.identity(tower, mc.l, mc.m))
    return AutGroup("mat", tower, gens, tuple(elements))
