"""Automorphism groups: equivalence maps that fix a code setwise.

For a Gabidulin code the linear rank-metric automorphism group has a known
analytic form: every member is [alpha, M_beta] where alpha is any nonzero
top-field scalar and M_beta realises multiplication by beta on the span of
the defining vector, with beta ranging over the largest subfield F_{q^d}
over which that span is a vector space.  Exact stabilizers over the whole
group are provided alongside as oracles (they solve for the L or M parts
rather than test maps one by one), and for the expanded matrix code the
image of the analytic group is a (generally proper) subgroup of the full
matrix stabilizer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .codes import DEFAULT_GUARD, GabidulinCode, MatrixCode, RankMetricCode, expand_code
from .errors import BadParams, NotInSpan, TooLarge
from .expansion import coords
from .fields import FieldElement, FieldTower, IndependentTuple, OrderedBasis
from .matrices import Mat
from .equivalence import (
    RmMap,
    equivalence_maps,
    group_order,
    maps_onto,
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
        """Exhaustive closure check under composition.

        For a finite nonempty set of invertible maps that is the whole group
        test: the inverse of f is a power of f, so it lies in the set too.
        """
        for f1 in self.elements:
            for f2 in self.elements:
                if f1.compose(f2).key not in self.keys:
                    return False
        return True

    def __repr__(self):
        return (f"AutGroup(kind={self.kind!r}, order={self.order}, "
                f"d={self.d}, complete={self.complete})")


def _greedy_generators(elements: Sequence) -> tuple:
    """A small generating set, grown greedily from the identity."""
    if len(elements) > 4096:
        return tuple(elements)
    gens: list = []
    closure = {f.key: f for f in elements if f.is_identity()}
    for f in sorted(elements, key=lambda x: x.key):
        if f.key in closure:
            continue
        gens.append(f)
        frontier = list(closure.values())
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    h = a.compose(g)
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


def rm_aut_group(c: GabidulinCode) -> AutGroup:
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
        if not maps_onto(RmMap(1, Mb), c, c):
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


def _brute_group(kind: str, code, semilinear: bool, guard: int,
                 m: int | None = None) -> AutGroup:
    """The stabilizer of code: its equivalence_maps onto itself, by key.

    The guard bounds the group order, and so the GL lists read and the maps
    built, and the code size."""
    mode = f"{kind}-{'semilinear' if semilinear else 'linear'}"
    order = group_order(code.tower, code.l, mode, m=m)
    if order > guard:
        raise TooLarge(f"group order {order} exceeds guard {guard}")
    if code.size > guard:
        raise TooLarge(f"|code| = {code.size} exceeds guard {guard}")
    elements = sorted((f for f, _ in equivalence_maps(code, code, mode)),
                      key=lambda f: f.key)
    gens = _greedy_generators(elements)
    return AutGroup(kind, code.tower, gens, tuple(elements))


def rm_aut_brute(c: RankMetricCode, semilinear: bool = False,
                 guard: int = DEFAULT_GUARD) -> AutGroup:
    """Exact stabilizer of a rank-metric code inside the equivalence group:
    per gamma, the L with (C L)^(p^gamma) = C from one F_q-kernel (for
    gamma = 0 the units of the right idealiser of C), with every scalar."""
    return _brute_group("rm", c, semilinear, guard)


def mat_aut_subgroup(c: GabidulinCode, b: OrderedBasis) -> AutGroup:
    """Image of the analytic rank-metric group under translation to matrix maps.

    A subgroup of the full matrix stabilizer of the expanded code, not
    claimed maximal (complete=False).  Each image map is verified to fix
    the expanded code.
    """
    rm_group = rm_aut_group(c)
    elements = sorted((rm_to_mat(f, b) for f in rm_group.elements), key=lambda g: g.key)
    if len({g.key for g in elements}) != len(elements):
        raise BadParams("translation collided on canonical cosets")
    mc = expand_code(c, b)
    if not all(maps_onto(g, mc, mc) for g in elements):
        raise BadParams("translated automorphism failed to fix the code")
    gens = tuple(rm_to_mat(f, b) for f in rm_group.generators)
    return AutGroup("mat", c.tower, gens, tuple(elements), d=rm_group.d,
                    complete=False)


def mat_aut_brute(mc: MatrixCode, semilinear: bool = False,
                  guard: int = 2**22) -> AutGroup:
    """Exact stabilizer of a matrix code inside the matrix-equivalence group:
    per (gamma, T?, L), the M with (L C^T? M)^(p^gamma) = C from one
    F_q-kernel."""
    return _brute_group("mat", mc, semilinear, guard, m=mc.m)
