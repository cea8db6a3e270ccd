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
from dataclasses import InitVar, dataclass
from math import gcd

from .codes import DEFAULT_GUARD, GabidulinCode, MatrixCode, RankMetricCode, expand_code
from .errors import BadParams, NotInSpan, TooLarge, TowerMismatch
from .expansion import _image_matrix
from .fields import FieldElement, FieldTower, IndependentTuple, OrderedBasis
from .matrices import Mat
from .equivalence import (
    RmMap,
    equivalence_maps,
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
    return _degree_search(g)[0]


def _degree_search(g: IndependentTuple) -> tuple[StabilizerDegree, Mat]:
    """stabilizer_degree with the witness's M_beta, solved once: at d = 1
    beta lies in F_q and always stabilises the span."""
    tower = g.tower
    n = tower.mult_order
    bound = gcd(len(g), tower.m)
    for d in sorted((d for d in range(1, bound + 1) if bound % d == 0),
                    reverse=True):
        beta = tower.gen_power(n // (tower.q**d - 1))
        try:
            return StabilizerDegree(d, beta), m_beta(g, beta)
        except NotInSpan:
            continue
    raise BadParams("unreachable: d = 1 always succeeds")


def m_beta(g: IndependentTuple, beta: FieldElement) -> Mat:
    """The l x l matrix over F_q with g . M_beta = beta g.

    Columns are the coordinate rows of the scaled entries with respect to g;
    NotInSpan when beta does not stabilise the span.  Invertible whenever
    beta is nonzero.
    """
    if beta.tower is not g.tower:
        raise TowerMismatch("scalar and tuple from different towers")
    return _image_matrix(g, beta.code, 0).transpose()


@dataclass(frozen=True)
class AutGroup:
    """A finite group of equivalence maps fixing one code setwise.

    elements: every member in canonical coset form, sorted here by key.
    generators: the gens handed in, else picked greedily on first read.
    complete=False: known only to be a subgroup of the full stabilizer.
    """

    kind: str                      # "rm" or "mat"
    tower: FieldTower
    elements: tuple
    d: int | None = None
    complete: bool = True
    gens: InitVar[tuple | None] = None

    def __post_init__(self, gens):
        vars(self)["elements"] = tuple(sorted(self.elements, key=lambda f: f.key))
        if gens is not None:
            vars(self)["generators"] = gens  # shadows the cached property

    @functools.cached_property
    def generators(self) -> tuple | None:
        return _greedy_generators(self)

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

    def __repr__(self):
        return (f"AutGroup(kind={self.kind!r}, order={self.order}, "
                f"d={self.d}, complete={self.complete})")


def _greedy_generators(group: AutGroup) -> tuple | None:
    """The generators of group: in key order, each element outside the
    subgroup H generated by those before it; None when a product leaves the
    elements or they hold no identity.  H grows by whole right cosets H r
    (Dimino's closure; Butler 1991): each product r s of a representative
    and a generator that falls outside the cosets so far is a new
    representative, so each element is composed once.
    """
    closure = {f.key: f for f in group.elements if f.is_identity()}  # H
    if not closure:
        return None
    gens: list = []
    for g in group.elements:
        if g.key in closure:
            continue
        gens.append(g)
        identity, *rest = closure.values()  # h = identity gives r itself
        reps = [identity]
        for r in reps:  # grows while it is walked; H s = H for the old s
            for s in gens[-1:] if r is identity else gens:
                rs = r.compose(s)
                if rs.key in closure:
                    continue
                coset = [rs] + [h.compose(rs) for h in rest]
                if any(f.key not in group.keys for f in coset):
                    return None
                reps.append(rs)
                closure.update((f.key, f) for f in coset)
    return tuple(gens)


def rm_aut_group(c: GabidulinCode) -> AutGroup:
    """The analytic linear rank-metric automorphism group of a Gabidulin code.

    Elements are the canonical cosets [alpha, M_beta] for alpha over the
    scalar-quotient representatives and beta over F_{q^d}^*; the order is
    (q^m - 1)(q^d - 1)/(q - 1).  Requires k < l: for k = l the code is the
    full ambient space, whose group rm_aut_brute gives under its guard.
    """
    tower = c.tower
    if c.k == c.l:
        raise BadParams("k = l: the full space has no analytic group; use rm_aut_brute")
    sd, Mb = _degree_search(c.g)
    # g^0 .. g^(n-1) represent the n cosets of F_q^* in F_{q^m}^*
    reps = tower._exp[:tower.mult_order // (tower.q - 1)]
    elements, mul, M = [], tower.mul, Mat.identity(tower, c.l)
    for _ in range(tower.q**sd.d - 1):  # beta^i over F_{q^d}^*, M_{beta^i} = M_beta^i
        f = RmMap(1, M)  # M_beta^i in canonical form
        if not maps_onto(f, c, c):
            raise BadParams("analytic automorphism failed to fix the code")
        elements += [RmMap(mul(alpha, f.alpha), f.L) for alpha in reps]
        M = M @ Mb
    expected = (tower.mult_order * (tower.q**sd.d - 1)) // (tower.q - 1)
    if len({f.key for f in elements}) != expected:
        raise BadParams("canonical coset collapse went wrong")
    gens = (RmMap(tower.generator.code, Mat.identity(tower, c.l)), RmMap(1, Mb))
    return AutGroup("rm", tower, elements, d=sd.d, gens=gens)


def _brute_group(code, mode: str, guard: int) -> AutGroup:
    """The stabilizer of code: equivalence_maps of code onto itself, which
    AutGroup sorts by key, generators left to their first read.  The guard
    bounds, before |code|, what equivalence_maps walks: in rank-metric modes
    the group order (every alpha is built); in matrix modes the classes
    (gamma, T?, L) solved and the running total of q^dim over their
    kernels, so the group order may exceed it."""
    maps = equivalence_maps(code, code, mode, guard)
    if code.size > guard:
        raise TooLarge(f"|code| = {code.size} exceeds guard {guard}")
    return AutGroup(mode.partition("-")[0], code.tower, maps)


def rm_aut_brute(c: RankMetricCode, semilinear: bool = False,
                 guard: int = DEFAULT_GUARD) -> AutGroup:
    """Exact stabilizer of a rank-metric code inside the equivalence group:
    per gamma, the L with (C L)^(p^gamma) = C from one F_q-kernel (for
    gamma = 0 the units of the right idealiser of C), with every scalar."""
    return _brute_group(c, "rm-semilinear" if semilinear else "rm-linear", guard)


def mat_aut_subgroup(c: GabidulinCode, b: OrderedBasis) -> AutGroup:
    """Image of the analytic rank-metric group under translation to matrix maps.

    A subgroup of the full matrix stabilizer of the expanded code, not
    claimed maximal (complete=False).  Each image map is verified to fix
    the expanded code.
    """
    rm_group = rm_aut_group(c)
    elements = [rm_to_mat(f, b) for f in rm_group.elements]
    if len({g.key for g in elements}) != len(elements):
        raise BadParams("translation collided on canonical cosets")
    mc = expand_code(c, b)
    if not all(maps_onto(g, mc, mc) for g in elements):
        raise BadParams("translated automorphism failed to fix the code")
    return AutGroup("mat", c.tower, elements, d=rm_group.d, complete=False,
                    gens=tuple(rm_to_mat(f, b) for f in rm_group.generators))


def mat_aut_brute(mc: MatrixCode, semilinear: bool = False,
                  guard: int = DEFAULT_GUARD) -> AutGroup:
    """Exact stabilizer of a matrix code inside the matrix-equivalence group:
    per (gamma, T?, L), the M with (L C^T? M)^(p^gamma) = C from one
    F_q-kernel."""
    return _brute_group(mc, "mat-semilinear" if semilinear else "mat-linear", guard)
