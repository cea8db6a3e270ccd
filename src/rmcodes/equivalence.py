"""Equivalence maps for rank-metric and matrix codes, with group structure.

Rank-metric maps act on row vectors over F_{q^m} as x -> (alpha x L)^(s^g)
for a nonzero scalar alpha, L in GL_l(F_q), and a power s^g of the p-power
Frobenius; matrix maps act on l x m matrices over F_q as
A -> (L A^T? M)^(s^g) with an optional transpose when l = m.  Both families
are kept in canonical coset form: scaling by F_q* is normalised so that the
first nonzero entry of L (row-major) equals one, which pins one
representative per coset of N = {(lambda, lambda^-1 I)} resp.
{(lambda I_l, lambda^-1 I_m)}.

Conventions are right-action throughout: f1.compose(f2) applies f1 first,
and the semi-linear group law (A1; g1)(A2; g2) = (A1 A2^(g1^-1); g1 g2) is
verified by an action-comparison property test rather than assumed.

Parts from outside the library enter through rm_map, mat_map and
parse_map, which check them once; the constructors trust their parts, so
products, inverses, enumerations and solves build maps without a re-check.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .codes import DEFAULT_GUARD, MatrixCode, RankMetricCode, min_rank_distance, parse_keyed
from .elimination import Span, flatten, span
from .errors import (
    BadParams,
    IllegalTranspose,
    ShapeMismatch,
    TooLarge,
    TowerMismatch,
)
from .expansion import _image_matrix
from .fields import (
    FieldElement,
    FieldTower,
    OrderedBasis,
    format_element,
    parse_element,
    parse_int,
)
from .matrices import (
    Mat,
    _gl_members,
    enumerate_gl,
    format_matrix,
    gl_order,
    gl_rank,
    inverse,
    parse_matrix,
    rank,
)

MODES = ("rm-linear", "rm-semilinear", "mat-linear", "mat-semilinear")


def _first_nonzero(M: Mat) -> int:
    return next((c for row in M.rows for c in row if c), 0)


def _scaled(M: Mat, c: int) -> Mat:
    t = M.tower
    return Mat(t, [[t.mul(c, x) for x in r] for r in M.rows], subdeg=1, check=False)


class _Map:
    """What both map kinds share: equality by canonical key, and the group
    law's entry checks and order loop.  A kind supplies key, shape,
    is_identity, _compose and inverse."""

    __slots__ = ()

    def compose(self, other):
        """The map applying self first, then other."""
        if type(other) is not type(self):
            raise BadParams("cannot compose rm and mat maps")
        if other.tower is not self.tower:
            raise TowerMismatch("maps from different towers")
        if other.shape != self.shape:
            raise ShapeMismatch("maps on different spaces")
        return self._compose(other)

    def order(self) -> int:
        """The least k >= 1 with f^k the identity; TooLarge once k passes
        DEFAULT_GUARD: over F_{2^20}, alpha = g with an L of order 7 gives
        a map of order 7 (2^20 - 1)."""
        acc, k = self, 1
        while not acc.is_identity():
            if k == DEFAULT_GUARD:
                raise TooLarge(f"map order exceeds guard {DEFAULT_GUARD}")
            acc, k = acc._compose(self), k + 1
        return k

    def __eq__(self, other):
        return (type(other) is type(self) and self.tower is other.tower
                and self.key == other.key)

    def __hash__(self):
        return hash((id(self.tower), self.key))

    def __repr__(self):
        return format_map(self)


class RmMap(_Map):
    """Canonical coset [alpha, L] with an optional Frobenius power gamma.

    Acts on row vectors of length l over the top field by
    x -> (alpha * x * L)^(p^gamma); gamma = 0 is the linear case.  The
    constructor only scales the parts to canonical form: parts from outside
    enter through rm_map or parse_map, which check them, and products and
    inverses of maps are maps.
    """

    __slots__ = ("tower", "l", "alpha", "L", "gamma")

    def __init__(self, alpha: int, L: Mat, gamma: int = 0):
        tower = L.tower
        c = _first_nonzero(L)
        if c != 1:
            L, alpha = _scaled(L, tower.inv(c)), tower.mul(alpha, c)
        self.tower, self.l, self.alpha, self.L = tower, L.nrows, alpha, L
        self.gamma = gamma % tower.degree

    @classmethod
    def identity(cls, tower: FieldTower, l: int) -> "RmMap":
        return cls(1, Mat.identity(tower, l))

    @property
    def key(self) -> tuple:
        return (self.alpha, self.L.rows, self.gamma)

    @property
    def shape(self) -> tuple:
        return (self.l,)

    def is_identity(self) -> bool:
        return self.alpha == 1 and self.gamma == 0 and self.L.is_identity()

    def apply_codes(self, vec: Sequence[int]) -> tuple[int, ...]:
        t = self.tower
        if len(vec) != self.l:
            raise ShapeMismatch(f"vector length {len(vec)} != {self.l}")
        alpha, gamma = self.alpha, self.gamma
        return tuple([t.frob(t.mul(alpha, s), gamma) for s in self.L.vec_mul(vec)])

    def _compose(self, other: "RmMap") -> "RmMap":
        t, r = self.tower, self.gamma
        alpha = t.mul(self.alpha, t.frob(other.alpha, -r))
        return RmMap(alpha, self.L @ other.L.frobenius(-r), r + other.gamma)

    def inverse(self) -> "RmMap":
        t, r = self.tower, self.gamma
        return RmMap(t.frob(t.inv(self.alpha), r), inverse(self.L).frobenius(r), -r)


def _check_parts(alpha: FieldElement | None, transpose: bool, **parts: Mat) -> None:
    """The one check on map parts from outside: one tower, alpha nonzero,
    every part square, over the base field and invertible, and the
    transpose flag only when l = m."""
    tower = parts["L"].tower
    if any(x.tower is not tower for x in (alpha, *parts.values()) if x is not None):
        raise TowerMismatch("map parts from different towers")
    if alpha is not None and alpha.code == 0:
        raise BadParams("alpha must be nonzero")
    for name, P in parts.items():
        if P.nrows != P.ncols:
            raise BadParams(f"{name} must be square")
        if P.subdeg != 1:
            raise BadParams(f"{name} must be over the base field")
    if transpose and parts["L"].nrows != parts["M"].nrows:
        raise IllegalTranspose("transpose flag requires l = m")
    for name, P in parts.items():
        if rank(P) != P.nrows:
            raise BadParams(f"{name} must be invertible")


def rm_map(alpha: FieldElement, L: Mat, gamma: int = 0) -> RmMap:
    """The rank-metric map [alpha, L] with Frobenius power gamma, from
    checked parts."""
    _check_parts(alpha, False, L=L)
    return RmMap(alpha.code, L, gamma)


def rm_apply(f: RmMap, x):
    """Apply a rank-metric map to a vector of field elements or a code."""
    if isinstance(x, RankMetricCode):
        if x.tower is not f.tower:
            raise TowerMismatch("code from a different tower")
        rows = [f.apply_codes(row) for row in x.gen.rows]
        return RankMetricCode(Mat(f.tower, rows, subdeg=f.tower.m, check=False))
    els = tuple(x)
    if any(e.tower is not f.tower for e in els):
        raise TowerMismatch("vector from a different tower")
    out = f.apply_codes([e.code for e in els])
    return tuple(FieldElement(f.tower, c) for c in out)


class MatMap(_Map):
    """Canonical coset (transpose?, [L, M]) with a Frobenius power gamma.

    Acts on l x m matrices over F_q by A -> (L A^T? M)^(p^gamma); the
    transpose flag is legal only for l = m, and gamma runs modulo e.  As
    for RmMap, the constructor only scales the parts to canonical form;
    mat_map and parse_map check parts from outside.
    """

    __slots__ = ("tower", "l", "m", "transpose", "L", "M", "gamma")

    def __init__(self, transpose: bool, L: Mat, M: Mat, gamma: int = 0):
        tower = L.tower
        c = _first_nonzero(L)
        if c != 1:
            L, M = _scaled(L, tower.inv(c)), _scaled(M, c)
        self.tower, self.l, self.m, self.transpose = tower, L.nrows, M.nrows, transpose
        self.L, self.M, self.gamma = L, M, gamma % tower.e

    @classmethod
    def identity(cls, tower: FieldTower, l: int, m: int) -> "MatMap":
        return cls(False, Mat.identity(tower, l), Mat.identity(tower, m))

    @property
    def key(self) -> tuple:
        return (self.transpose, self.L.rows, self.M.rows, self.gamma)

    @property
    def shape(self) -> tuple:
        return (self.l, self.m)

    def is_identity(self) -> bool:
        return (not self.transpose and self.gamma == 0
                and self.L.is_identity() and self.M.is_identity())

    def apply_mat(self, A: Mat) -> Mat:
        if A.shape() != (self.l, self.m) or A.subdeg != 1:
            raise ShapeMismatch(
                f"matrix shape {A.shape()} does not match map ({self.l}, {self.m})")
        image = self.L @ (A.transpose() if self.transpose else A) @ self.M
        return image.frobenius(self.gamma)

    def _compose(self, other: "MatMap") -> "MatMap":
        """Transpose flags compose by XOR."""
        r, L1, M1 = self.gamma, self.L, self.M
        if other.transpose:  # (L1 A M1)^T = M1^T A^T L1^T
            L1, M1 = M1.transpose(), L1.transpose()
        return MatMap(self.transpose != other.transpose, other.L.frobenius(-r) @ L1,
                      M1 @ other.M.frobenius(-r), r + other.gamma)

    def inverse(self) -> "MatMap":
        r, Li, Mi = self.gamma, inverse(self.L), inverse(self.M)
        if self.transpose:  # L A^T M = B gives A = M^-T B^T L^-T
            Li, Mi = Mi.transpose(), Li.transpose()
        return MatMap(self.transpose, Li.frobenius(r), Mi.frobenius(r), -r)


def mat_map(L: Mat, M: Mat, transpose: bool = False, gamma: int = 0) -> MatMap:
    """The matrix map (T?, [L, M]) with Frobenius power gamma, from checked
    parts."""
    _check_parts(None, transpose, L=L, M=M)
    return MatMap(transpose, L, M, gamma)


def mat_apply(f: MatMap, A):
    """Apply a matrix map to a single matrix or a whole matrix code."""
    if isinstance(A, MatrixCode):
        basis = [f.apply_mat(B) for B in A.basis]
        return MatrixCode(A.tower, A.l, A.m, basis)
    return f.apply_mat(A)


def rm_to_mat(f: RmMap, b: OrderedBasis) -> MatMap:
    """Translate a rank-metric map to the matrix map it induces under eps_b.

    The image is (L^T, M) with M the matrix of x -> (alpha x)^(p^gamma) in b
    (for gamma = e*j + r this is M_alpha Q^j P_r) and the residual Frobenius
    power r, making the square
    expand(rm_apply(f, x)) = mat_apply(rm_to_mat(f), expand(x)) commute.
    """
    if b.tower is not f.tower:
        raise TowerMismatch("basis from a different tower")
    return MatMap(False, f.L.transpose(), _image_matrix(b, f.alpha, f.gamma), f.gamma)


# ---------------------------------------------------------------------------
# group enumeration and orders
# ---------------------------------------------------------------------------

def _canonical_parts(tower: FieldTower, l: int, mode: str, m: int | None = None):
    """(gammas, flags, forms, n): the one definition of a mode's group.  Its
    canonical maps run, in enumeration order, over gamma, the transpose flag
    (matrix modes with l = m), the forms = |GL_l|/(q-1) leading-one L of
    enumerate_gl, then n inner parts: alpha by code (rank-metric modes) or M
    over enumerate_gl (matrix modes, m the column count)."""
    if mode not in MODES:
        raise BadParams(f"unknown mode {mode!r}; choose from {MODES}")
    rm, q = mode.startswith("rm"), tower.q
    if not rm and m is None:
        raise BadParams("matrix modes need the column count m")
    gammas = range(tower.degree if rm else tower.e) if mode.endswith("semilinear") else (0,)
    flags = (False, True) if not rm and l == m else (False,)
    return gammas, flags, gl_order(q, l) // (q - 1), tower.order - 1 if rm else gl_order(q, m)


def group_order(tower: FieldTower, l: int, mode: str, m: int | None = None) -> int:
    """The order of the chosen equivalence group, the product of its canonical
    parts.  For rank-metric modes m is the extension degree of the tower;
    for matrix modes m is the codeword column count and must be supplied."""
    gammas, flags, _, n = _canonical_parts(tower, l, mode, m)
    return len(gammas) * len(flags) * gl_order(tower.q, l) * n // (tower.q - 1)


def _walk_order(tower: FieldTower, l: int, mode: str, guard: int, m: int | None = None):
    """The canonical parts, once the walk of equivalence_maps passes the guard
    checks made before its first solve.  First the shape bound: |GL_n(F_q)|
    >= q^(n(n-1)/2), for n = l and in matrix modes n = max(l, m), refuses a
    shape whose order is then never computed or formatted.  Rank-metric
    modes (m None) build every alpha, so the order itself is bounded.
    Matrix modes count the classes (gamma, T?, L) walked, one solve each."""
    n = max(l, m or 0)
    bits = (tower.q.bit_length() - 1) * n * (n - 1) // 2
    if bits >= guard.bit_length():
        raise TooLarge(f"group order of at least 2^{bits} exceeds guard {guard}")
    parts = gammas, flags, forms, _ = _canonical_parts(tower, l, mode, m)
    if m is None:
        if (order := group_order(tower, l, mode)) > guard:
            raise TooLarge(f"group order {order} exceeds guard {guard}")
    elif (classes := len(gammas) * len(flags) * forms) > guard:
        raise TooLarge(f"{classes} classes (gamma, T?, L) to solve exceed guard {guard}")
    return parts


def enumerate_rm_maps(tower: FieldTower, l: int,
                      semilinear: bool = False) -> Iterator[RmMap]:
    """Every canonical coset once: gamma outer, then L (lexicographic among
    leading-one representatives), then alpha by code."""
    gammas = _canonical_parts(tower, l, "rm-semilinear" if semilinear else "rm-linear")[0]
    for gamma in gammas:
        for L in enumerate_gl(tower, l, leading_one=True):
            for alpha in range(1, tower.order):
                yield RmMap(alpha, L, gamma)


def enumerate_mat_maps(tower: FieldTower, l: int, m: int,
                       semilinear: bool = False) -> Iterator[MatMap]:
    """Every canonical coset once: gamma, transpose flag, L (leading-one), M."""
    gammas, flags, _, _ = _canonical_parts(
        tower, l, "mat-semilinear" if semilinear else "mat-linear", m)
    for gamma, flag in itertools.product(gammas, flags):
        for L in enumerate_gl(tower, l, leading_one=True):
            for M in enumerate_gl(tower, m):
                yield MatMap(flag, L, M, gamma)


# ---------------------------------------------------------------------------
# equivalence testing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivResult:
    """Outcome of an equivalence search over the whole group."""

    equivalent: bool
    witness: object | None
    checked: int
    """The witness's place in the canonical enumeration, counted from 1
    with the identity moved to the front: 1 for the identity, else
    i + 2 - (i > map_index(identity)) for i = map_index(witness); the group
    order when no witness exists; 0 when a size, shape or distance
    pre-filter decided."""
    mode: str
    reason: str

    def __bool__(self):
        return self.equivalent


def maps_onto(f, c1, c2) -> bool:
    """Whether f, a map of the codes' kind, carries C1 onto C2: f is
    injective, so when the sizes agree and it maps C1's generators into C2."""
    if c1.size != c2.size:
        return False
    if isinstance(f, RmMap):
        return all(c2.contains_codes(f.apply_codes(row)) for row in c1.gen.rows)
    return all(c2.contains(f.apply_mat(B)) for B in c1.basis)


def _common_space(c1, c2, mode: str) -> tuple | None:
    """(l, m) shared by both codes (m is None in rank-metric modes), else None."""
    if mode not in MODES:
        raise BadParams(f"unknown mode {mode!r}; choose from {MODES}")
    rm = mode.startswith("rm")
    name, kind = ("rank-metric", RankMetricCode) if rm else ("matrix", MatrixCode)
    if not (isinstance(c1, kind) and isinstance(c2, kind)):
        raise BadParams(f"{name} modes need {name} codes")
    space = (c1.l, None if rm else c1.m)
    return space if c1.tower is c2.tower and space == (c2.l, None if rm else c2.m) else None


def _residuals(target: Span) -> list[list[int]]:
    """The unit vectors reduced modulo target, in order, each without the
    target's pivot columns, where every residual is zero."""
    n, pivots = target.width, target.pivots
    free = [k for k in range(n) if k + 1 not in pivots]
    units = (tuple(int(i == k) for i in range(n)) for k in range(n))
    return [[u[k] for k in free] for u in map(target.reduce, units)]


def _rm_solve(c1, c2, gamma: int) -> list:
    """An F_q-basis, as rows of l^2 row-major entries, of the l x l matrices
    L with x L in sigma^-gamma(C2) for each generator row x of C1: the
    kernel of one linear system over F_q in the entries of L.

    Entry (i, j) of L adds x_i e_j for each x, reduced modulo the target:
    x_i u_j for the residual u_j of e_j.  Its row, the F_q-coordinates of
    x_i u_j for every x and then its own unit, is packed into the kernel's
    form once; one solve per gamma leaves no table to reuse.
    """
    t, l, gens = c1.tower, c1.l, c1.gen.rows
    target = span(t, l, t.m, ([t.frob(y, -gamma) for y in row] for row in c2.gen.rows))
    form = span(t, (l - target.rank) * t.m * len(gens), extra=l * l)
    residuals = _residuals(target)
    return form.relations([
        form.pack(flatten(t.fq_coords(t.mul(x[i], y)) for x in gens for y in u)
                  + (0,) * (i * l + j) + (1,))
        for i in range(l) for j, u in enumerate(residuals)])


def _mat_solves(c1, c2, gamma: int, flag: bool) -> Iterator[tuple[Mat, list]]:
    """Each leading-one L in enumeration order, with an F_q-basis, as rows of
    m^2 row-major entries, of the m x m matrices M with L B^T? M in
    sigma^-gamma(C2) for each B in C1's basis: one linear system over F_q
    in the entries of M per L.

    Entry (a, b) of M adds L B^T? E_ab = sum_{r,i} L_ri B^T?_ia E_rb for
    each B, reduced modulo the target.  So the table row (a, b) holds, for
    each (r, i), the residual rows B^T?_ia U_rb side by side over the basis
    (U_rb is E_rb reduced), then the row's own unit in the extra columns;
    each L's system is those rows combined with L's entries and a one.
    """
    tower, l, m = c1.tower, c1.l, c1.m
    parts = [B.transpose() if flag else B for B in c1.basis]
    target = span(tower, l * m, 1, (flatten(B.frobenius(-gamma).rows) for B in c2.basis))
    w = l * m - target.rank
    form = span(tower, w * len(parts), extra=m * m)
    placed = [[form.pack(u, j * w) for j in range(len(parts))] for u in _residuals(target)]
    table = [[form.combine([P.rows[i][a] for P in parts], placed[r * m + b])
              for r in range(l) for i in range(l)]
             + [form.pack((1,), form.width + a * m + b)]
             for a in range(m) for b in range(m)]
    for L in enumerate_gl(tower, l, leading_one=True):
        coeffs = flatten(L.rows) + (1,)
        yield L, form.relations([form.combine(coeffs, rows) for rows in table])


def equivalence_maps(c1, c2, mode: str, guard: int = DEFAULT_GUARD) -> Iterator[_Map]:
    """Every canonical map f with f(C1) = C2, in the order of
    enumerate_rm_maps/enumerate_mat_maps, the identity in its own place;
    map_index(f) reads that place off f.

    Linear solves, no scan: C2 is F_q-linear, so the L (rank-metric modes,
    one kernel per gamma; scalars act trivially on an F_{q^m}-linear code,
    so each L comes with every alpha) or the M (matrix modes, one kernel per
    gamma, T? and L, with L walked over the leading-one forms) that carry
    C1 into sigma^-gamma(C2) form an F_q-space.  _gl_members walks its
    invertible canonical members lazily in enumeration order, so only the
    maps taken are built.  No GL list is built.

    TooLarge on the call, before any solve, from _walk_order: the group
    order in rank-metric modes, the classes in matrix modes.  In matrix
    modes the walk also refuses before it walks a kernel that takes the
    running total of q^dim over the kernels solved past the guard.
    """
    space = _common_space(c1, c2, mode)
    if space is None or c1.size != c2.size:
        return iter(())
    (l, m), tower = space, c1.tower
    gammas, flags, _, _ = _walk_order(tower, l, mode, guard, m=m)

    def walk():
        members = solves = 0
        for gamma in gammas:
            if m is None:
                for rows in _gl_members(tower, _rm_solve(c1, c2, gamma), l, True):
                    L = Mat(tower, rows, check=False)
                    yield from (RmMap(alpha, L, gamma) for alpha in range(1, tower.order))
                continue
            for flag in flags:
                for L, kernel in _mat_solves(c1, c2, gamma, flag):
                    members, solves = members + tower.q ** len(kernel), solves + 1
                    if members > guard:
                        raise TooLarge(f"{members} kernel members in {solves} solves "
                                       f"exceed guard {guard}")
                    for rows in _gl_members(tower, kernel, m):
                        yield MatMap(flag, L, Mat(tower, rows, check=False), gamma)

    return walk()


def map_index(f) -> int:
    """The index of the canonical map f in enumerate_rm_maps or
    enumerate_mat_maps with semilinear=True; the linear enumeration is its
    gamma = 0 prefix.  The place of the class (gamma, T?, L), read with
    gl_rank over the leading-one L, times the n maps of a class, plus the
    place in it: alpha - 1 (rank-metric maps) or gl_rank(M)."""
    rm, t = isinstance(f, RmMap), f.tower
    _, flags, forms, n = _canonical_parts(t, f.l, "rm-linear" if rm else "mat-linear",
                                          None if rm else f.m)
    flag = False if rm else f.transpose
    first = ((f.gamma * len(flags) + flag) * forms + gl_rank(f.L, leading_one=True)) * n
    return first + (f.alpha - 1 if rm else gl_rank(f.M))


def are_equivalent(c1, c2, mode: str, guard: int = DEFAULT_GUARD) -> EquivResult:
    """Equivalence over the whole group, with the first canonical witness.

    Pre-filters on size and, for a code of at most guard words, minimum
    distance (both are preserved by every equivalence map; a code of size 1
    is {0} and has no distance), refuses with TooLarge where
    equivalence_maps does, tests the identity, which is the witness for
    equal codes, then takes the first map of equivalence_maps, which solves
    for it class by class.
    """
    space = _common_space(c1, c2, mode)
    if space is None:
        return EquivResult(False, None, 0, mode, "shape mismatch")
    if c1.size != c2.size:
        return EquivResult(False, None, 0, mode, "size mismatch")
    (l, m), tower, rm = space, c1.tower, mode.startswith("rm")
    maps = equivalence_maps(c1, c2, mode, guard)
    if 1 < c1.size <= guard and min_rank_distance(c1, guard) != min_rank_distance(c2, guard):
        return EquivResult(False, None, 0, mode, "minimum distance mismatch")
    gens, contains = (c1.gen.rows, c2.contains_codes) if rm else (c1.basis, c2.contains)
    identity = RmMap.identity(tower, l) if rm else MatMap.identity(tower, l, m)
    if all(map(contains, gens)):  # the identity's test
        return EquivResult(True, identity, 1, mode, "witness found")
    for f in maps:
        i = map_index(f)
        return EquivResult(True, f, i + 2 - (i > map_index(identity)), mode, "witness found")
    return EquivResult(False, None, group_order(tower, l, mode, m), mode, "group exhausted")


# ---------------------------------------------------------------------------
# map text form
# ---------------------------------------------------------------------------

_MAP_PARTS = re.compile(r";(?=\s*\w+\s*=)")  # a ';' that a key= follows


def format_map(f) -> str:
    if isinstance(f, RmMap):
        alpha = format_element(FieldElement(f.tower, f.alpha))
        return f"rm[alpha={alpha}; L={format_matrix(f.L)}; gamma={f.gamma}]"
    if isinstance(f, MatMap):
        flag = "T; " if f.transpose else ""
        return (f"mat[{flag}L={format_matrix(f.L)}; "
                f"M={format_matrix(f.M)}; gamma={f.gamma}]")
    raise BadParams(f"not a map: {f!r}")


def parse_map(tower: FieldTower, text: str):
    """Parse the rm[...]/mat[...] text form produced by format_map: a mat
    literal may open with T, then each key once, split only at a ';' that a
    key= follows, since matrix values hold ';' too."""
    text = text.strip()
    kind, _, body = text.partition("[")
    if kind not in ("rm", "mat") or not body.endswith("]"):
        raise BadParams(f"bad map literal: {text!r}")
    parts = _MAP_PARTS.split(body[:-1])
    transpose = kind == "mat" and parts[0].strip() == "T"
    keys = ("alpha", "L", "gamma") if kind == "rm" else ("L", "M", "gamma")
    fields = parse_keyed(parts[transpose:], keys, keys[:2], f"map literal {text!r}")
    gamma = parse_int(fields.get("gamma", "0"), f"gamma in {text!r}")
    if kind == "rm":
        alpha = parse_element(tower, fields["alpha"])
        return rm_map(alpha, parse_matrix(tower, fields["L"], subdeg=1), gamma)
    L = parse_matrix(tower, fields["L"], subdeg=1)
    return mat_map(L, parse_matrix(tower, fields["M"], subdeg=1), transpose, gamma)
