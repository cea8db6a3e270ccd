"""The exhaustive equivalence scans that rmcodes.equivalence once ran.

These are the reference oracles for ``rmcodes.equivalence.equivalence_maps``
and everything built on it; keep them.

* ``scan``, ``are_equivalent``, ``witnesses`` and ``stabilizer``: the first
  form.  It enumerates the canonical cosets itself (leading-one L from
  ``enumerate_gl``), builds an ``RmMap`` / ``MatMap`` for every
  candidate and applies it to every generator of the code: no scalar-class
  shortcut, no shared left factors.
* ``group_order``: the closed form of each mode's group order, branch by
  branch, that rmcodes.equivalence kept before it read the order off the
  canonical parts.
* ``class_scan``: the second form, the body of ``equivalence_maps`` before
  it solved for L and M.  It tests each rank-metric class [., L, gamma]
  once and every M of each matrix class (gamma, T?, L) one at a time.  Only
  its imports differ: its own GL lists and private helpers, and the
  ``RmMap`` constructor for the maps it yields.
"""

from __future__ import annotations

import functools
from typing import Iterator

from rmcodes import (
    BadParams,
    EquivResult,
    Mat,
    MatMap,
    RmMap,
    TooLarge,
    enumerate_gl,
    gl_order,
    min_rank_distance,
)
from rmcodes.codes import MatrixCode, RankMetricCode

MODES = ("rm-linear", "rm-semilinear", "mat-linear", "mat-semilinear")


def _first_nonzero(M):
    for row in M.rows:
        for c in row:
            if c:
                return c
    return 0


def group_order(tower, l, mode, m=None):
    """Closed-form order of the chosen equivalence group: m is the extension
    degree in rank-metric modes and the codeword column count in matrix
    modes."""
    q = tower.q
    if mode == "rm-linear":
        return (q**tower.m - 1) * gl_order(q, l) // (q - 1)
    if mode == "rm-semilinear":
        return group_order(tower, l, "rm-linear") * tower.degree
    if mode in ("mat-linear", "mat-semilinear"):
        if m is None:
            raise BadParams("matrix modes need the column count m")
        order = gl_order(q, l) * gl_order(q, m) // (q - 1)
        if l == m:
            order *= 2
        if mode == "mat-semilinear":
            order *= tower.e
        return order
    raise BadParams(f"unknown mode {mode!r}; choose from {MODES}")


def leading_one_gl(tower, n):
    return [M for M in enumerate_gl(tower, n) if _first_nonzero(M) == 1]


def enumerate_rm_maps(tower, l, semilinear=False):
    """gamma outer, then L (leading-one), then alpha by code."""
    gammas = range(tower.degree) if semilinear else (0,)
    ls = leading_one_gl(tower, l)
    for gamma in gammas:
        for L in ls:
            for alpha in range(1, tower.order):
                yield RmMap(alpha, L, gamma)


def enumerate_mat_maps(tower, l, m, semilinear=False):
    """gamma, transpose flag, L (leading-one), M."""
    gammas = range(tower.e) if semilinear else (0,)
    flags = (False, True) if l == m else (False,)
    ls = leading_one_gl(tower, l)
    ms = list(enumerate_gl(tower, m))
    for gamma in gammas:
        for flag in flags:
            for L in ls:
                for M in ms:
                    yield MatMap(flag, L, M, gamma)


def rm_image(f, vec):
    t = f.tower
    return tuple(t.frob(t.mul(f.alpha, s), f.gamma) for s in f.L.vec_mul(vec))


def mat_image(f, A):
    B = A.transpose() if f.transpose else A
    out = f.L @ B @ f.M
    return out.frobenius(f.gamma) if f.gamma else out


def rm_image_equals(f, c1, c2):
    return all(c2.contains_codes(rm_image(f, row)) for row in c1.gen.rows)


def mat_image_equals(f, c1, c2):
    return all(c2.contains(mat_image(f, B)) for B in c1.basis)


def are_equivalent(c1, c2, mode, guard=2**22):
    """Pre-filters, then the identity, then every canonical map in order."""
    if mode not in MODES:
        raise ValueError(mode)
    if mode.startswith("rm"):
        assert isinstance(c1, RankMetricCode) and isinstance(c2, RankMetricCode)
        same_shape = c1.tower is c2.tower and c1.l == c2.l
        m_arg = None
    else:
        assert isinstance(c1, MatrixCode) and isinstance(c2, MatrixCode)
        same_shape = c1.tower is c2.tower and (c1.l, c1.m) == (c2.l, c2.m)
        m_arg = c1.m
    if not same_shape:
        return EquivResult(False, None, 0, mode, "shape mismatch")
    if c1.size != c2.size:
        return EquivResult(False, None, 0, mode, "size mismatch")
    order = group_order(c1.tower, c1.l, mode, m=m_arg)
    if order > guard:
        raise TooLarge(f"group order {order} exceeds guard {guard}")
    if c1.size <= 2**20 and min_rank_distance(c1) != min_rank_distance(c2):
        return EquivResult(False, None, 0, mode, "minimum distance mismatch")
    checked = 0
    for f, checked, hit in scan(c1, c2, mode):
        if hit:
            return EquivResult(True, f, checked, mode, "witness found")
    return EquivResult(False, None, checked, mode, "group exhausted")


def scan(c1, c2, mode):
    """(f, maps tested so far, whether f carries c1 onto c2) for every map
    in scan order: the identity first, then every canonical map but it."""
    semilinear = mode.endswith("semilinear")
    if mode.startswith("rm"):
        ident = RmMap.identity(c1.tower, c1.l)
        maps = enumerate_rm_maps(c1.tower, c1.l, semilinear)
        hit = rm_image_equals
    else:
        ident = MatMap.identity(c1.tower, c1.l, c1.m)
        maps = enumerate_mat_maps(c1.tower, c1.l, c1.m, semilinear)
        hit = mat_image_equals
    checked = 1
    yield ident, checked, hit(ident, c1, c2)
    for f in maps:
        if f == ident:
            continue
        checked += 1
        yield f, checked, hit(f, c1, c2)


def witnesses(c1, c2, mode):
    """[(key, maps tested up to it)] of every map carrying c1 onto c2."""
    return [(f.key, n) for f, n, hit in scan(c1, c2, mode) if hit]


def greedy_generators(elements, identity):
    """A small generating set, grown greedily with closure bookkeeping."""
    if len(elements) > 4096:
        return tuple(elements)
    gens = []
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
                    h = a.compose(g)
                    if h.key not in closure:
                        closure[h.key] = h
                        nxt.append(h)
            frontier = nxt
        if len(closure) == len(elements):
            break
    return tuple(gens)


def stabilizer(code, semilinear=False):
    """(sorted elements, generators) of the enumeration filtered by the
    fix-the-code predicate."""
    if isinstance(code, RankMetricCode):
        maps = enumerate_rm_maps(code.tower, code.l, semilinear)
        hit = rm_image_equals
        identity = RmMap.identity(code.tower, code.l)
    else:
        maps = enumerate_mat_maps(code.tower, code.l, code.m, semilinear)
        hit = mat_image_equals
        identity = MatMap.identity(code.tower, code.l, code.m)
    elements = sorted((f for f in maps if hit(f, code, code)), key=lambda f: f.key)
    return elements, greedy_generators(elements, identity)


# ---------------------------------------------------------------------------
# the class scan: equivalence_maps before the linear solves
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gl_list(tower, n):
    return tuple(enumerate_gl(tower, n))


@functools.lru_cache(maxsize=None)
def _gl_leading_one(tower, n):
    return tuple(M for M in _gl_list(tower, n) if _first_nonzero(M) == 1)


def _canonical_classes(tower, l, m, semilinear):
    """(gamma, flag, L, inner) per class of canonical maps, in enumeration
    order: gamma, the transpose flag (l = m), L over the leading-one forms;
    inner is alpha by code (rank-metric maps, m None) or M over GL_m."""
    rm = m is None
    gammas = range(tower.degree if rm else tower.e) if semilinear else (0,)
    flags = (False, True) if l == m else (False,)
    inner = range(1, tower.order) if rm else _gl_list(tower, m)
    return ((gamma, flag, L, inner) for gamma in gammas for flag in flags
            for L in _gl_leading_one(tower, l))


def _mat_image(LA, M, gamma):
    """The image (L A^T? M)^(p^gamma) of A, given its left part L A^T?."""
    return (LA @ M).frobenius(gamma) if gamma else LA @ M


def _common_space(c1, c2, mode):
    """(l, m) shared by both codes (m is None in rank-metric modes), else None."""
    if mode not in MODES:
        raise BadParams(f"unknown mode {mode!r}; choose from {MODES}")
    rm = mode.startswith("rm")
    name, kind = ("rank-metric", RankMetricCode) if rm else ("matrix", MatrixCode)
    if not (isinstance(c1, kind) and isinstance(c2, kind)):
        raise BadParams(f"{name} modes need {name} codes")
    space = (c1.l, None if rm else c1.m)
    return space if c1.tower is c2.tower and space == (c2.l, None if rm else c2.m) else None


def class_scan(c1, c2, mode: str) -> Iterator[tuple]:
    """Each canonical map f with f(C1) = C2 and the number of maps tested up
    to and including f (EquivResult.checked for the witness f): the identity
    first, then the rest of the order of enumerate_rm_maps/enumerate_mat_maps.

    Rank-metric modes test each class [., L, gamma] once: scalars act
    trivially on an F_{q^m}-linear code.  Only maps yielded are built.
    """
    space = _common_space(c1, c2, mode)
    if space is None or c1.size != c2.size:
        return
    (l, m), tower, rm = space, c1.tower, mode.startswith("rm")
    gens, contains = (c1.gen.rows, c2.contains_codes) if rm else (c1.basis, c2.contains)
    same = all(map(contains, gens))  # the identity's test
    if same:
        yield (RmMap.identity(tower, l) if rm else MatMap.identity(tower, l, m)), 1
    n, id_rows, frob = 1, Mat.identity(tower, l).rows, tower.frob
    for gamma, flag, L, inner in _canonical_classes(tower, l, m, mode.endswith("semilinear")):
        if rm:
            if gamma or L.rows != id_rows:
                # [1, L, gamma] maps row x to (x L)^(p^gamma)
                images = (L.vec_mul(x) for x in gens)
                if gamma:
                    images = ([frob(y, gamma) for y in img] for img in images)
                alphas, hit = inner, all(map(contains, images))
            else:  # the identity's class; the identity leads it
                alphas, hit = inner[1:], same
            if hit:
                for i, alpha in enumerate(alphas, n + 1):
                    yield RmMap(alpha, L, gamma), i
            n += len(alphas)
            continue
        left = [L @ (B.transpose() if flag else B) for B in gens]  # shared by every M
        identity_row = not (gamma or flag) and L.rows == id_rows
        for M in inner:
            if identity_row and M.is_identity():
                continue  # the identity, tested first
            n += 1
            if all(contains(_mat_image(LB, M, gamma)) for LB in left):
                yield MatMap(flag, L, M, gamma), n


def class_witnesses(c1, c2, mode):
    """[(key, maps tested up to it)] of every map class_scan finds."""
    return [(f.key, n) for f, n in class_scan(c1, c2, mode)]
