"""Seeded input generators, built on the public rmcodes API only.

Every generator draws from the random.Random it is given, so a seed fixes
the inputs.  Independence is decided by the library itself: a draw is
redrawn when IndependentTuple or matrix_code raises DependentVector, or
when rank says a square matrix is singular.
"""

from __future__ import annotations

import itertools
from collections import Counter

import rmcodes as rm

# criterion-2/9 grid: q in {2,3}, l in {2,3}, m in {3,4}, 1 <= k < l < m
GRID = [(p, m, l) for p in (2, 3) for m in (3, 4) for l in (2, 3) if l < m]
VECTORS_PER_POINT = 5


def gab_vector(tower, l, rnd):
    while True:
        els = tuple(tower.element(rnd.randrange(1, tower.order)) for _ in range(l))
        try:
            return rm.IndependentTuple(els)
        except rm.DependentVector:
            continue


def gabidulin_grid(rnd):
    """[(label, code)]: VECTORS_PER_POINT vectors per (q, m, l), one code per k < l."""
    out = []
    for p, m, l in GRID:
        tower = rm.make_tower(p, 1, m)
        for i in range(VECTORS_PER_POINT):
            g = gab_vector(tower, l, rnd)
            for k in range(1, l):
                out.append((f"q{p}-m{m}-l{l}-k{k}-{i}", rm.gabidulin(k, g)))
    return out


def base_matrix(tower, l, m, rnd):
    """An l x m matrix with entries in the base field F_q."""
    codes = tower.subfield_codes(1)
    return rm.Mat(tower, [[rnd.choice(codes) for _ in range(m)] for _ in range(l)])


def invertible(tower, n, rnd):
    while True:
        L = base_matrix(tower, n, n, rnd)
        if rm.rank(L) == n:
            return L


def matrix_code(tower, l, m, dim, rnd):
    basis = []
    while len(basis) < dim:
        A = base_matrix(tower, l, m, rnd)
        try:
            rm.matrix_code(basis + [A])
        except rm.DependentVector:
            continue
        basis.append(A)
    return rm.matrix_code(basis)


def rank_metric_code(tower, l, k, rnd):
    while True:
        rows = [[rnd.randrange(tower.order) for _ in range(l)] for _ in range(k)]
        try:
            return rm.RankMetricCode(rm.Mat(tower, rows, subdeg=tower.m))
        except rm.BadParams:  # generator without full row rank
            continue


def random_element(tower, rnd):
    return tower.element(rnd.randrange(1, tower.order))


def rm_image(code, rnd):
    """The image of code under a random linear rank-metric map, moved off code."""
    while True:
        f = rm.rm_map(random_element(code.tower, rnd), invertible(code.tower, code.l, rnd))
        image = rm.rm_apply(f, code)
        if image != code:
            return image


def mat_image(code, rnd):
    """The image of code under a random linear matrix map, moved off code."""
    while True:
        f = rm.mat_map(invertible(code.tower, code.l, rnd),
                       invertible(code.tower, code.m, rnd))
        image = rm.mat_apply(f, code)
        if image != code:
            return image


def weight_distribution(code):
    """Rank-weight counts that every equivalence map keeps.

    Matrix codes: all codewords.  Rank-metric codes: one codeword per
    top-field scalar class (leading message coefficient one), since scalar
    multiples share a rank weight.
    """
    if isinstance(code, rm.MatrixCode):
        return Counter(rm.rank(A) for A in code.codewords())
    t = code.tower
    basis = rm.power_basis(t)
    out = Counter()
    for lead in range(code.k):
        for tail in itertools.product(range(t.order), repeat=code.k - lead - 1):
            word = [0] * code.l
            for u, row in zip((1, *tail), code.gen.rows[lead:]):
                word = [t.add(w, t.mul(u, x)) for w, x in zip(word, row)]
            out[rm.rank_weight([t.element(c) for c in word], basis)] += 1
    return out


def inequivalent_pair(draw, max_draws=1000):
    """Two codes of equal size and minimum distance that are not equivalent.

    Their weight distributions differ, which certifies inequivalence without
    a group scan, while the equal distance keeps are_equivalent from
    rejecting the pair before it scans the whole group.
    """
    seen = {}
    for _ in range(max_draws):
        c = draw()
        d = rm.min_rank_distance(c)
        dist = weight_distribution(c)
        if d in seen and seen[d][0] != dist:
            return seen[d][1], c
        seen.setdefault(d, (dist, c))
    raise RuntimeError("no inequivalent pair found")


def pivot_pair(l, m, rnd):
    """The leading pivots (1..l) and a random other ascending pivot set."""
    first = tuple(range(1, l + 1))
    while True:
        other = tuple(sorted(rnd.sample(range(1, l + m + 1), l)))
        if other != first:
            return first, other
