"""GL_n(F_q) positions by walking candidate rows: the reference for
``rmcodes.matrices.gl_rank`` and the library's walks over kernels.

``gl_unrank`` inverts gl_rank with no counting: row i is the a_i-th vector,
in lexicographic order, outside the span of the rows above it.
``span_members`` lists the invertible members of a span by trying every
combination of its basis.
"""

import itertools
from math import prod

from rmcodes import Mat
from rmcodes.elimination import span


def first_nonzero(rows):
    return next((c for r in rows for c in r if c), 0)


def gl_unrank(tower, n, index, leading_one=False):
    """The matrix at index in enumerate_gl's order, or in its leading-one
    order: index = sum_i a_i prod_{j>i} (q^n - q^j), and row i is the a_i-th
    vector outside the span of the rows above it (for row 0 of the
    leading-one order, among the vectors whose first nonzero entry is one)."""
    codes = tower.subfield_codes(1)
    q, rows = len(codes), []
    for i in range(n):
        a, index = divmod(index, prod(q**n - q**j for j in range(i + 1, n)))
        above = span(tower, n, 1, rows)
        rows.append(next(itertools.islice(
            (v for v in itertools.product(codes, repeat=n)
             if not above.contains(v) and (i or not leading_one or first_nonzero([v]) == 1)),
            a, None)))
    return Mat(tower, rows)


def span_members(tower, basis, n, leading_one=False):
    """The rows of each invertible n x n matrix in the F_q-span of basis
    (rows of n*n row-major entries), first nonzero entry one when
    leading_one, sorted lexicographically: the sorted codes of F_q compare
    as their positions do."""
    out = set()
    for coeffs in itertools.product(tower.subfield_codes(1), repeat=len(basis)):
        v = tower.add_scaled([0] * (n * n), coeffs, basis)
        rows = tuple(tuple(v[r:r + n]) for r in range(0, n * n, n))
        if span(tower, n, 1, rows).rank == n and (not leading_one or first_nonzero(rows) == 1):
            out.add(rows)
    return sorted(out)
