"""The tuple assembly of the equivalence solves before the condition table.

rmcodes.equivalence once built every linear system entry by entry: each
condition row a tuple of element codes, assembled per L (matrix modes) or
per gamma (rank-metric modes) and handed to nullspace.  The library now
packs its residual rows into the elimination kernel's form once per
(gamma, T?) and combines them per L.  These functions keep the old
assembly, on the textbook Gauss-Jordan of gauss_jordan_oracle, so that the
tests can require the same kernel bases, row for row.  Keep them.
"""

from __future__ import annotations

import gauss_jordan_oracle as gj
from rmcodes.elimination import flatten
from rmcodes.matrices import Mat


def _unit(n, k):
    return tuple(int(i == k) for i in range(n))


def _kernel(tower, conditions, width):
    return gj.nullspace(Mat(tower, conditions, 1, check=False, ncols=width))


def rm_kernel(c1, c2, gamma):
    """An F_q-basis, as rows of l^2 row-major entries, of the l x l matrices
    L with x L in sigma^-gamma(C2) for each generator row x of C1."""
    t, l = c1.tower, c1.l
    target = gj.Reducer(t, l)
    for row in c2.gen.rows:
        target.add([t.frob(y, -gamma) for y in row])
    units = [target.reduce(_unit(l, j)) for j in range(l)]
    # entry (i, j) of L adds x_i e_j, reduced modulo the target, for each x
    conditions = [flatten(t.fq_coords(t.mul(x[i], y)) for x in c1.gen.rows for y in u)
                  for i in range(l) for u in units]
    return _kernel(t, conditions, t.m * l * len(c1.gen.rows))


def mat_kernel(c1, c2, gamma, flag, L):
    """An F_q-basis, as rows of m^2 row-major entries, of the m x m matrices
    M with L B^T? M in sigma^-gamma(C2) for each B in C1's basis."""
    t, l, m = c1.tower, c1.l, c1.m
    target = gj.Reducer(t, l * m)
    for B in c2.basis:
        target.add(flatten(B.frobenius(-gamma).rows))
    width = l * m
    # units[b][i] is the unit l x m matrix E_ib, flattened and reduced
    units = [[target.reduce(_unit(width, i * m + b)) for i in range(l)] for b in range(m)]
    left = [L @ (B.transpose() if flag else B) for B in c1.basis]
    # entry (a, b) of M adds L B^T? E_ab = sum_i (L B^T?)_ia E_ib, reduced
    conditions = [flatten(t.add_scaled([0] * width, [r[a] for r in LB.rows], units[b])
                          for LB in left)
                  for a in range(m) for b in range(m)]
    return _kernel(t, conditions, width * len(left))
