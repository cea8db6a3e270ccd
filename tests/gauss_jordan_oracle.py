"""Reference oracle: the textbook Gauss-Jordan the elimination kernel replaced.

These are the generic loops that rmcodes.matrices (rref, rank, inverse,
row_decompose) and rmcodes.codes (_Reducer) ran before the shared kernel,
kept verbatim on the tower's code arithmetic (t.inv, t.mul, t.sub) so the
property tests in test_elimination.py can compare every fast path with
them.  Do not optimise or delete them: they are the slow path by design.
"""

from __future__ import annotations

from typing import Sequence

from rmcodes.errors import NotInSpan, ShapeMismatch, Singular
from rmcodes.fields import FieldTower
from rmcodes.matrices import Mat, RrefResult


def rref(M: Mat) -> RrefResult:
    """Canonical reduced row echelon form; preserves the row space."""
    t = M.tower
    work = [list(r) for r in M.rows]
    pivots = []
    r = 0
    for col in range(M.ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        ipiv = t.inv(work[r][col])
        work[r] = [t.mul(ipiv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [t.sub(x, t.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(col + 1)
        r += 1
    return RrefResult(Mat(t, work, M.subdeg, check=False), tuple(pivots))


def rank(M: Mat) -> int:
    return rref(M).rank


def inverse(M: Mat) -> Mat:
    if M.nrows != M.ncols:
        raise ShapeMismatch("inverse of a non-square matrix")
    t = M.tower
    n = M.nrows
    work = [list(r) + [1 if i == j else 0 for j in range(n)]
            for i, r in enumerate(M.rows)]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if work[i][col]), None)
        if piv is None:
            raise Singular("matrix is singular")
        work[r], work[piv] = work[piv], work[r]
        ipiv = t.inv(work[r][col])
        work[r] = [t.mul(ipiv, x) for x in work[r]]
        for i in range(n):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [t.sub(x, t.mul(f, y)) for x, y in zip(work[i], work[r])]
        r += 1
    return Mat(t, [row[n:] for row in work], M.subdeg, check=False)


def nullspace(M: Mat) -> list[tuple[int, ...]]:
    """A basis of the coefficient rows c with c @ M = 0, read off the RREF
    of M^T: one vector per free column, one there, minus the pivot rows'
    entries of that column at their pivots."""
    t, n = M.tower, M.nrows
    R = rref(Mat(t, list(zip(*M.rows)), M.subdeg, check=False, ncols=n))
    out = []
    for free in (j for j in range(n) if j + 1 not in R.pivots):
        v = [0] * n
        v[free] = 1
        for row, p in zip(R.rref.rows, R.pivots):
            v[p - 1] = t.neg(row[free])
        out.append(tuple(v))
    return out


def row_decompose(targets: Sequence[Sequence[int]], M: Mat) -> Mat:
    """Solve C with C @ M = targets over M's field; NotInSpan if impossible.

    targets is a sequence of code rows of length M.ncols; the result C is
    len(targets) x M.nrows.
    """
    t = M.tower
    n = M.nrows
    aug = [list(r) + [1 if i == j else 0 for j in range(n)]
           for i, r in enumerate(M.rows)]
    width = M.ncols
    rows = []
    pivots = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, n) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        ipiv = t.inv(aug[r][col])
        aug[r] = [t.mul(ipiv, x) for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [t.sub(x, t.mul(f, y)) for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    out = []
    for w in targets:
        w = list(w)
        coeff = [0] * n
        for idx, col in enumerate(pivots):
            c = w[col]
            if c:
                for j in range(width):
                    w[j] = t.sub(w[j], t.mul(c, aug[idx][j]))
                for j in range(n):
                    coeff[j] = t.add(coeff[j], t.mul(c, aug[idx][width + j]))
        if any(w):
            raise NotInSpan("target row outside the row space")
        out.append(coeff)
    return Mat(t, out, M.subdeg, check=False)



class Reducer:
    """Echelon form over one field for incremental span membership tests."""

    def __init__(self, tower: FieldTower, width: int):
        self.tower = tower
        self.width = width
        self.rows: list[tuple[int, list[int]]] = []  # (pivot col, row)

    def reduce(self, vec: Sequence[int]) -> list[int]:
        t = self.tower
        v = list(vec)
        for pcol, row in self.rows:
            c = v[pcol]
            if c:
                v = [t.sub(x, t.mul(c, y)) for x, y in zip(v, row)]
        return v

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec into the span; returns False if already dependent."""
        t = self.tower
        v = self.reduce(vec)
        pcol = next((i for i, x in enumerate(v) if x), None)
        if pcol is None:
            return False
        ipiv = t.inv(v[pcol])
        v = [t.mul(ipiv, x) for x in v]
        for i, (pc, row) in enumerate(self.rows):
            c = row[pcol]
            if c:
                self.rows[i] = (pc, [t.sub(x, t.mul(c, y)) for x, y in zip(row, v)])
        self.rows.append((pcol, v))
        self.rows.sort(key=lambda pr: pr[0])
        return True

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)
