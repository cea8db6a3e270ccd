"""The pairwise distance-law check and the lifting that rmcodes.subspaces
once ran.

This is the reference oracle for ``rmcodes.subspaces.verify_distance_law``,
``rmcodes.lift`` and ``rmcodes.unlift``; keep it.  It lifts each codeword as a matrix: the
codeword Mat, its columns interspersed with unit pivot columns in a second
Mat, canonicalised by ``Subspace(Mat)``.  It takes rank(A - B) by a fresh
subtraction and rank call for every pair of codewords, where the library
combines packed basis rows per message, takes one rank per codeword and
reads each pair's from the place of its difference message.  Its unlift
reads every word's matrix (``.mat``), and so now does the library's: the
two are one procedure, and this copy keeps its results pinned should the
library's change.
"""

from __future__ import annotations

from typing import Sequence

from rmcodes import (
    BadParams,
    DistanceLawReport,
    Mat,
    MatrixCode,
    MixedPivots,
    NonlinearCode,
    Subspace,
    SubspaceCode,
    TooLarge,
    rank,
    subspace_distance,
)
from rmcodes.elimination import span
from rmcodes.codes import DEFAULT_GUARD


def interspersed(A: Mat, pivots: Sequence[int], n: int) -> Mat:
    """The l x n matrix with the identity at the pivot columns (1-based)
    and A's columns, in order, at the others."""
    nonpivots = [j for j in range(1, n + 1) if j not in set(pivots)]
    rows = []
    for i in range(A.nrows):
        row = [0] * n
        row[pivots[i] - 1] = 1
        for s, j in enumerate(nonpivots):
            row[j - 1] = A.rows[i][s]
        rows.append(row)
    return Mat(A.tower, rows, subdeg=1, check=False)


def lifted(mc: MatrixCode, pivots: Sequence[int]) -> tuple[list[Mat], list[Subspace]]:
    """The codewords of mc and their lifts, in codewords() order."""
    mats = list(mc.codewords())
    return mats, [Subspace(interspersed(A, pivots, mc.l + mc.m)) for A in mats]


def verify_distance_law(mc: MatrixCode, pivots: Sequence[int],
                        guard: int = DEFAULT_GUARD) -> DistanceLawReport:
    """Check d_S(lift A, lift B) = 2 rank(A - B) over all codeword pairs."""
    if mc.size > guard:
        raise TooLarge(f"|code| = {mc.size} exceeds guard {guard}")
    mats, lifts = lifted(mc, pivots)
    all_match = True
    multiset = []
    dr_min = None
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ds = subspace_distance(lifts[i], lifts[j])
            dr = rank(mats[i] - mats[j])
            if ds != 2 * dr:
                all_match = False
            multiset.append(ds)
            if dr_min is None or dr < dr_min:
                dr_min = dr
    multiset.sort()
    ds_min = multiset[0] if multiset else None
    return DistanceLawReport(
        pairs_checked=len(multiset),
        all_match=all_match,
        ds_min=ds_min,
        dr_min=dr_min,
        distance_multiset=tuple(multiset),
    )


def unlift(sc: SubspaceCode) -> tuple[tuple[int, ...], MatrixCode]:
    """rmcodes.unlift on the words' matrices: the words in the order of
    their .mat rows, each matrix read off those rows."""
    if not sc.words:
        raise BadParams("empty subspace code")
    words = sorted(sc.words, key=lambda w: w.mat.rows)
    pivots = words[0].pivots
    if any(w.pivots != pivots for w in words):
        units = [w.pivots for w in words
                 if all(sum(map(bool, row)) == 1 for row in w.mat.rows)]
        if not units:
            raise NonlinearCode("no word is the lift of the zero matrix")
        if len(units) > 1:
            raise MixedPivots(f"pivot locations differ: {units[0]} vs {units[1]}")
        pivots = units[0]
    l, m = sc.dim, sc.n - sc.dim
    columns = [j - 1 for j in pivots] + [j for j in range(sc.n) if j + 1 not in pivots]
    s, basis = span(sc.tower, l * m), []
    for w in words:
        rows, cols = w.mat.rows, columns[l:]
        if w.pivots != pivots:
            e = span(sc.tower, sc.n, 1, ([r[j] for j in columns] for r in rows))
            if e.pivots != tuple(range(1, l + 1)):
                raise MixedPivots(f"pivot locations differ: {pivots} vs {w.pivots}")
            rows, cols = e.rows(), range(l, sc.n)
        if s.add(flat := [r[j] for r in rows for j in cols]):
            basis.append(Mat(sc.tower, [flat[i:i + m] for i in range(0, l * m, m)],
                             subdeg=1, check=False))
    mc = MatrixCode(sc.tower, l, m, basis)
    if mc.size != len(words):
        raise NonlinearCode("auxiliary matrices do not form a linear code")
    return pivots, mc
