"""The pairwise distance-law check that rmcodes.subspaces once ran.

This is the reference oracle for ``rmcodes.subspaces.verify_distance_law``;
keep it.  It takes rank(A - B) by a fresh subtraction and rank call for
every pair of codewords, where the library takes one rank per codeword and
reads each pair's from the place of its difference message.
"""

from __future__ import annotations

from typing import Sequence

from rmcodes import DistanceLawReport, MatrixCode, rank, subspace_distance
from rmcodes.codes import DEFAULT_GUARD
from rmcodes.subspaces import _lifted


def verify_distance_law(mc: MatrixCode, pivots: Sequence[int],
                        guard: int = DEFAULT_GUARD) -> DistanceLawReport:
    """Check d_S(lift A, lift B) = 2 rank(A - B) over all codeword pairs."""
    mats, lifted = _lifted(mc, pivots, guard)
    all_match = True
    multiset = []
    dr_min = None
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ds = subspace_distance(lifted[i], lifted[j])
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
