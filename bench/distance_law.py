"""distance-law: lifting, unlifting and distances, with no group work.

Seeded random matrix codes with F_2 entries inside F_16 (the shape of
acceptance criterion 5, dimension 1..6) and with F_3 entries inside F_81
(dimension 1..3), one code per (l, m, dim), go through lift, unlift,
verify_distance_law at two pivot sets, SubspaceCode.min_distance and
min_rank_distance.  min_rank_distance also runs over the Gabidulin grid
(the MRD check).  Small-matrix elimination dominates; the F_3 codes keep an
F_2-only fast path from hiding a slowdown for odd p.  F_3 dimension 4
would triple the pass, and a pass must stay short enough to repeat every
job many times in a run.
"""

from __future__ import annotations

import random

import rmcodes as rm

import gen
from harness import Job, interleave

SHAPES = [(l, m) for l in (2, 3) for m in (3, 4)]


class State:
    def __init__(self, cases, grid):
        self.cases = cases
        self.grid = grid


def setup(seed):
    rnd = random.Random(seed)
    grid = gen.gabidulin_grid(rnd)
    f16 = rm.make_tower(2, 1, 4, [1, 1, 0, 0, 1])
    f81 = rm.make_tower(3, 1, 4)
    cases = []
    for tower, tag, dims in ((f16, "f2", range(1, 7)), (f81, "f3", range(1, 4))):
        for l, m in SHAPES:
            for dim in dims:
                mc = gen.matrix_code(tower, l, m, dim, rnd)
                cases.append((f"{tag}-l{l}-m{m}-d{dim}", mc, *gen.pivot_pair(l, m, rnd)))
    return State(cases, grid)


def _words_text(sc) -> str:
    return repr(sorted(w.mat.rows for w in sc.words))


def _codewords_text(mc) -> str:
    return repr(sorted(A.rows for A in mc.codewords()))


def jobs(state, passdir=None):
    units = []
    for label, mc, piv1, piv2 in state.cases:
        lift, law1 = f"{label}/lift", f"{label}/law1"
        out = []
        units.append(out)
        out.append(Job(lift, lambda done, mc=mc, p=piv1: rm.lift(mc, p), _words_text,
                       lambda sc, done, mc=mc: sc.size == mc.size))
        out.append(Job(f"{label}/unlift", lambda done, s=lift: rm.unlift(done[s]),
                       lambda r: repr((r[0], _codewords_text(r[1]))),
                       lambda r, done, mc=mc, p=piv1: r[0] == p and r[1] == mc))
        out.append(Job(law1, lambda done, mc=mc, p=piv1: rm.verify_distance_law(mc, p),
                       lambda r: repr(r.distance_multiset),
                       lambda r, done: r.all_match))
        out.append(Job(f"{label}/law2", lambda done, mc=mc, p=piv2: rm.verify_distance_law(mc, p),
                       lambda r: repr(r.distance_multiset),
                       lambda r, done, a=law1: (r.all_match and r.distance_multiset
                                                == done[a].distance_multiset)))
        out.append(Job(f"{label}/min_distance", lambda done, s=lift: done[s].min_distance(),
                       repr, lambda d, done, a=law1: d == done[a].ds_min))
        out.append(Job(f"{label}/min_rank_distance", lambda done, mc=mc: rm.min_rank_distance(mc),
                       repr, lambda d, done, a=law1: d == done[a].dr_min))
    for label, c in state.grid:
        units.append([Job(f"mrd/{label}", lambda done, c=c: rm.min_rank_distance(c), repr,
                          lambda d, done, c=c: d == c.l - c.k + 1)])
    return interleave(units)

