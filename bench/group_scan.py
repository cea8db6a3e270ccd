"""group-scan: stabilizers and equivalence by exhaustion.

This is the paper's oracle path and the path of the CLI aut/equiv verbs:
analytic and brute automorphism groups of a Gabidulin grid, brute matrix
stabilizers of expanded F_8 codes, and are_equivalent on pairs that are
equivalent by construction or certified inequivalent, so that the scan runs
to the end.  Towers and GL lists are shared by all jobs and filled during
set-up.  The expanded F_16 worked example (one 9 s stabilizer scan) is left
out: a pass must be short enough to repeat every job many times in a run.
"""

from __future__ import annotations

import random

import rmcodes as rm

import gen
from harness import Job, always, equiv_text, group_text, interleave

F8_CODES = 6
PAIRS = 4  # per mode: this many equivalent pairs and as many inequivalent


class State:
    def __init__(self, grid, f8_codes, pairs):
        self.grid = grid
        self.f8_codes = f8_codes
        self.pairs = pairs


def setup(seed):
    rnd = random.Random(seed)
    grid = gen.gabidulin_grid(rnd)
    f8 = rm.make_tower(2, 1, 3)
    normal8 = rm.normal_basis_from(rm.find_normal_element(f8))
    f8_codes = []
    for i in range(F8_CODES):
        c = rm.gabidulin(1, gen.gab_vector(f8, 2, rnd))
        b = rm.power_basis(f8) if i % 2 == 0 else normal8
        f8_codes.append((f"f8/{i}", c, b, rm.expand_code(c, b)))
    f16 = rm.make_tower(2, 1, 4, [1, 1, 0, 0, 1])
    pairs = []
    for i in range(PAIRS):
        c1 = gen.rank_metric_code(f16, 3, 1 + i % 2, rnd)
        pairs.append((f"equiv/rm/same-{i}", "rm-linear", c1, gen.rm_image(c1, rnd), True))
        c1, c2 = gen.inequivalent_pair(lambda: gen.rank_metric_code(f16, 3, 2, rnd))
        pairs.append((f"equiv/rm/other-{i}", "rm-linear", c1, c2, False))
    for i in range(PAIRS):
        dim = (2, 3, 4)[i % 3]
        c1 = gen.matrix_code(f8, 2, 3, dim, rnd)
        pairs.append((f"equiv/mat/same-{i}", "mat-linear", c1, gen.mat_image(c1, rnd), True))
        c1, c2 = gen.inequivalent_pair(lambda: gen.matrix_code(f8, 2, 3, dim, rnd))
        pairs.append((f"equiv/mat/other-{i}", "mat-linear", c1, c2, False))
    # fill the GL and leading-one caches every scan below reads
    for tower, l in {(c.tower, c.l): None for _, c in grid}:
        next(rm.enumerate_rm_maps(tower, l))
    next(rm.enumerate_rm_maps(f16, 3))
    next(rm.enumerate_mat_maps(f8, 2, 3))
    return State(grid, f8_codes, pairs)


def _subgroup_check(c, b, mode_m):
    """The translated analytic group lies in the brute stabilizer (Lagrange too)."""
    def check(group, done):
        sub = rm.mat_aut_subgroup(c, b)
        full = rm.group_order(c.tower, c.l, "mat-linear", m=mode_m)
        return full % group.order == 0 and all(group.contains(f) for f in sub.elements)
    return check


def _equiv_check(c1, c2, expected):
    def check(result, done):
        if result.equivalent != expected:
            return False
        if not expected:
            return True
        apply = rm.rm_apply if isinstance(c1, rm.RankMetricCode) else rm.mat_apply
        return apply(result.witness, c1) == c2
    return check


def jobs(state, passdir=None):
    out = []
    for label, c in state.grid:
        analytic = f"grid/{label}/analytic"
        out.append(Job(analytic, lambda done, c=c: rm.rm_aut_group(c),
                       group_text, always))
        out.append(Job(f"grid/{label}/brute", lambda done, c=c: rm.rm_aut_brute(c),
                       group_text,
                       lambda g, done, a=analytic: g.same_elements(done[a])))
    for label, c, b, mc in state.f8_codes:
        out.append(Job(f"{label}/brute", lambda done, mc=mc: rm.mat_aut_brute(mc),
                       group_text, _subgroup_check(c, b, mc.m)))
    for label, mode, c1, c2, expected in state.pairs:
        out.append(Job(label,
                       lambda done, c1=c1, c2=c2, mode=mode: rm.are_equivalent(c1, c2, mode),
                       equiv_text, _equiv_check(c1, c2, expected)))
    return interleave([[job] for job in out])
