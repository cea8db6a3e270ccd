"""The one image-matrix rule against the product forms it replaced.

rm_to_mat reads every matrix as the matrix of x -> (alpha x)^(p^gamma) in
a basis, which is unique; tests/translation_oracle.py keeps the products
M_alpha Q^j P_r it replaced and the Q-power peel that factors the members
of K, which rm_to_mat yields for the scalar maps with gamma = e*j.  The
grid covers e = 1, 2, 3, the power basis and (for e = 1) a normal basis,
l = 1 and 2, and every Frobenius power, with the semilinear maps sampled
where there are more than CAP of them.
"""

import itertools
import random

import pytest

import translation_oracle as oracle
from rmcodes import (
    Mat,
    RmMap,
    enumerate_gl,
    enumerate_rm_maps,
    group_order,
    make_tower,
    power_basis,
    rm_to_mat,
)
from rmcodes.fields import find_normal_element, normal_basis_from

TOWERS = [(2, 1, 4), (3, 1, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)]
CAP = 300  # maps per (tower, basis, l)


def _bases(tower):
    yield "power", power_basis(tower)
    if tower.e == 1:
        yield "normal", normal_basis_from(find_normal_element(tower))


def _maps(tower, l):
    """Every semilinear map when there are at most CAP, else CAP drawn with
    a fixed seed, spread evenly over the Frobenius powers."""
    if group_order(tower, l, "rm-semilinear") <= CAP:
        return list(enumerate_rm_maps(tower, l, semilinear=True))
    rnd = random.Random(0)
    gl = list(enumerate_gl(tower, l))
    return [RmMap(rnd.randrange(1, tower.order), rnd.choice(gl), gamma)
            for gamma in range(tower.degree)
            for _ in range(CAP // tower.degree)]


@pytest.mark.parametrize("spec", TOWERS, ids=lambda s: "gf(%d,%d,%d)" % s)
def test_rm_to_mat_matches_product_form(spec):
    tower = make_tower(*spec)
    for (name, b), l in itertools.product(list(_bases(tower)), (1, 2)):
        for f in _maps(tower, l):
            assert rm_to_mat(f, b).key == oracle.rm_to_mat(f, b).key, (name, l, f)


@pytest.mark.parametrize("spec", [s for s in TOWERS if s[0] ** (s[1] * s[2]) <= 64]
                         + [(2, 1, 6)], ids=lambda s: "gf(%d,%d,%d)" % s)
def test_ksubgroup_matches_q_power_peel(spec):
    """K = <M_g> . <Q> is the set of M parts of rm_to_mat over the maps
    [g^i, I_1] with Frobenius power e*j, in the oracle's order, and the
    oracle's Q-power peel factors each as (i, j) and no matrix outside."""
    tower = make_tower(*spec)
    one = Mat.identity(tower, 1)
    for _, b in _bases(tower):
        ref = oracle.KSubgroup(b)
        members = [rm_to_mat(RmMap(tower.gen_power(i).code, one, tower.e * j), b).M
                   for i in range(tower.mult_order) for j in range(tower.m)]
        assert [M.rows for M in members] == [M.rows for M in ref.enumerate()]
        assert [ref.factor(M) for M in members] == [
            (i, j) for i in range(tower.mult_order) for j in range(tower.m)]
        rnd, base = random.Random(1), tower.subfield_codes(1)
        outside = [Mat(tower, [[rnd.choice(base) for _ in range(tower.m)]
                               for _ in range(tower.m)]) for _ in range(100)]
        inside = {M.rows for M in members}
        assert [ref.factor(M) is not None for M in outside] == [
            M.rows in inside for M in outside]
