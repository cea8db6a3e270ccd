"""equivalence_maps, solved for L and M, against the scans in scan_oracle.

are_equivalent, equivalence_maps, rm_aut_brute and mat_aut_brute must agree
with the first form of the scan on verdict, witness key, checked, reason,
every map found with its count (read off map_index), and brute group keys
and generators; and equivalence_maps must yield the class scan's sequence,
map by map, in increasing map_index.  The grid covers F_8, F_16, F_27 and
F_16 over F_4 (e = 2, so mat-semilinear has gamma != 0), in linear and
semilinear modes, with equal, equivalent and random (mostly inequivalent)
pairs.  Further cases cover solution spaces larger than the GL list (every
map solves), gamma != 0 with sigma^-gamma(C2) != C2, the transpose flag and
the F_16 worked example.
"""

import random

import pytest

import scan_oracle as oracle
import solve_oracle
from rmcodes import (
    BadParams,
    DependentVector,
    Mat,
    MatMap,
    MatrixCode,
    RankMetricCode,
    RmMap,
    are_equivalent,
    enumerate_gl,
    enumerate_mat_maps,
    enumerate_rm_maps,
    equivalence_maps,
    expand_code,
    gabidulin,
    group_order,
    make_tower,
    map_index,
    maps_onto,
    mat_apply,
    mat_aut_brute,
    min_rank_distance,
    power_basis,
    rm_apply,
    rm_aut_brute,
)
from rmcodes.equivalence import _mat_solves, _rm_solve

TOWERS = {
    "F8": lambda: make_tower(2, 1, 3),
    "F16": lambda: make_tower(2, 1, 4, [1, 1, 0, 0, 1]),
    "F27": lambda: make_tower(3, 1, 3),
    "F16-q4": lambda: make_tower(2, 2, 2),
}

# (tower, l, k): rank-metric codes of length l and dimension k
RM_CASES = [("F8", 2, 1), ("F8", 3, 1), ("F16", 2, 1), ("F16", 3, 2),
            ("F27", 2, 1), ("F16-q4", 2, 1)]
# (tower, l, m, dim): matrix codes over the base field
MAT_CASES = [("F8", 2, 3, 2), ("F8", 2, 2, 2), ("F16", 2, 2, 1),
             ("F27", 2, 2, 2), ("F16-q4", 1, 2, 1), ("F16-q4", 1, 1, 1)]


def _rm_code(tower, l, k, rnd):
    while True:
        rows = [[rnd.randrange(tower.order) for _ in range(l)] for _ in range(k)]
        try:
            return RankMetricCode(Mat(tower, rows, subdeg=tower.m))
        except BadParams:
            continue


def _mat_code(tower, l, m, dim, rnd):
    codes = tower.subfield_codes(1)
    while True:
        basis = [Mat(tower, [[rnd.choice(codes) for _ in range(m)] for _ in range(l)])
                 for _ in range(dim)]
        try:
            return MatrixCode(tower, l, m, basis)
        except DependentVector:
            continue


def _rm_map(tower, l, semilinear, rnd):
    L = rnd.choice(list(enumerate_gl(tower, l)))
    gamma = rnd.randrange(tower.degree) if semilinear else 0
    return RmMap(rnd.randrange(1, tower.order), L, gamma)


def _mat_map(tower, l, m, semilinear, rnd):
    L = rnd.choice(list(enumerate_gl(tower, l)))
    M = rnd.choice(list(enumerate_gl(tower, m)))
    flag = l == m and rnd.random() < 0.5
    gamma = rnd.randrange(1, tower.e) if semilinear and tower.e > 1 else 0
    return MatMap(flag, L, M, gamma)


def _pairs(kind, case, semilinear, seed):
    """Equal, two equivalent and two random pairs of one shape."""
    rnd = random.Random(seed)
    tower = TOWERS[case[0]]()
    if kind == "rm":
        _, l, k = case
        draw = lambda: _rm_code(tower, l, k, rnd)
        image = lambda c: rm_apply(_rm_map(tower, l, semilinear, rnd), c)
    else:
        _, l, m, dim = case
        draw = lambda: _mat_code(tower, l, m, dim, rnd)
        image = lambda c: mat_apply(_mat_map(tower, l, m, semilinear, rnd), c)
    c1 = draw()
    return [(c1, c1), (c1, image(c1)), (c1, image(c1)),
            (c1, _twin(draw, c1)), (c1, _twin(draw, c1))]


def _twin(draw, c1):
    """A random code with the minimum distance of c1, so that the scan and
    not a pre-filter decides the pair."""
    d = min_rank_distance(c1)
    for _ in range(50):
        c2 = draw()
        if min_rank_distance(c2) == d:
            break
    return c2


def _result(res):
    witness = res.witness.key if res.witness is not None else None
    return res.equivalent, witness, res.checked, res.reason


CASES = ([("rm", c, s) for c in RM_CASES for s in (False, True)]
         + [("mat", c, s) for c in MAT_CASES for s in (False, True)])
IDS = [f"{k}-{'-'.join(map(str, c))}-{'semi' if s else 'lin'}" for k, c, s in CASES]


def _mode(kind, semilinear):
    return f"{kind}-{'semilinear' if semilinear else 'linear'}"


def _found(c1, c2, mode):
    """Each map of equivalence_maps with its count, the scans' form: the
    identity first with count 1, then each map f with
    map_index(f) + 2 - (map_index(f) > map_index(identity)).  The maps
    come in strictly increasing map_index."""
    maps = list(equivalence_maps(c1, c2, mode))
    index = [map_index(f) for f in maps]
    assert index == sorted(set(index))
    identity = (RmMap.identity(c1.tower, c1.l) if mode.startswith("rm")
                else MatMap.identity(c1.tower, c1.l, c1.m))
    first = map_index(identity)
    return ([(identity.key, 1)] * (identity in maps)
            + [(f.key, i + 2 - (i > first)) for f, i in zip(maps, index) if i != first])


@pytest.mark.parametrize("seed,kind,case,semilinear",
                         [(i, *c) for i, c in enumerate(CASES)], ids=IDS)
def test_are_equivalent_matches_oracle(seed, kind, case, semilinear):
    mode = _mode(kind, semilinear)
    for c1, c2 in _pairs(kind, case, semilinear, seed):
        assert _result(are_equivalent(c1, c2, mode)) == \
            _result(oracle.are_equivalent(c1, c2, mode))


@pytest.mark.parametrize("kind", ["rm", "mat"])
def test_grid_reaches_every_outcome(kind):
    """The pairs above end in a witness and in an exhausted group."""
    reasons = {are_equivalent(c1, c2, _mode(k, s)).reason
               for i, (k, c, s) in enumerate(CASES) if k == kind
               for c1, c2 in _pairs(k, c, s, i)}
    assert {"witness found", "group exhausted"} <= reasons


@pytest.mark.parametrize("seed,kind,case,semilinear",
                         [(i, *c) for i, c in enumerate(CASES)], ids=IDS)
def test_every_map_found_matches_oracle(seed, kind, case, semilinear):
    """Every map with its count, against both scans, on all five pairs."""
    mode = _mode(kind, semilinear)
    for c1, c2 in _pairs(kind, case, semilinear, seed):
        found = _found(c1, c2, mode)
        assert found == oracle.witnesses(c1, c2, mode)
        assert found == oracle.class_witnesses(c1, c2, mode)
        assert all(maps_onto(f, c1, c2) for f in equivalence_maps(c1, c2, mode))


@pytest.mark.parametrize("seed,kind,case,semilinear",
                         [(i, *c) for i, c in enumerate(CASES)], ids=IDS)
def test_brute_group_matches_oracle(seed, kind, case, semilinear):
    c = _pairs(kind, case, semilinear, seed)[0][0]
    group = (rm_aut_brute if kind == "rm" else mat_aut_brute)(c, semilinear)
    elements, gens = oracle.stabilizer(c, semilinear)
    assert [f.key for f in group.elements] == [f.key for f in elements]
    assert [f.key for f in group.generators] == [f.key for f in gens]


def _same_kernels(c1, c2):
    """_rm_solve and _mat_solves give the tuple assembly's kernel bases, row
    for row, for every gamma and, in matrix modes, every T? and L."""
    t, rm = c1.tower, isinstance(c1, RankMetricCode)
    solved = 0
    for gamma in range(t.degree if rm else t.e):
        if rm:
            assert _rm_solve(c1, c2, gamma) == solve_oracle.rm_kernel(c1, c2, gamma)
            solved += 1
            continue
        for flag in (False, True) if c1.l == c1.m else (False,):
            for L, kernel in _mat_solves(c1, c2, gamma, flag):
                assert kernel == solve_oracle.mat_kernel(c1, c2, gamma, flag, L)
                solved += 1
    return solved


@pytest.mark.parametrize("seed,kind,case,semilinear",
                         [(i, *c) for i, c in enumerate(CASES)], ids=IDS)
def test_solves_match_tuple_assembly(seed, kind, case, semilinear):
    """On the grid's pairs: F_2, F_3 (ints mod 3) and F_4 over F_16 (tower
    codes, gamma != 0) rows, with the transpose flag where l = m."""
    for c1, c2 in _pairs(kind, case, semilinear, seed):
        assert _same_kernels(c1, c2)


def test_solves_match_tuple_assembly_at_the_edges(f4, f8, f16_q4):
    """Kernels of every matrix (the zero code, a full-length code) and of
    codes whose target moves under the Frobenius."""
    rnd = random.Random(13)
    assert _same_kernels(MatrixCode(f4, 2, 2, []), MatrixCode(f4, 2, 2, []))
    for tower, l in ((f8, 2), (f16_q4, 2)):
        c1, c2 = _rm_code(tower, l, l, rnd), _rm_code(tower, l, l, rnd)
        assert _same_kernels(c1, c2)
    w = f16_q4.generator.code
    c1 = RankMetricCode(Mat(f16_q4, [[1, w]], subdeg=f16_q4.m))
    assert _same_kernels(c1, rm_apply(RmMap(3, Mat(f16_q4, [[1, 1], [0, 1]]), 1), c1))
    c1 = _mat_code(f16_q4, 2, 2, 2, rnd)
    _, one, a, b = f16_q4.subfield_codes(1)
    f = MatMap(True, Mat(f16_q4, [[one, a], [0, one]]), Mat(f16_q4, [[0, one], [one, b]]), 1)
    assert _same_kernels(c1, mat_apply(f, c1))


@pytest.mark.parametrize("kind,case,semilinear", CASES, ids=IDS)
def test_map_index_reads_the_enumeration(kind, case, semilinear):
    """map_index counts the enumeration from 0 up to the group order, and
    the linear enumeration is the gamma = 0 prefix of the semilinear one."""
    tower, l = TOWERS[case[0]](), case[1]
    m = None if kind == "rm" else case[2]
    enum = ((lambda s: enumerate_rm_maps(tower, l, s)) if kind == "rm"
            else (lambda s: enumerate_mat_maps(tower, l, m, s)))
    maps = list(enum(semilinear))
    order = group_order(tower, l, _mode(kind, semilinear), m=m)
    assert [map_index(f) for f in maps] == list(range(order))
    linear = [f.key for f in enum(False)]
    assert linear == [f.key for f in maps][:len(linear)]


@pytest.mark.parametrize("kind,case,semilinear", CASES, ids=IDS)
def test_enumeration_matches_oracle(kind, case, semilinear):
    tower = TOWERS[case[0]]()
    if kind == "rm":
        new = enumerate_rm_maps(tower, case[1], semilinear)
        old = oracle.enumerate_rm_maps(tower, case[1], semilinear)
    else:
        new = enumerate_mat_maps(tower, case[1], case[2], semilinear)
        old = oracle.enumerate_mat_maps(tower, case[1], case[2], semilinear)
    assert [f.key for f in new] == [f.key for f in old]


def test_e2_grid_finds_frobenius_maps(f16_q4):
    """The e = 2 matrix cases above do scan and find gamma = 1 maps, with
    and without the transpose flag."""
    rnd = random.Random(3)
    found = []
    for l, m in ((1, 2), (1, 1)):
        c = _mat_code(f16_q4, l, m, 1, rnd)
        found += equivalence_maps(c, c, "mat-semilinear")
    assert any(f.gamma == 1 and not f.transpose for f in found)
    assert any(f.gamma == 1 and f.transpose for f in found)


def test_maps_onto_rejects_other_sizes(f16):
    c1 = _rm_code(f16, 2, 1, random.Random(1))
    c2 = RankMetricCode(Mat(f16, [[1, 0], [0, 1]], subdeg=4))
    assert not maps_onto(RmMap.identity(f16, 2), c1, c2)
    assert list(equivalence_maps(c1, c2, "rm-linear")) == []


@pytest.mark.parametrize("mode", ["mat-linear", "mat-semilinear"])
def test_zero_code_takes_every_map(f4, mode):
    """The solution space is every M, more than GL_m holds: enumerating it
    still finds each invertible M exactly once."""
    c = MatrixCode(f4, 2, 2, [])
    found = _found(c, c, mode)
    assert found == oracle.class_witnesses(c, c, mode)
    assert len(found) == group_order(f4, 2, mode, m=2)


@pytest.mark.parametrize("mode", ["rm-linear", "rm-semilinear"])
def test_full_length_code_takes_every_map(f8, f16_q4, mode):
    """k = l: every L solves, more than the leading-one list holds."""
    rnd = random.Random(5)
    for tower, l in ((f8, 2), (f16_q4, 2), (f8, 1)):
        c1, c2 = _rm_code(tower, l, l, rnd), _rm_code(tower, l, l, rnd)
        found = _found(c1, c2, mode)
        assert found == oracle.class_witnesses(c1, c2, mode)
        assert len(found) == group_order(tower, l, mode)


def _frobenius_code(c, gamma):
    t = c.tower
    if isinstance(c, RankMetricCode):
        rows = [[t.frob(x, gamma) for x in row] for row in c.gen.rows]
        return RankMetricCode(Mat(t, rows, subdeg=t.m))
    return MatrixCode(t, c.l, c.m, [B.frobenius(gamma) for B in c.basis])


@pytest.mark.parametrize("kind", ["rm", "mat"])
def test_frobenius_moves_the_target(f16_q4, kind):
    """On the e = 2 tower sigma^-gamma(C2) != C2 for these codes, and maps
    with gamma != 0 are found, with the transpose flag in matrix mode."""
    rnd = random.Random(11)
    mode = _mode(kind, True)
    if kind == "rm":
        w = f16_q4.generator.code
        c1 = RankMetricCode(Mat(f16_q4, [[1, w]], subdeg=f16_q4.m))
        c2 = rm_apply(RmMap(3, Mat(f16_q4, [[1, 1], [0, 1]]), 1), c1)
    else:
        _, one, a, b = f16_q4.subfield_codes(1)  # F_4 = {0, 1, a, b}
        c1 = _mat_code(f16_q4, 2, 2, 2, rnd)
        c2 = mat_apply(MatMap(True, Mat(f16_q4, [[one, a], [0, one]]),
                              Mat(f16_q4, [[0, one], [one, b]]), 1), c1)
    assert _frobenius_code(c2, -1) != c2
    found = _found(c1, c2, mode)
    assert found == oracle.class_witnesses(c1, c2, mode)
    maps = list(equivalence_maps(c1, c2, mode))
    assert any(f.gamma for f in maps)
    if kind == "mat":
        assert any(f.transpose and f.gamma for f in maps)


def test_worked_example_stabilizer_matches_class_scan(f16):
    """The expanded F_16 worked example: 1080 maps out of 120960."""
    mc = expand_code(gabidulin(1, (f16.one, f16.generator**5)), power_basis(f16))
    group = mat_aut_brute(mc)
    assert group.keys == {key for key, _ in oracle.class_witnesses(mc, mc, "mat-linear")}
