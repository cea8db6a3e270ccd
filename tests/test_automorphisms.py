"""Automorphism groups: stabilizer degree, analytic form, brute oracles."""

import random
from dataclasses import replace
from math import gcd

import pytest

from rmcodes import (
    BadParams,
    DependentVector,
    IndependentTuple,
    Mat,
    MatMap,
    MatrixCode,
    NotInSpan,
    RankMetricCode,
    RmMap,
    TooLarge,
    expand_code,
    gabidulin,
    group_order,
    m_beta,
    mat_aut_brute,
    mat_aut_subgroup,
    power_basis,
    rm_aut_brute,
    rm_aut_group,
    stabilizer_degree,
)
from rmcodes import automorphisms
from rmcodes.automorphisms import _greedy_generators
from rmcodes.equivalence import _Map
from rmcodes.fields import FieldElement, make_tower


def bfs_closure(identity, generators):
    """Keys of the subgroup generated, breadth first from the identity."""
    seen = {identity.key}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for gmap in generators:
                h = a.compose(gmap)
                if h.key not in seen:
                    seen.add(h.key)
                    nxt.append(h)
        frontier = nxt
    return seen


def random_gab_vector(tower, l, rnd):
    while True:
        els = tuple(FieldElement(tower, rnd.randrange(1, tower.order))
                    for _ in range(l))
        try:
            return IndependentTuple(els)
        except DependentVector:
            continue


class TestStabilizerDegree:
    def test_published_value(self, f16):
        g = IndependentTuple((f16.one, f16.generator**5))
        sd = stabilizer_degree(g)
        assert sd.d == 2
        assert sd.witness_beta == f16.generator**5

    def test_degree_one_by_span_enumeration(self, f16):
        # oracle: the span of (1, w) is {0, 1, w, 1+w}; w^5 * 1 = w + w^2
        # falls outside, so no F_4 structure exists
        w = f16.generator
        span = {(FieldElement(f16, c0) + FieldElement(f16, c1) * w).code
                for c0 in (0, 1) for c1 in (0, 1)}
        assert (w**5).code not in span
        g = IndependentTuple((f16.one, w))
        assert stabilizer_degree(g).d == 1

    def test_coprime_shape_skips_search(self, f8):
        g = IndependentTuple((f8.one, f8.generator))
        assert stabilizer_degree(g).d == 1  # gcd(2, 3) = 1

    def test_divides_gcd_random_grid(self):
        rnd = random.Random(0)
        count = 0
        for (p, m) in ((2, 3), (2, 4), (3, 3), (3, 4)):
            tower = make_tower(p, 1, m)
            for l in (2, 3):
                if l >= m:
                    continue
                for _ in range(34):
                    g = random_gab_vector(tower, l, rnd)
                    d = stabilizer_degree(g).d
                    assert gcd(l, m) % d == 0
                    count += 1
        assert count >= 200


class TestMBeta:
    def test_beta_one(self, f16):
        g = IndependentTuple((f16.one, f16.generator**5))
        assert m_beta(g, f16.one).is_identity()

    def test_published_matrix(self, f16):
        g = IndependentTuple((f16.one, f16.generator**5))
        assert m_beta(g, f16.generator**5).rows == ((0, 1), (1, 1))

    def test_action_on_all_subfield_scalars(self, f16):
        g = IndependentTuple((f16.one, f16.generator**5))
        for beta in (FieldElement(f16, c) for c in f16.subfield_codes(2)):
            M = m_beta(g, beta)
            moved = tuple(
                sum((g.elements[i] * FieldElement(f16, M.rows[i][j])
                     for i in range(2)), f16.zero)
                for j in range(2))
            assert moved == tuple(beta * x for x in g.elements)

    def test_not_in_span(self, f16):
        g = IndependentTuple((f16.one, f16.generator))
        with pytest.raises(NotInSpan):
            m_beta(g, f16.generator**5)


class TestRmAutGroup:
    def test_published_order_45(self, f16):
        code = gabidulin(1, (f16.one, f16.generator**5))
        group = rm_aut_group(code)
        assert group.order == 45 == 15 * 3 // 1
        assert group.d == 2

    def test_each_m_beta_solved_once(self, f16, monkeypatch):
        """Only the witness's M_beta is solved; the others are its powers."""
        seen = []

        def spy(g, beta):
            seen.append(beta.code)
            return m_beta(g, beta)

        monkeypatch.setattr(automorphisms, "m_beta", spy)
        w5 = f16.generator**5
        group = rm_aut_group(gabidulin(1, (f16.one, w5)))
        assert seen == [w5.code]
        assert group.order == 45
        assert group.generators[1] == RmMap(1, m_beta(IndependentTuple((f16.one, w5)), w5))

    def test_degree_one_scalar_matrices(self, f81):
        # d = 1: members are [alpha, beta I_l] with beta in F_q*, so the
        # group is exactly the (q^m - 1)-element family predicted for the
        # scalar-only case
        rnd = random.Random(1)
        g = None
        while g is None:
            cand = random_gab_vector(f81, 2, rnd)
            if stabilizer_degree(cand).d == 1:
                g = cand
        code = gabidulin(1, g)
        group = rm_aut_group(code)
        assert group.order == 80
        for f in group.elements:
            # canonical form of [alpha, beta I] has L = I
            assert f.L.is_identity()

    def test_published_member(self, f16):
        code = gabidulin(1, (f16.one, f16.generator**5))
        group = rm_aut_group(code)
        f = RmMap(1, Mat(f16, [[0, 1], [1, 1]]))
        assert group.contains(f)
        # yet f is not of scalar-matrix form
        assert not f.L.is_identity()

    def test_every_element_fixes_code(self, f16):
        from rmcodes import rm_apply
        code = gabidulin(1, (f16.one, f16.generator**5))
        group = rm_aut_group(code)
        for f in group.elements:
            assert rm_apply(f, code) == code

    def test_closure(self, f16):
        code = gabidulin(1, (f16.one, f16.generator**5))
        assert _greedy_generators(rm_aut_group(code)) is not None

    def test_generators_generate(self, f16):
        code = gabidulin(1, (f16.one, f16.generator**5))
        group = rm_aut_group(code)
        assert bfs_closure(RmMap.identity(f16, 2), group.generators) == group.keys


class TestRmAutBrute:
    def test_matches_analytic_f16(self, f16):
        code = gabidulin(1, (f16.one, f16.generator**5))
        assert rm_aut_brute(code).same_elements(rm_aut_group(code))

    def test_full_ambient_space(self, f8):
        code = RankMetricCode(Mat.identity(f8, 2, subdeg=3))
        group = rm_aut_brute(code)
        assert group.order == group_order(f8, 2, "rm-linear") == 42

    def test_matches_analytic_f81_random(self, f81):
        rnd = random.Random(2)
        g = random_gab_vector(f81, 2, rnd)
        code = gabidulin(1, g)
        assert rm_aut_brute(code).same_elements(rm_aut_group(code))

    def test_k_equals_l_refused(self, f16):
        code = gabidulin(2, (f16.one, f16.generator**5))
        with pytest.raises(BadParams, match="rm_aut_brute"):
            rm_aut_group(code)  # full space: no analytic form
        assert rm_aut_brute(code).order == group_order(f16, 2, "rm-linear")

    def test_guard(self, f64):
        code = gabidulin(1, (f64.one, f64.generator))
        with pytest.raises(TooLarge):
            rm_aut_brute(code, guard=100)

    def test_semilinear_contains_linear(self, f16):
        code = gabidulin(1, (f16.one, f16.generator**5))
        lin = rm_aut_brute(code)
        semi = rm_aut_brute(code, semilinear=True)
        assert lin.keys <= semi.keys
        assert semi.order % lin.order == 0


class TestMatAutSubgroup:
    def test_order_matches_rm_group(self, f16):
        code = gabidulin(1, (f16.one, f16.generator**5))
        b = power_basis(f16)
        sub = mat_aut_subgroup(code, b)
        assert sub.order == rm_aut_group(code).order == 45
        assert not sub.complete
        assert _greedy_generators(sub) is not None

    def test_contained_in_brute_group(self, f8):
        code = gabidulin(1, (f8.one, f8.generator))
        b = power_basis(f8)
        sub = mat_aut_subgroup(code, b)
        brute = mat_aut_brute(expand_code(code, b))
        assert sub.keys <= brute.keys


class TestMatAutBrute:
    def test_zero_code_whole_group(self, f4):
        group = mat_aut_brute(MatrixCode(f4, 2, 2, []))
        assert group.order == 72

    def test_e11_stabilizer(self, f4):
        mc = MatrixCode(f4, 2, 2, [Mat(f4, [[1, 0], [0, 0]])])
        group = mat_aut_brute(mc)
        assert _greedy_generators(group) is not None
        # maps preserving span{E_11}: L, M must each fix the first
        # coordinate direction appropriately; verify a known member
        member = MatMap(False, Mat(f4, [[1, 0], [0, 1]]),
                        Mat(f4, [[1, 0], [1, 1]]))
        assert group.contains(member)
        for f in group.elements:
            from rmcodes import mat_apply
            assert mat_apply(f, mc) == mc

    def test_guard(self, f16):
        with pytest.raises(TooLarge):
            mat_aut_brute(MatrixCode(f16, 3, 4, []), guard=100)

    def test_worked_example_full_stabilizer(self, f16):
        """The expanded F_16 worked example (power basis): the full matrix
        stabilizer has order 1080 and holds the translated analytic group."""
        code = gabidulin(1, (f16.one, f16.generator**5))
        b = power_basis(f16)
        group = mat_aut_brute(expand_code(code, b))
        assert group.order == 1080
        swap = ((0, 1), (1, 0))
        assert [f.key for f in group.generators] == [
            (False, swap, ((0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0)), 0),
            (False, swap, ((0, 0, 0, 1), (0, 0, 1, 1), (1, 0, 0, 0), (1, 1, 0, 0)), 0),
            (False, swap, ((0, 0, 0, 1), (0, 1, 0, 0), (1, 1, 1, 1), (1, 0, 0, 0)), 0),
            (False, ((0, 1), (1, 1)),
             ((0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 1)), 0),
        ]
        sub = mat_aut_subgroup(code, b)
        assert sub.order == 45
        assert sub.keys <= group.keys


class TestGroupClosure:
    @pytest.fixture(scope="class")
    def f16_full(self, f16):
        """The 1080-element matrix stabilizer of the expanded worked example."""
        code = gabidulin(1, (f16.one, f16.generator**5))
        return mat_aut_brute(expand_code(code, power_basis(f16)))

    def test_full_space_gets_greedy_generators(self):
        f32 = make_tower(2, 1, 5)
        group = rm_aut_brute(RankMetricCode(Mat.identity(f32, 3, subdeg=5)))
        assert group.order == 5208
        assert len(group.generators) <= 10
        identity = RmMap.identity(f32, 3)
        assert bfs_closure(identity, group.generators) == group.keys
        for i, gmap in enumerate(group.generators):
            below = bfs_closure(identity, group.generators[:i])
            assert gmap.key == min(group.keys - below)

    def test_elements_kept_in_key_order(self, f16_full):
        backwards = replace(f16_full, elements=f16_full.elements[::-1])
        assert backwards.elements == f16_full.elements

    def test_is_closed(self, f16_full):
        els = f16_full.elements
        assert _greedy_generators(f16_full) is not None
        k = next(i for i, f in enumerate(els) if f.is_identity())
        for i in (k, (k + 1) % len(els)):
            assert _greedy_generators(replace(f16_full, elements=els[:i] + els[i + 1:])) is None

    @pytest.fixture()
    def calls(self, monkeypatch):
        """A list that grows by one at every composition of two maps."""
        calls = []
        compose = _Map.compose
        monkeypatch.setattr(_Map, "compose", lambda a, b: calls.append(1) or compose(a, b))
        return calls

    def test_each_element_composed_about_once(self, f16_full, calls):
        group = replace(f16_full)  # generators not read yet
        want = _greedy_generators(group)
        assert want is not None and len(calls) <= 2 * group.order
        calls.clear()
        assert group.generators == want
        assert len(calls) <= 2 * group.order

    def test_generators_picked_on_first_read(self, f16, calls):
        """Building a stabilizer composes no maps; the first generators read
        runs one closure, and later reads reuse its result."""
        code = gabidulin(1, (f16.one, f16.generator**5))
        mc = expand_code(code, power_basis(f16))
        assert rm_aut_brute(code).order == 45
        group = mat_aut_brute(mc)
        assert calls == [] and group.order == 1080
        gens = group.generators
        assert 0 < len(calls) <= 2 * group.order
        calls.clear()
        assert group.generators is gens
        assert calls == []
