"""End-to-end regression scenarios with pinned expected values.

Each scenario rebuilds one published worked example from its raw inputs
(modulus, defining vectors, matrices) and diffs every stated quantity
against what the library computes.  Any mismatch is reported with both
values; a scenario passes only if every line matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .automorphisms import m_beta, mat_aut_brute, mat_aut_subgroup, rm_aut_group, stabilizer_degree
from .codes import MatrixCode, _compressed, expand_code, gabidulin, min_rank_distance
from .elimination import flatten, span
from .equivalence import RmMap, maps_onto, mat_apply, mat_map, rm_apply, rm_map
from .errors import UnknownExample
from .fields import (
    IndependentTuple,
    find_normal_element,
    make_tower,
    normal_basis_from,
    power_basis,
)
from .matrices import Mat, element_order, enumerate_gl, rank
from .subspaces import verify_distance_law

@dataclass(frozen=True)
class CheckLine:
    label: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def render(self) -> str:
        mark = "ok" if self.ok else "MISMATCH"
        return f"  [{mark}] {self.label}: expected {self.expected}, got {self.actual}"


@dataclass(frozen=True)
class ExampleReport:
    example: str
    lines: tuple[CheckLine, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(line.ok for line in self.lines)

    def render(self) -> str:
        out = [f"example {self.example}: {'PASS' if self.passed else 'FAIL'}"]
        out.extend(f"  note: {n}" for n in self.notes)
        out.extend(line.render() for line in self.lines)
        return "\n".join(out)


def _berger_counterexample() -> ExampleReport:
    tower = make_tower(3, 1, 4)
    lines = []
    f = rm_map(tower.generator, Mat.identity(tower, 2))
    lines.append(CheckLine("order of [alpha, I_2] in the coset group", 80,
                           f.order()))
    gl = list(enumerate_gl(tower, 2))
    lines.append(CheckLine("|GL_2(F_3)|", 48, len(gl)))
    orders = [element_order(B) for B in gl]
    lines.append(CheckLine("elements of order 16 in GL_2(F_3)", 0,
                           orders.count(16)))
    # the quotient-by-scalars direct product: 40 * 48 = 1920 pairs
    n_quot = tower.mult_order // (tower.q - 1)
    pairs = [lcm(n_quot // gcd(i, n_quot) if i else 1, oB)
             for i in range(n_quot) for oB in orders]
    lines.append(CheckLine("pairs scanned in (F_81*/F_3*) x GL_2(F_3)", 1920,
                           len(pairs)))
    lines.append(CheckLine("elements of order 80 in the direct product", 0,
                           pairs.count(80)))
    notes = ("groups non-isomorphic: the coset group has an element of "
             "order 80, the direct product has none",)
    return ExampleReport("berger-counterexample", tuple(lines), notes)


def _f16_aut() -> ExampleReport:
    tower = make_tower(2, 1, 4, [1, 1, 0, 0, 1])
    w = tower.generator
    g = IndependentTuple((tower.one, w**5))
    code = gabidulin(1, g)
    lines = []
    sd = stabilizer_degree(g)
    lines.append(CheckLine("stabilizer degree d", 2, sd.d))
    Mb = m_beta(g, w**5)
    lines.append(CheckLine("M_beta for beta = g^5", ((0, 1), (1, 1)), Mb.rows))
    f = RmMap(1, Mb)
    image = rm_apply(f, code)
    lines.append(CheckLine("[1, M_beta] fixes the code", True, image == code))
    group = rm_aut_group(code)
    lines.append(CheckLine("automorphism group order", 45, group.order))
    lines.append(CheckLine("[1, M_beta] is a group member", True,
                           group.contains(f)))
    return ExampleReport("f16-aut", tuple(lines))


_F64_MODULUS = [1, 1, 0, 1, 1, 0, 1]  # t^6 + t^4 + t^3 + t + 1

_L_IMAGE = ((0, 1, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1), (1, 1, 1, 0))
_M_IMAGE = ((1, 0, 0, 0, 1, 0), (1, 1, 0, 1, 0, 1), (1, 1, 1, 1, 1, 1),
            (0, 1, 1, 0, 0, 0), (1, 1, 1, 0, 1, 1), (1, 0, 0, 1, 0, 0))
_L_STAB = ((0, 1, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0))
_M_STAB = ((0, 1, 0, 1, 0, 1), (0, 1, 0, 0, 1, 0), (0, 1, 0, 1, 0, 0),
           (1, 1, 1, 1, 1, 1), (0, 1, 0, 0, 0, 0), (1, 1, 0, 1, 1, 0))


def _f64_setup():
    tower = make_tower(2, 1, 6, _F64_MODULUS)
    w = tower.generator
    basis = normal_basis_from(find_normal_element(tower))
    g = IndependentTuple((w**37, w**42, w**16, w))
    code = gabidulin(2, g)
    expanded = expand_code(code, basis)
    return tower, w, basis, g, code, expanded


def _f64_not_gabidulin() -> ExampleReport:
    tower, w, basis, g, code, expanded = _f64_setup()
    lines = []
    L = Mat(tower, _L_IMAGE)
    M = Mat(tower, _M_IMAGE)
    lines.append(CheckLine("rank of the 6x6 matrix M", 6, rank(M)))
    f = mat_map(L, M)
    image_code = mat_apply(f, expanded)
    lines.append(CheckLine("|image code|", 4096, image_code.size))
    _, compressed, linear = _compressed(image_code, basis)
    lines.append(CheckLine("|span over F_64 of the compressed image|",
                           16777216, tower.order**compressed.rank))
    lines.append(CheckLine("image is F_64-linear", False, linear))
    notes = (f"basis: normal basis {basis} (the first normal generator "
             "power; it validates every printed matrix)",
             "image is matrix equivalent to the expanded code by "
             "construction, yet compresses to a non-linear set, so it is "
             "not an expanded Gabidulin code")
    return ExampleReport("f64-not-gabidulin", tuple(lines), notes)


def _f64_not_direct_product() -> ExampleReport:
    tower, w, basis, g, code, expanded = _f64_setup()
    lines = []
    L = Mat(tower, _L_STAB)
    M = Mat(tower, _M_STAB)
    f = mat_map(L, M)
    lines.append(CheckLine("[L, M] fixes the expanded code", True,
                           maps_onto(f, expanded, expanded)))
    f_l_only = mat_map(L, Mat.identity(tower, 6))
    lines.append(CheckLine("[L, I_6] fixes the expanded code", False,
                           maps_onto(f_l_only, expanded, expanded)))
    moved = rm_apply(rm_map(tower.one, L), g.elements)
    lines.append(CheckLine("g L", "(g^1, g^14, g^37, g^16)",
                           "(" + ", ".join(str(x) for x in moved) + ")"))
    lines.append(CheckLine("g L in the code", False,
                           code.contains(moved)))
    notes = (f"basis: normal basis {basis}",
             "a stabilizer member [L, M] whose left factor alone moves the "
             "code: no direct-product structure")
    return ExampleReport("f64-not-direct-product", tuple(lines), notes)


def _f64_full_aut() -> ExampleReport:
    tower, w, basis, g, code, expanded = _f64_setup()
    group = mat_aut_brute(expanded)
    sub = mat_aut_subgroup(code, basis)
    lines = [
        CheckLine("order of the full matrix automorphism group", 1134, group.order),
        CheckLine("[L, M] of f64-not-direct-product is a member", True,
                  group.contains(mat_map(Mat(tower, _L_STAB), Mat(tower, _M_STAB)))),
        CheckLine("translated analytic maps in the group", 189,
                  sum(map(group.contains, sub.elements))),
        CheckLine("index of the translated analytic group", 6, group.order // sub.order),
    ]
    notes = (f"basis: normal basis {basis}",
             "the exact stabilizer: one linear solve for M per leading-one L "
             "in GL_4(F_2), 20160 solves")
    return ExampleReport("f64-full-aut", tuple(lines), notes)


def _distance_law(seed: int = 0) -> ExampleReport:
    import random
    tower = make_tower(2, 1, 4, [1, 1, 0, 0, 1])
    w = tower.generator
    basis = power_basis(tower)
    code = gabidulin(1, (tower.one, w**5))
    expanded = expand_code(code, basis)
    lines = []
    lines.append(CheckLine("rank distance of the base code", 2,
                           min_rank_distance(code)))
    report = verify_distance_law(expanded, (1, 2))
    lines.append(CheckLine("lifted subspace distance law holds", True,
                           report.all_match))
    lines.append(CheckLine("d_S,min of the lifted code", 4, report.ds_min))
    rnd = random.Random(seed)
    all_ok = True
    pivot_free = True
    for _ in range(10):
        l = rnd.choice((2, 3))
        m = rnd.choice((3, 4))
        dim = rnd.randrange(1, 5)
        s = span(tower, l * m)
        mats = []
        while len(mats) < dim:
            A = Mat(tower, [[rnd.randrange(2) for _ in range(m)] for _ in range(l)],
                    subdeg=1, check=False)
            if s.add(flatten(A.rows)):
                mats.append(A)
        mc = MatrixCode(tower, l, m, mats)
        piv1 = tuple(range(1, l + 1))
        piv2 = tuple(sorted(rnd.sample(range(1, l + m + 1), l)))
        while piv2 == piv1:
            piv2 = tuple(sorted(rnd.sample(range(1, l + m + 1), l)))
        r1 = verify_distance_law(mc, piv1)
        r2 = verify_distance_law(mc, piv2)
        all_ok = all_ok and r1.all_match and r2.all_match
        pivot_free = pivot_free and (r1.distance_multiset == r2.distance_multiset)
    lines.append(CheckLine("law holds on 10 random codes, two pivot choices",
                           True, all_ok))
    lines.append(CheckLine("distance multiset is pivot-independent", True,
                           pivot_free))
    return ExampleReport("distance-law", tuple(lines))


_EXAMPLES = {  # id -> report for a seed; only distance-law draws inputs
    "berger-counterexample": lambda seed: _berger_counterexample(),
    "f16-aut": lambda seed: _f16_aut(),
    "f64-not-gabidulin": lambda seed: _f64_not_gabidulin(),
    "f64-not-direct-product": lambda seed: _f64_not_direct_product(),
    "f64-full-aut": lambda seed: _f64_full_aut(),
    "distance-law": _distance_law,
}
EXAMPLE_IDS = tuple(_EXAMPLES)


def run_example(example: str, seed: int = 0) -> ExampleReport:
    if example not in _EXAMPLES:
        raise UnknownExample(
            f"unknown example {example!r}; choose from {', '.join(EXAMPLE_IDS)}")
    return _EXAMPLES[example](seed)
