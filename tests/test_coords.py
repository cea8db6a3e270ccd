"""expand and coords, one map read off the solver each tuple keeps.

The oracles are the two routines that computed this map before: the
F_q-coordinate rows times the inverse of the basis coordinate matrix
(expand) and a fresh Gauss-Jordan decomposition per call (coords).  They
are checked on every element of F_16 (power and normal bases), F_27 and
F_16 over F_4 (e = 2), and on the partial tuple (1, g^5) of F_16, where
elements outside the span must raise NotInSpan on both sides.  Hypothesis
properties, derandomized so that every run draws the same examples, check
the round trip through compress and the defining identity of coords.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gauss_jordan_oracle as oracle
from rmcodes import (
    BadParams,
    DependentVector,
    IndependentTuple,
    Mat,
    MatrixCode,
    NotInSpan,
    OrderedBasis,
    compress,
    compress_code,
    coords,
    expand,
    inverse,
    make_tower,
    power_basis,
)
from rmcodes.errors import NonlinearCode
from rmcodes.fields import FieldElement, find_normal_element, normal_basis_from


def _coordinate_matrix(g):
    t = g.tower
    return Mat(t, [t.fq_coords(x.code) for x in g], check=False)


def expand_oracle(x, b):
    """eps_b(x) as fq_coords(x) @ inverse(coordinate matrix of b)."""
    t = b.tower
    return (Mat(t, [t.fq_coords(e.code) for e in x], check=False)
            @ inverse(_coordinate_matrix(b)))


def coords_oracle(w, g):
    """Coefficients of w in terms of g by a Gauss-Jordan solve per call."""
    t = g.tower
    return oracle.row_decompose([t.fq_coords(e.code) for e in w],
                                _coordinate_matrix(g))


def _f16():
    return make_tower(2, 1, 4, [1, 1, 0, 0, 1])


def _bases():
    f16, f27, f16_q4 = _f16(), make_tower(3, 1, 3), make_tower(2, 2, 2)
    return {
        "F16-power": power_basis(f16),
        "F16-normal": normal_basis_from(find_normal_element(f16)),
        "F27-power": power_basis(f27),
        "F27-normal": normal_basis_from(find_normal_element(f27)),
        "F16/F4-power": power_basis(f16_q4),
        "F16/F4-other": OrderedBasis((f16_q4.generator**3, f16_q4.generator**7)),
    }


@pytest.mark.parametrize("name", list(_bases()))
def test_full_bases_match_both_oracles(name):
    b = _bases()[name]
    everything = tuple(b.tower.elements())
    want = expand_oracle(everything, b)
    assert expand(everything, b) == want
    assert coords(everything, b) == want
    assert coords_oracle(everything, b) == want


def test_partial_tuple_matches_oracle_or_both_raise():
    f16 = _f16()
    g = IndependentTuple((f16.one, f16.generator**5))
    inside = 0
    for x in f16.elements():
        try:
            want = coords_oracle((x,), g)
        except NotInSpan:
            with pytest.raises(NotInSpan):
                coords((x,), g)
            with pytest.raises(NotInSpan):
                expand((x,), g)
            continue
        inside += 1
        assert coords((x,), g) == want == expand((x,), g)
    assert inside == 4


TOWERS = [_f16(), make_tower(3, 1, 3), make_tower(2, 2, 2), make_tower(2, 1, 3)]


@st.composite
def tuples(draw, full):
    """An independent tuple over one of TOWERS, of length m when full: drawn
    elements are kept when independent of those kept before, and the power
    basis fills up what is missing."""
    t = draw(st.sampled_from(TOWERS))
    n = t.m if full else draw(st.integers(1, t.m))
    drawn = draw(st.lists(st.integers(1, t.order - 1), max_size=n))
    els = ()
    for x in [FieldElement(t, c) for c in drawn] + list(power_basis(t)):
        try:
            els = IndependentTuple(els + (x,)).elements
        except DependentVector:
            continue
        if len(els) == n:
            return IndependentTuple(els)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_compress_inverts_expand(data):
    b = data.draw(tuples(full=True))
    t = b.tower
    x = tuple(FieldElement(t, c) for c in data.draw(
        st.lists(st.integers(0, t.order - 1), min_size=1, max_size=4)))
    assert compress(expand(x, b), b) == x


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_coords_times_coordinate_matrix_gives_w(data):
    g = data.draw(tuples(full=False))
    t = g.tower
    base = t.subfield_codes(1)
    rows = data.draw(st.lists(
        st.lists(st.sampled_from(base), min_size=len(g), max_size=len(g)),
        min_size=1, max_size=3))
    w = tuple(FieldElement(t, t.add_scaled([0], r, [(x.code,) for x in g])[0])
              for r in rows)
    C = coords(w, g)
    assert C.rows == tuple(map(tuple, rows))
    assert (C @ _coordinate_matrix(g)).rows == tuple(t.fq_coords(x.code) for x in w)


def test_error_classes(f4, f16):
    b = power_basis(f4)
    with pytest.raises(NonlinearCode):  # its compressed F_4-span has 4 words, not 2
        compress_code(MatrixCode(f4, 1, 2, [Mat(f4, [[1, 0]])]), b)
    with pytest.raises(BadParams):
        compress_code(MatrixCode(f4, 1, 2, []), b)
    w = f16.generator
    with pytest.raises(DependentVector):
        IndependentTuple((w, w**5, w + w**5))
    with pytest.raises(DependentVector):
        MatrixCode(f4, 1, 2, [Mat(f4, [[1, 0]]), Mat(f4, [[1, 0]])])
