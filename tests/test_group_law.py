"""Group-law properties of both map kinds, drawn by Hypothesis.

Random canonical maps, semilinear included, over F_16, F_9 and F_16 over
F_4 (e = 2), derandomized so that every run draws the same examples:
composition is associative, f composed with its inverse is the identity,
the order of a map divides the order of its group, and rm_to_mat carries
a composite to the composite of the translations.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from rmcodes import (
    MatMap,
    RmMap,
    enumerate_gl,
    group_order,
    make_tower,
    power_basis,
    rm_to_mat,
)

SPECS = [(2, 1, 4), (3, 1, 2), (2, 2, 2)]


@functools.cache
def _gl(spec, n):
    return tuple(enumerate_gl(make_tower(*spec), n))


@st.composite
def map_lists(draw, size, kinds=("rm", "mat")):
    """size maps of one kind on one space of one tower."""
    spec = draw(st.sampled_from(SPECS))
    tower = make_tower(*spec)
    kind = draw(st.sampled_from(kinds))
    l = draw(st.integers(1, 2))
    if kind == "rm":
        def one():
            return RmMap(draw(st.integers(1, tower.order - 1)),
                         draw(st.sampled_from(_gl(spec, l))),
                         draw(st.integers(0, tower.degree - 1)))
    else:
        m = draw(st.integers(1, 2))

        def one():
            return MatMap(l == m and draw(st.booleans()),
                          draw(st.sampled_from(_gl(spec, l))),
                          draw(st.sampled_from(_gl(spec, m))),
                          draw(st.integers(0, tower.e - 1)))
    return [one() for _ in range(size)]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(map_lists(3))
def test_composition_is_associative(maps):
    f, g, h = maps
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(map_lists(1))
def test_inverse_composes_to_identity(maps):
    f, = maps
    assert f.compose(f.inverse()).is_identity()
    assert f.inverse().compose(f).is_identity()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(map_lists(1))
def test_order_divides_group_order(maps):
    f, = maps
    if isinstance(f, RmMap):
        order = group_order(f.tower, f.l, "rm-semilinear")
    else:
        order = group_order(f.tower, f.l, "mat-semilinear", m=f.m)
    assert order % f.order() == 0


@settings(derandomize=True, max_examples=80, deadline=None)
@given(map_lists(2, kinds=("rm",)))
def test_rm_to_mat_is_a_homomorphism(maps):
    f, g = maps
    b = power_basis(f.tower)
    assert rm_to_mat(f.compose(g), b) == rm_to_mat(f, b).compose(rm_to_mat(g, b))
