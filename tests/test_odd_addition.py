"""Odd-characteristic addition by Zech logarithms against the digit-wise oracle.

FieldTower.add, sub and add_scaled add through the table
zech[k] = log(1 + g^k); field_oracle adds each base-p digit on its own.
They are compared on every pair of elements of the small odd towers, on
seeded pairs and add_scaled rows of towers up to F_2187, and by
derandomized Hypothesis properties (associativity and distributivity).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_oracle as oracle
from rmcodes import make_tower

SMALL = [(3, 1, 1), (5, 1, 1), (3, 2, 1), (5, 1, 2), (3, 1, 3), (3, 1, 4), (3, 2, 2)]
LARGE = [(7, 1, 3), (3, 1, 6), (11, 1, 3), (3, 1, 7)]


@pytest.mark.parametrize("p,e,m", SMALL)
def test_every_pair(p, e, m):
    t = make_tower(p, e, m)
    xs = [x for x in range(t.order) for _ in range(t.order)]
    ys = [y for _ in range(t.order) for y in range(t.order)]
    for x, y in zip(xs, ys):
        assert t.add(x, y) == oracle.add_by_digits(p, x, y)
        assert t.sub(x, y) == oracle.sub_by_digits(p, x, y)
    # x + c*y over all pairs at once, for c = 1, -1, g and the last power of g
    for c in (1, t.neg(1), t.gen_power(1).code, t.gen_power(-1).code):
        assert t.add_scaled(xs, (c,), (ys,)) == oracle.add_scaled(t, xs, (c,), (ys,))


@pytest.mark.parametrize("p,e,m", LARGE)
def test_seeded_pairs_and_rows(p, e, m):
    t = make_tower(p, e, m)
    rng = random.Random(f"{p},{e},{m}")
    for _ in range(20000):
        x, y = rng.randrange(t.order), rng.randrange(t.order)
        assert t.add(x, y) == oracle.add_by_digits(p, x, y)
        assert t.sub(x, y) == oracle.sub_by_digits(p, x, y)

    def draw():  # about one entry in five is zero, so the zero cases are hit
        return rng.randrange(t.order) if rng.random() > 0.2 else 0

    for _ in range(200):
        v = [draw() for _ in range(6)]
        coeffs = [draw() for _ in range(3)]
        rows = [[draw() for _ in range(6)] for _ in range(3)]
        assert t.add_scaled(v, coeffs, rows) == oracle.add_scaled(t, v, coeffs, rows)
    # x + (-x) = 0 along the whole row
    xs = [rng.randrange(t.order) for _ in range(100)]
    assert t.add_scaled(xs, (t.neg(1),), (xs,)) == [0] * 100


ODD_TOWERS = [make_tower(*pem) for pem in SMALL[2:] + LARGE]


@st.composite
def triples(draw):
    t = draw(st.sampled_from(ODD_TOWERS))
    a, b, c = (draw(st.integers(0, t.order - 1)) for _ in range(3))
    return t, a, b, c


@settings(derandomize=True, max_examples=200, deadline=None)
@given(triples())
def test_associative(tabc):
    t, a, b, c = tabc
    assert t.add(t.add(a, b), c) == t.add(a, t.add(b, c))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(triples())
def test_distributive(tabc):
    t, a, b, c = tabc
    assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))
    assert t.add_scaled([t.mul(a, b)], (a,), ([c],)) == [t.mul(a, t.add(b, c))]
