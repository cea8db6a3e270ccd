"""Modulus tests of tower construction checked against sympy.

Every monic polynomial of degree <= 6 over F_2, <= 4 over F_3, <= 3 over
F_5 and <= 2 over F_7: irreducibility by sympy's factoriser, primitivity by
the multiplicative order of x modulo the polynomial, found by repeated
multiplication.
"""

import itertools

import pytest

from rmcodes.fields import _default_modulus, _is_irreducible, _root_is_primitive

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
MAX_DEGREE = {2: 6, 3: 4, 5: 3, 7: 2}
CASES = [(p, d) for p, top in MAX_DEGREE.items() for d in range(1, top + 1)]


def monic(p, degree):
    """Ascending coefficient tuples, in the order _default_modulus tries them."""
    for low in itertools.product(range(p), repeat=degree):
        yield tuple(reversed(low)) + (1,)


def as_poly(f, p):
    return sympy.Poly(list(reversed(f)), X, modulus=p)


def root_order(f, p):
    """Least k >= 1 with x^k = 1 modulo f, or None when x is not a unit."""
    mod, x = as_poly(f, p), sympy.Poly(X, X, modulus=p)
    acc = x.rem(mod)
    for k in range(1, p ** (len(f) - 1)):
        if acc.is_one:
            return k
        acc = (acc * x).rem(mod)
    return None


@pytest.mark.parametrize("p,degree", CASES)
def test_irreducible_and_primitive(p, degree):
    for f in monic(p, degree):
        irreducible = as_poly(f, p).is_irreducible
        assert _is_irreducible(f, p) == irreducible, f
        if irreducible:
            assert _root_is_primitive(f, p) == (root_order(f, p) == p**degree - 1), f


@pytest.mark.parametrize("p,degree", CASES)
def test_default_modulus_is_least_primitive(p, degree):
    expected = next(f for f in monic(p, degree)
                    if as_poly(f, p).is_irreducible
                    and root_order(f, p) == p**degree - 1)
    assert _default_modulus(p, degree) == expected
