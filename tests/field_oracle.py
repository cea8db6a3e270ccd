"""Reference oracle: digit-wise addition and negation of tower codes.

An element code's base-p digits are its polynomial coefficients, so a sum
or a negation acts on each digit mod p on its own.  add_by_digits is the
digit loop FieldTower.add ran for odd p before it used Zech logarithms;
test_odd_addition.py checks add, sub, neg and add_scaled against these
functions.  Do not optimise them: they are the slow path by design.
"""

from __future__ import annotations

from typing import Sequence

from rmcodes.fields import FieldTower


def add_by_digits(p: int, a: int, b: int) -> int:
    out, mul = 0, 1
    while a or b:
        a, ra = divmod(a, p)
        b, rb = divmod(b, p)
        out += ((ra + rb) % p) * mul
        mul *= p
    return out


def neg_by_digits(p: int, a: int) -> int:
    out, mul = 0, 1
    while a:
        a, r = divmod(a, p)
        out += ((-r) % p) * mul
        mul *= p
    return out


def sub_by_digits(p: int, a: int, b: int) -> int:
    return add_by_digits(p, a, neg_by_digits(p, b))


def add_scaled(t: FieldTower, v: Sequence[int], coeffs: Sequence[int],
               rows: Sequence[Sequence[int]]) -> list[int]:
    """v + sum of coeffs[i] * rows[i], entry by entry with t.mul and the
    digit-wise sum."""
    out = list(v)
    for c, row in zip(coeffs, rows):
        out = [add_by_digits(t.p, x, t.mul(c, y)) for x, y in zip(out, row)]
    return out
