"""Text forms round-trip, and mutated text parses or raises RmcodesError.

Derandomized Hypothesis properties over F_16, F_9 and F_16 over F_4
(e = 2): parse(format(x)) == x for elements, matrices, rank-metric and
matrix maps (Frobenius powers and the transpose flag included), the
three code-file kinds and subspace-code files.  A mutation of the
formatted text (a dropped or doubled character, a repeated or misspelt
key, a non-ASCII digit) either still parses or raises RmcodesError, never
another exception; a repeated or misspelt key, and a non-ASCII digit in
place of an ASCII one, always raise.
"""

import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmcodes import (
    FieldElement,
    GabidulinCode,
    IndependentTuple,
    Mat,
    MatMap,
    MatrixCode,
    RankMetricCode,
    RmcodesError,
    RmMap,
    enumerate_gl,
    make_tower,
    parse_element,
)
from rmcodes.codes import format_code_file, parse_code_file
from rmcodes.equivalence import format_map, parse_map
from rmcodes.fields import format_element
from rmcodes.matrices import format_matrix, parse_matrix
from rmcodes.subspaces import format_subspace_file, lift, parse_subspace_file

SPECS = [(2, 1, 4), (3, 1, 2), (2, 2, 2)]
NON_ASCII_DIGITS = ["\u00b2", "\u0663", "\uff11", "\u09e7"]  # superscript 2, Arabic-Indic 3, ...
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@functools.cache
def _gl(spec, n):
    return tuple(enumerate_gl(make_tower(*spec), n))


@st.composite
def towers(draw):
    spec = draw(st.sampled_from(SPECS))
    return spec, make_tower(*spec)


def _matrix(draw, tower, rows, cols, subdeg):
    codes = [c for c in range(tower.order) if tower.in_subfield(c, subdeg)]
    return Mat(tower, [[draw(st.sampled_from(codes)) for _ in range(cols)]
                       for _ in range(rows)], subdeg)


@st.composite
def maps(draw):
    """(tower, map): a canonical map of either kind, semilinear included."""
    spec, tower = draw(towers())
    l = draw(st.integers(1, 3 if tower.q == 2 else 2))
    L = draw(st.sampled_from(_gl(spec, l)))
    if draw(st.booleans()):
        return tower, RmMap(draw(st.integers(1, tower.order - 1)), L,
                            draw(st.integers(0, tower.degree - 1)))
    m = draw(st.integers(1, 2))
    return tower, MatMap(l == m and draw(st.booleans()), L,
                         draw(st.sampled_from(_gl(spec, m))),
                         draw(st.integers(0, tower.e - 1)))


@st.composite
def matrix_codes(draw, tower):
    l, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    basis, s = [], set()
    for _ in range(draw(st.integers(0, 3))):
        B = _matrix(draw, tower, l, m, 1)
        if any(any(r) for r in B.rows) and B.rows not in s:
            s.add(B.rows)
            basis.append(B)
    try:
        return MatrixCode(tower, l, m, basis)
    except RmcodesError:  # a dependent draw: keep the independent prefix
        return MatrixCode(tower, l, m, basis[:1])


@st.composite
def codes(draw):
    """A rankmetric, gabidulin or matrix code, each kind drawn evenly."""
    _, tower = draw(towers())
    kind = draw(st.sampled_from(["rankmetric", "gabidulin", "matrix"]))
    if kind == "matrix":
        return draw(matrix_codes(tower))
    l = draw(st.integers(1, tower.m - 1))
    while True:
        g = tuple(FieldElement(tower, draw(st.integers(1, tower.order - 1)))
                  for _ in range(l))
        try:
            g = IndependentTuple(g)
            break
        except RmcodesError:
            continue
    k = draw(st.integers(1, l))
    code = GabidulinCode(g, k)
    return code if kind == "gabidulin" else RankMetricCode(code.gen)


@st.composite
def subspace_codes(draw):
    """The lift of a matrix code at pivots 1..l."""
    _, tower = draw(towers())
    mc = draw(matrix_codes(tower))
    return lift(mc, tuple(range(1, mc.l + 1)))


def _same_code(a, b) -> bool:
    if type(a) is not type(b) or a.tower is not b.tower:
        return False
    if isinstance(a, MatrixCode):
        return (a.l, a.m) == (b.l, b.m) and [B.rows for B in a.basis] == [
            B.rows for B in b.basis]
    return a.gen.rows == b.gen.rows


# -- round trips ---------------------------------------------------------------

@PROPERTY
@given(towers(), st.data())
def test_element_round_trip(tw, data):
    _, tower = tw
    x = FieldElement(tower, data.draw(st.integers(0, tower.order - 1)))
    assert parse_element(tower, format_element(x)) == x


@PROPERTY
@given(towers(), st.data())
def test_matrix_round_trip(tw, data):
    _, tower = tw
    subdeg = data.draw(st.sampled_from([1, tower.m]))
    M = _matrix(data.draw, tower, data.draw(st.integers(1, 3)),
                data.draw(st.integers(1, 3)), subdeg)
    assert parse_matrix(tower, format_matrix(M), subdeg) == M


@PROPERTY
@given(maps())
def test_map_round_trip(tf):
    tower, f = tf
    assert parse_map(tower, format_map(f)) == f


@PROPERTY
@given(codes())
def test_code_file_round_trip(code):
    text = format_code_file(code)
    parsed = parse_code_file(text)
    assert _same_code(parsed, code)
    assert format_code_file(parsed) == text


@PROPERTY
@given(subspace_codes())
def test_subspace_file_round_trip(sc):
    text = format_subspace_file(sc)
    assert parse_subspace_file(text) == sc
    assert format_subspace_file(parse_subspace_file(text)) == text


# -- mutations -----------------------------------------------------------------

@st.composite
def char_mutations(draw, text):
    """text with one character dropped, doubled or, for an ASCII digit,
    replaced by a non-ASCII digit."""
    i = draw(st.integers(0, len(text) - 1))
    how = draw(st.sampled_from(["drop", "double", "digit"]))
    if how == "drop":
        return text[:i] + text[i + 1:]
    if how == "double":
        return text[:i] + text[i] + text[i:]
    digits = [j for j, ch in enumerate(text) if ch in "0123456789"]
    if not digits:
        return text
    j = draw(st.sampled_from(digits))
    return text[:j] + draw(st.sampled_from(NON_ASCII_DIGITS)) + text[j + 1:]


def _parses_or_refuses(parse, text):
    try:
        parse(text)
    except RmcodesError:
        pass


@PROPERTY
@given(towers(), st.data())
def test_mutated_element(tw, data):
    _, tower = tw
    text = format_element(FieldElement(tower, data.draw(st.integers(0, tower.order - 1))))
    _parses_or_refuses(lambda t: parse_element(tower, t), data.draw(char_mutations(text)))


@PROPERTY
@given(towers(), st.data())
def test_mutated_matrix(tw, data):
    _, tower = tw
    M = _matrix(data.draw, tower, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), 1)
    text = data.draw(char_mutations(format_matrix(M)))
    _parses_or_refuses(lambda t: parse_matrix(tower, t), text)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(maps(), st.data())
def test_mutated_map(tf, data):
    tower, f = tf
    text = data.draw(char_mutations(format_map(f)))
    _parses_or_refuses(lambda t: parse_map(tower, t), text)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(codes(), st.data())
def test_mutated_code_file(code, data):
    _parses_or_refuses(parse_code_file, data.draw(char_mutations(format_code_file(code))))


@st.composite
def formatted(draw, kind):
    """(parse, text): the text form of a drawn object of the kind, and the
    parser that reads it back."""
    if kind == "map":
        tower, f = draw(maps())
        return functools.partial(parse_map, tower), format_map(f)
    if kind == "code file":
        return parse_code_file, format_code_file(draw(codes()))
    if kind == "subspace file":
        return parse_subspace_file, format_subspace_file(draw(subspace_codes()))
    _, tower = draw(towers())
    if kind == "element":
        x = FieldElement(tower, draw(st.integers(0, tower.order - 1)))
        return functools.partial(parse_element, tower), format_element(x)
    M = _matrix(draw, tower, draw(st.integers(1, 3)), draw(st.integers(1, 3)), 1)
    return functools.partial(parse_matrix, tower), format_matrix(M)


@pytest.mark.parametrize("kind", ["element", "matrix", "map", "code file", "subspace file"])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_non_ascii_digit_refused(kind, data):
    """An integer in a text form is an optional sign and ASCII digits, so a
    text with one digit replaced by a non-ASCII digit never parses."""
    parse, text = data.draw(formatted(kind))
    j = data.draw(st.sampled_from([j for j, ch in enumerate(text) if ch in "0123456789"]))
    mutated = text[:j] + data.draw(st.sampled_from(NON_ASCII_DIGITS)) + text[j + 1:]
    with pytest.raises(RmcodesError):
        parse(mutated)


_SHAPE_KEY = re.compile(r"\b([lmk])=-?\d+")


def _misspell(key: str) -> str:
    return {"alpha": "alfa", "gamma": "gama", "L": "LL", "M": "N"}.get(key, key + key)


@PROPERTY
@given(maps(), st.data())
def test_map_key_repeated_or_misspelt(tf, data):
    tower, f = tf
    text = format_map(f)
    head, body = text[:text.index("[") + 1], text[text.index("[") + 1:-1]
    parts = re.split(r"; (?=\w+=)", body)  # format_map's separator
    i = data.draw(st.sampled_from([j for j, part in enumerate(parts) if "=" in part]))
    key, _, value = parts[i].partition("=")
    if data.draw(st.booleans()):
        parts.insert(i + 1, parts[i])
    else:
        parts[i] = f"{_misspell(key)}={value}"
    with pytest.raises(RmcodesError, match="key"):
        parse_map(tower, head + "; ".join(parts) + "]")


@PROPERTY
@given(codes(), st.data())
def test_shape_key_repeated_or_misspelt(code, data):
    header, field, shape, *body = format_code_file(code).split("\n")
    part = data.draw(st.sampled_from(list(_SHAPE_KEY.finditer(shape))))
    if data.draw(st.booleans()):
        bad = shape + "," + part.group()
    else:
        bad = shape[:part.start()] + _misspell(part.group(1)) + shape[part.end(1):]
    with pytest.raises(RmcodesError, match="key"):
        parse_code_file("\n".join([header, field, bad, *body]))
