"""Dense exact linear algebra over any field of a tower.

Matrices carry a subfield tag: entries of a Mat with subdeg=d live in
F_{q^d} inside the tower's top field (d=1 is the base field F_q, d=m the
top field).  Rank, RREF and inversion run on the
shared kernel in :mod:`rmcodes.elimination`, which works over the tagged
subfield, so they are exact over that field.  Pivot columns are reported
1-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import elimination
from .errors import BadParams, ShapeMismatch, Singular, TooLarge, TowerMismatch
from .fields import FieldElement, FieldTower, format_element, parse_element

_GL_GUARD = 2**24  # matrices one enumerate_gl may walk
DEFAULT_GUARD = 2**20  # the library's bound on a walk or a table, where a caller sets none


class Mat:
    """Immutable matrix over one field of a tower; entries stored as codes."""

    __slots__ = ("tower", "subdeg", "rows", "nrows", "ncols")

    def __init__(self, tower: FieldTower, rows: Sequence[Sequence[int]],
                 subdeg: int = 1, check: bool = True, ncols: int | None = None):
        self.tower = tower
        self.subdeg = subdeg
        self.rows = tuple(map(tuple, rows))
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else (ncols or 0)
        if check:
            if any(len(r) != self.ncols for r in self.rows):
                raise ShapeMismatch("ragged rows")
            if subdeg < 1 or tower.m % subdeg != 0:
                raise BadParams(f"subfield degree {subdeg} does not divide m")
            order, sub, seen = tower.order, subdeg < tower.m, set()
            for r in self.rows:
                for c in r:
                    if type(c) is not int:  # bool is an int subclass
                        raise BadParams(f"entry {c!r} is not an integer code")
                    if c in seen:
                        continue
                    seen.add(c)
                    if not 0 <= c < order:
                        raise BadParams(f"entry code {c} outside [0, {order})")
                    if sub and not tower.in_subfield(c, subdeg):
                        raise BadParams(
                            f"entry {format_element(FieldElement(tower, c))} "
                            f"outside F_(q^{subdeg})")

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, tower: FieldTower, n: int, subdeg: int = 1) -> "Mat":
        return cls(tower, [[1 if i == j else 0 for j in range(n)] for i in range(n)],
                   subdeg, check=False)

    # -- basic structure ------------------------------------------------------

    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    def _same_space(self, other: "Mat"):
        if self.tower is not other.tower:
            raise TowerMismatch("matrices from different towers")
        if self.subdeg != other.subdeg:
            raise ShapeMismatch(
                f"field tags differ ({self.subdeg} vs {other.subdeg})")

    def _entrywise(self, other: "Mat", op, name: str) -> "Mat":
        self._same_space(other)
        if self.shape() != other.shape():
            raise ShapeMismatch(f"{name} shape mismatch")
        return Mat(self.tower,
                   [[op(a, b) for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.rows, other.rows)],
                   self.subdeg, check=False)

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, self.tower.add, "addition")

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, self.tower.sub, "subtraction")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._same_space(other)
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"cannot multiply {self.shape()} by {other.shape()}")
        return Mat(self.tower, [other.vec_mul(r) for r in self.rows],
                   self.subdeg, check=False, ncols=other.ncols)

    def vec_mul(self, vec: Sequence[int]) -> tuple[int, ...]:
        """The row vector vec (codes) times this matrix: sum of vec_i * row_i."""
        return tuple(self.tower.add_scaled([0] * self.ncols, vec, self.rows))

    def transpose(self) -> "Mat":
        return Mat(self.tower, list(zip(*self.rows)), self.subdeg, check=False)

    def frobenius(self, r: int) -> "Mat":
        """Entrywise sigma_p^r; subfields are Frobenius-stable."""
        if r % self.tower.degree == 0:
            return self  # a Mat is immutable
        frob = self.tower.frob
        return Mat(self.tower, [[frob(x, r) for x in row] for row in self.rows],
                   self.subdeg, check=False)

    def is_identity(self) -> bool:
        return (self.nrows == self.ncols
                and all(x == (1 if i == j else 0)
                        for i, r in enumerate(self.rows) for j, x in enumerate(r)))

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.tower is other.tower
                and self.subdeg == other.subdeg and self.rows == other.rows)

    def __hash__(self):
        return hash((id(self.tower), self.subdeg, self.rows))

    def __str__(self):
        return format_matrix(self)

    def __repr__(self):
        return f"Mat({self.shape()}, subdeg={self.subdeg}, {format_matrix(self)})"


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form with 1-based pivot columns."""

    rref: Mat
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(M: Mat) -> RrefResult:
    """Canonical reduced row echelon form; preserves the row space."""
    s = elimination.span(M.tower, M.ncols, M.subdeg, M.rows)
    rows = s.rows() + [(0,) * M.ncols] * (M.nrows - s.rank)
    return RrefResult(Mat(M.tower, rows, M.subdeg, check=False, ncols=M.ncols),
                      s.pivots)


def rank(M: Mat) -> int:
    return elimination.span(M.tower, M.ncols, M.subdeg, M.rows).rank


def inverse(M: Mat) -> Mat:
    if M.nrows != M.ncols:
        raise ShapeMismatch("inverse of a non-square matrix")
    return Mat(M.tower, elimination.inverse(M.tower, M.rows, M.subdeg),
               M.subdeg, check=False)


def element_order(M: Mat) -> int:
    """Least k >= 1 with M^k = I; requires M invertible.  TooLarge once k
    passes DEFAULT_GUARD: an n x n matrix over F_Q may have order Q^n - 1."""
    if M.nrows != M.ncols:
        raise ShapeMismatch("order of a non-square matrix")
    if rank(M) != M.nrows:
        raise Singular("order of a singular matrix")
    ident = Mat.identity(M.tower, M.nrows, M.subdeg)
    acc = M
    k = 1
    while acc != ident:
        if k == DEFAULT_GUARD:
            raise TooLarge(f"matrix order exceeds guard {DEFAULT_GUARD}")
        acc = acc @ M
        k += 1
    return k


def gl_order(field_size: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= field_size**n - field_size**i
    return out


def enumerate_gl(tower: FieldTower, n: int, leading_one: bool = False) -> Iterator[Mat]:
    """Every invertible n x n matrix over F_q, exactly once; with
    leading_one, only those whose first nonzero entry (row-major) is one.

    Order is lexicographic by the row-major entry list, entries compared by
    their position in the sorted code list of F_q; gl_rank reads a matrix's
    index in it.  Generation walks rows and skips spans, so the work is
    |GL_n(F_q)| matrices, and the guard refuses on that count before the
    first is yielded.
    """
    size = gl_order(tower.q, n)
    if size > _GL_GUARD:
        raise TooLarge(f"|GL_{n}(F_{tower.q})| = {size} matrices exceed "
                       f"the enumeration guard {_GL_GUARD}")
    if n == 0:
        yield Mat(tower, [], check=False)  # GL_0 holds the empty matrix alone
        return
    cands = list(itertools.product(tower.subfield_codes(1), repeat=n))

    def walk(rows, above):  # above: the span of rows
        for row in cands:
            if leading_one and not rows and next(filter(None, row), 1) != 1:
                continue
            if len(rows) + 1 < n:
                if (below := above.extended([row])) is not None:
                    yield from walk(rows + [row], below)
            elif not above.contains(row):
                yield Mat(tower, rows + [row], check=False)

    yield from walk([], elimination.span(tower, n))


def _gl_members(tower: FieldTower, basis: Sequence[Sequence[int]], n: int,
                leading_one: bool = False) -> Iterator[tuple]:
    """The rows of each invertible n x n matrix in the F_q-span of basis (a
    list of row-major entry rows), whose first nonzero entry is one when
    leading_one, in enumerate_gl's order.

    In reduced echelon form a basis row whose pivot lies in matrix row k
    is zero in the rows above, so choosing the coefficients of those basis
    rows, row by row, fixes the member's rows in turn, and a row in the
    span of the rows above it ends the branch.  The coefficients are the
    member's entries at the pivots, so taking them in code order walks the
    members lexicographically.
    """
    echelon = elimination.span(tower, n * n, 1, basis)
    reduced, pivot_rows = echelon.rows(), [(p - 1) // n for p in echelon.pivots]
    if not reduced or pivot_rows[0]:
        return iter(())  # row 0 is zero
    codes = tower.subfield_codes(1)

    def walk(j, v, above):  # above: the span of the rows fixed so far
        # once basis row j is chosen, the rows up to the next one's pivot row are fixed
        k, stop = pivot_rows[j], pivot_rows[j + 1] if j + 1 < len(reduced) else n
        for c in codes:
            w = tower.add_scaled(v, (c,), (reduced[j],))
            below = above
            if stop > k:
                if leading_one and not k and next(filter(None, w[:n]), 1) != 1:
                    continue
                below = above.extended([w[r:r + n] for r in range(k * n, stop * n, n)])
                if below is None:
                    continue
            if j + 1 < len(reduced):
                yield from walk(j + 1, w, below)
            else:
                yield tuple(tuple(w[r:r + n]) for r in range(0, n * n, n))

    return walk(0, [0] * (n * n), elimination.span(tower, n))


def gl_rank(M: Mat, leading_one: bool = False) -> int:
    """The index of M in enumerate_gl(M.tower, n, leading_one), without
    the walk.  Singular when M is singular; BadParams when M is not over
    the base field or, with leading_one, its first nonzero entry is not one.

    Row i contributes its index among the rows that may follow rows 0..i-1,
    times the prod_{j>i} (q^n - q^j) ways to finish the matrix.  That index
    is the count of vectors below row i minus the count of span members
    below it.  Span.add_at gives the column c where row i leaves the span
    of the rows before it, and the entry x at c of the members that agree
    with it before c.  A member below row i either agrees with it up to a
    pivot column and is smaller there, with the later pivots free, or
    agrees with it up to c and has x < row[c] there.
    """
    if M.nrows != M.ncols:
        raise ShapeMismatch("GL rank of a non-square matrix")
    if M.subdeg != 1:
        raise BadParams("GL rank needs a matrix over the base field")
    if leading_one and next((c for r in M.rows for c in r if c), 0) != 1:
        raise BadParams("the first nonzero entry is not one")
    tower, n = M.tower, M.nrows
    codes = tower.subfield_codes(1)
    q = len(codes)
    # an entry's place among the codes; F_p codes are 0..p-1 already
    digit = None if tower.e == 1 else {c: i for i, c in enumerate(codes)}
    s = elimination.span(tower, n)
    pivots: list[int] = []  # pivot columns of the rows so far, ascending
    index = 0
    for i, row in enumerate(M.rows):
        found = s.add_at(row)
        if found is None:
            raise Singular("GL rank of a singular matrix")
        col, x = found
        d = row if digit is None else [digit[c] for c in row]
        below = 0
        for k in d:
            below = below * q + k
        if leading_one and not i:
            # the vectors opening with a one below row 0: every one with a
            # later lead, then those with its lead and a smaller tail
            width = q ** (n - 1 - col)
            below = (width - 1) // (q - 1) + below % width
        else:
            after = i  # pivot columns after the one read
            for p in pivots:
                if p > col:
                    break
                after -= 1
                below -= d[p] * q**after
            if (x if digit is None else digit[x]) < d[col]:
                below -= q**after
        index = index * (q**n - q**i) + below
        pivots.append(col)
        pivots.sort()
    return index


def format_matrix(M: Mat) -> str:
    return ";".join(
        ",".join(format_element(FieldElement(M.tower, c)) for c in row)
        for row in M.rows)


def parse_matrix(tower: FieldTower, text: str, subdeg: int = 1) -> Mat:
    rows = [row_text.split(",") for row_text in text.strip().split(";")]
    # each distinct token parsed once, in order of first appearance
    codes = {tok: parse_element(tower, tok).code
             for tok in dict.fromkeys(itertools.chain.from_iterable(rows))}
    return Mat(tower, [[codes[tok] for tok in row] for row in rows], subdeg)
