"""Dense exact linear algebra over any field of a tower.

Matrices carry a subfield tag: entries of a Mat with subdeg=d live in
F_{q^d} inside the tower's top field (d=1 is the base field F_q, d=m the
top field).  Rank, RREF, inversion and row decomposition run on the
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

_GL_CANDIDATE_GUARD = 2**24


class Mat:
    """Immutable matrix over one field of a tower; entries stored as codes."""

    __slots__ = ("tower", "subdeg", "rows", "nrows", "ncols")

    def __init__(self, tower: FieldTower, rows: Sequence[Sequence[int]],
                 subdeg: int = 1, check: bool = True, ncols: int | None = None):
        self.tower = tower
        self.subdeg = subdeg
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else (ncols or 0)
        if check:
            if any(len(r) != self.ncols for r in self.rows):
                raise ShapeMismatch("ragged rows")
            if subdeg < 1 or tower.m % subdeg != 0:
                raise BadParams(f"subfield degree {subdeg} does not divide m")
            order, sub = tower.order, subdeg < tower.m
            for r in self.rows:
                for c in r:
                    if type(c) is not int:  # bool is an int subclass
                        raise BadParams(f"entry {c!r} is not an integer code")
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
    """Least k >= 1 with M^k = I; requires M invertible."""
    if M.nrows != M.ncols:
        raise ShapeMismatch("order of a non-square matrix")
    if rank(M) != M.nrows:
        raise Singular("order of a singular matrix")
    ident = Mat.identity(M.tower, M.nrows, M.subdeg)
    acc = M
    k = 1
    while acc != ident:
        acc = acc @ M
        k += 1
    return k


def gl_order(field_size: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= field_size**n - field_size**i
    return out


def enumerate_gl(tower: FieldTower, n: int) -> Iterator[Mat]:
    """Every invertible n x n matrix over F_q, exactly once.

    Order is lexicographic by the row-major entry list, entries compared by
    their position in the sorted code list of F_q.  Generation walks rows
    and skips spans, so the cost is |GL| and not |F|^(n^2); the guard still
    uses the candidate count |F|^(n^2) as the documented desk-scale limit.
    """
    codes = tower.subfield_codes(1)
    size = len(codes)
    if size ** (n * n) > _GL_CANDIDATE_GUARD:
        raise TooLarge(
            f"{size}^{n * n} candidate matrices exceed the enumeration guard")
    rows: list[tuple[int, ...]] = []

    def rec():
        if len(rows) == n:
            yield Mat(tower, list(rows), check=False)
            return
        span = elimination.span(tower, n, 1, rows)
        for cand in itertools.product(codes, repeat=n):
            if not span.contains(cand):
                rows.append(cand)
                yield from rec()
                rows.pop()

    yield from rec()


def row_decompose(targets: Sequence[Sequence[int]], M: Mat) -> Mat:
    """Solve C with C @ M = targets over M's field; NotInSpan if impossible.

    targets is a sequence of code rows of length M.ncols; the result C is
    len(targets) x M.nrows.
    """
    s = elimination.solver(M.tower, M.rows, M.ncols, M.subdeg)
    return Mat(M.tower, elimination.decompose(s, targets), M.subdeg, check=False)


def format_matrix(M: Mat) -> str:
    return ";".join(
        ",".join(format_element(FieldElement(M.tower, c)) for c in row)
        for row in M.rows)


def parse_matrix(tower: FieldTower, text: str, subdeg: int = 1) -> Mat:
    rows = []
    for row_text in text.strip().split(";"):
        rows.append([parse_element(tower, tok).code for tok in row_text.split(",")])
    return Mat(tower, rows, subdeg)
