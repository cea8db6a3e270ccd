"""Constant-dimension subspace codes and the lifting construction.

A Subspace is canonicalised to its unique reduced row echelon basis, held
packed in the elimination kernel's row form, so equality compares packed
bases (.mat unpacks one on first read, for unlift and the file writer).
Subspaces are built only where words are compared: in lift's set of
words, in subspace files and for dist.  Lifting places the columns of
matrix codewords between identity pivot columns; it is linear, so each
lifted word's rows are combinations of the packed, placed basis rows.
The subspace distance of two lifts is twice the rank distance of their
matrices, wherever the pivots sit.

The pairwise scans, verify_distance_law and SubspaceCode.min_distance,
read their distances off one row scan over spans of any basis,
_distance_rows, so the law builds no Subspace.  Where the kernel gives
member masks (F_2 and F_3, small rows and words, a bounded total;
elimination.member_masks), a pair's distance is counted from two masks,
one AND and one popcount; otherwise, and for a single pair
(subspace_distance), it is one join_rank elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .codes import DEFAULT_GUARD, MatrixCode, parse_shape
from .elimination import Span, member_masks, span
from .errors import (
    AmbientMismatch,
    BadParams,
    BadPivots,
    MixedPivots,
    NonlinearCode,
    TooLarge,
)
from .fields import FieldTower, parse_field_spec
from .matrices import Mat, format_matrix, parse_matrix


class Subspace:
    """A subspace of F_q^n, stored by its RREF basis in the elimination
    kernel's row form; .mat unpacks it, on first read, as a matrix."""

    __slots__ = ("tower", "n", "dim", "pivots", "_span", "_rref", "_mat")

    def __init__(self, basis: Mat | Span):
        """basis: a matrix over F_q or a Span of F_q^n (no extra columns)."""
        if isinstance(basis, Mat):
            if basis.subdeg != 1:
                raise BadParams(f"subspace of F_q^n needs a matrix over F_q, "
                                f"got subdeg {basis.subdeg}")
            basis = span(basis.tower, basis.ncols, 1, basis.rows)
        self.tower = basis.tower
        self.n = basis.width
        self._span = s = basis.reduced()
        self._rref = tuple(reversed(s._basis.values()))  # pivot columns ascending
        self.dim = len(self._rref)
        self.pivots = s.pivots
        self._mat = None

    @property
    def mat(self) -> Mat:
        if self._mat is None:
            self._mat = Mat(self.tower, map(self._span._unpack, self._rref),
                            subdeg=1, check=False, ncols=self.n)
        return self._mat

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.tower is other.tower
                and self.n == other.n and self._rref == other._rref)

    def __hash__(self):
        return hash((id(self.tower), self.n, self._rref))

    def __repr__(self):
        return f"Subspace(n={self.n}, dim={self.dim}, {format_matrix(self.mat)})"


def subspace_distance(U: Subspace, V: Subspace) -> int:
    """dim(U+V) - dim(U n V), computed as 2 dim(U+V) - dim U - dim V."""
    if U.tower is not V.tower or U.n != V.n:
        raise AmbientMismatch("subspaces of different ambient spaces")
    return 2 * U._span.join_rank(V._span) - U.dim - V.dim


def _distance_rows(spans: Sequence[Span]) -> Iterator[list[int]]:
    """For each span in turn, its subspace distances to the spans before
    it; the spans share one space and one rank k, and need not be reduced.

    Where the kernel gives member masks (elimination.member_masks), each
    distance is counted: the members of U n V are the set bits of
    mask_U & mask_V, q**dim(U n V) of them, and d_S = 2k - 2 dim(U n V).
    A span's mask is built when its row comes, so a scan that stops early
    builds few.  Otherwise each distance is 2 join_rank(U, V) - 2k.
    """
    masks = member_masks(spans)
    if masks is None:
        for i, u in enumerate(spans):
            yield [2 * (u.join_rank(v) - u.rank) for v in spans[:i]]
        return
    k, q = spans[0].rank, spans[0].tower.p  # masks are over the prime field
    distance = {q ** j: 2 * (k - j) for j in range(k + 1)}  # by |U n V|
    seen = []
    for mask in masks:
        yield [distance[(mask & other).bit_count()] for other in seen]
        seen.append(mask)


class SubspaceCode:
    """A set of equal-dimension subspaces of one ambient space."""

    def __init__(self, tower: FieldTower, n: int, words: Iterable[Subspace]):
        if n < 1:
            raise BadParams(f"need n >= 1, got n={n}")
        self.tower = tower
        self.n = n
        self.words = frozenset(words)
        dims = {w.dim for w in self.words}
        if len(dims) > 1:
            raise BadParams(f"mixed codeword dimensions {sorted(dims)}")
        for w in self.words:
            if w.tower is not tower or w.n != n:
                raise AmbientMismatch("codeword in a different ambient space")
        self.dim = dims.pop() if dims else 0

    @property
    def size(self) -> int:
        return len(self.words)

    def min_distance(self, guard: int = DEFAULT_GUARD) -> int | None:
        """Least subspace distance over pairs of words; None below two words.

        Pairwise, since a subspace code need not be linear, by the row scan
        of _distance_rows over the words' spans in the order of their
        packed bases.  The scan stops after the first row holding distance
        2: two distinct subspaces of one dimension k have dim(U+V) >= k+1,
        so d_S = 2 dim(U+V) - 2k >= 2.  TooLarge comes before the first
        pair for more than guard words, and before a row past guard pairs.
        """
        if self.size > guard:
            raise TooLarge(f"|code| = {self.size} exceeds guard {guard}")
        rows = _distance_rows([w._span for w in sorted(self.words, key=lambda w: w._rref)])
        best = None
        for i in range(self.size):  # row i holds i pairs
            if (pairs := i * (i + 1) // 2) > guard:
                raise TooLarge(f"{pairs} pairs of the first {i + 1} words exceed guard {guard}")
            row = next(rows)
            if row:
                best = min(row) if best is None else min(best, min(row))
                if best == 2:
                    break
        return best

    def __eq__(self, other):
        return (isinstance(other, SubspaceCode) and self.tower is other.tower
                and self.n == other.n and self.words == other.words)

    def __repr__(self):
        return f"SubspaceCode(n={self.n}, dim={self.dim}, size={self.size})"


def _word_spans(mc: MatrixCode, width: int, columns: Sequence[int],
                pivots: Sequence[int] = ()) -> Iterator[Span]:
    """The span of each codeword's rows, in messages() order: entry j of row
    i at columns[j] of a row of width entries, plus a one at pivots[i] when
    pivots are given.  The rows are linear in the message, so the basis rows
    are placed and packed once, and each word's row is one combine."""
    blank = span(mc.tower, width)
    at = [blank.pack((1,), j) for j in columns]
    placed = [[blank.combine(B.rows[i], at) for B in mc.basis]
              + ([blank.pack((1,), pivots[i] - 1)] if pivots else []) for i in range(mc.l)]
    unit = (1,) if pivots else ()
    for msg in mc.messages():
        s = blank._copy()
        s._insert([blank.combine(msg + unit, rows) for rows in placed])
        yield s


def _lift_spans(mc: MatrixCode, pivots: Sequence[int]) -> Iterator[Span]:
    """The spans of the lifts of mc's codewords, combined as they are read,
    in messages() order; the pivots are checked first (BadPivots)."""
    n = mc.l + mc.m
    pivots = tuple(pivots)
    if (len(pivots) != mc.l or any(not 1 <= p <= n for p in pivots)
            or list(pivots) != sorted(set(pivots))):
        raise BadPivots(f"need {mc.l} ascending pivot columns in [1, {n}]")
    nonpivots = [j for j in range(n) if j + 1 not in pivots]
    return _word_spans(mc, n, nonpivots, pivots)


def lift(mc: MatrixCode, pivots: Sequence[int], guard: int = DEFAULT_GUARD) -> SubspaceCode:
    """Lift a matrix code to a subspace code with the chosen pivot columns.

    Codeword A maps to the row span of the l x (l+m) matrix whose pivot
    columns form the identity and whose remaining columns are A's columns
    in order; the map is injective.  BadPivots, then TooLarge over guard
    words, come before any word is built.
    """
    spans = _lift_spans(mc, pivots)
    if mc.size > guard:
        raise TooLarge(f"|code| = {mc.size} exceeds guard {guard}")
    sc = SubspaceCode(mc.tower, mc.l + mc.m, map(Subspace, spans))
    if sc.size != mc.size:
        raise BadParams("lift lost codewords")  # unreachable: lifting is injective
    return sc


def unlift(sc: SubspaceCode) -> tuple[tuple[int, ...], MatrixCode]:
    """Recover (pivots, underlying matrix code) from a lifted matrix code.

    When the RREF bases of all words share their pivots, those are the lift's
    pivots P and each matrix sits in the other columns.  Otherwise P is read
    off the lift of the zero matrix, the one word whose RREF rows are unit
    vectors (NonlinearCode if there is none, MixedPivots if there are
    several), and each matrix A off (B_P)^-1 B for the RREF basis B of its
    word: the RREF of B's columns reordered P first is [I | A] (MixedPivots
    if B_P is singular).  The matrices must form an F_q-linear set
    (NonlinearCode otherwise).
    """
    if not sc.words:
        raise BadParams("empty subspace code")
    words = sorted(sc.words, key=lambda w: w.mat.rows)
    pivots = words[0].pivots
    if any(w.pivots != pivots for w in words):
        units = [w.pivots for w in words
                 if all(sum(map(bool, row)) == 1 for row in w.mat.rows)]
        if not units:
            raise NonlinearCode("no word is the lift of the zero matrix")
        if len(units) > 1:
            raise MixedPivots(f"pivot locations differ: {units[0]} vs {units[1]}")
        pivots = units[0]
    l, m = sc.dim, sc.n - sc.dim
    columns = [j - 1 for j in pivots] + [j for j in range(sc.n) if j + 1 not in pivots]
    s, basis = span(sc.tower, l * m), []
    for w in words:
        rows, cols = w.mat.rows, columns[l:]
        if w.pivots != pivots:
            e = span(sc.tower, sc.n, 1, ([r[j] for j in columns] for r in rows))
            if e.pivots != tuple(range(1, l + 1)):
                raise MixedPivots(f"pivot locations differ: {pivots} vs {w.pivots}")
            rows, cols = e.rows(), range(l, sc.n)
        if s.add(flat := [r[j] for r in rows for j in cols]):
            basis.append(Mat(sc.tower, [flat[i:i + m] for i in range(0, l * m, m)],
                             subdeg=1, check=False))
    mc = MatrixCode(sc.tower, l, m, basis)
    if mc.size != len(words):
        raise NonlinearCode("auxiliary matrices do not form a linear code")
    return pivots, mc


@dataclass(frozen=True)
class DistanceLawReport:
    """Pairwise check that lifted subspace distance is twice rank distance."""

    pairs_checked: int
    all_match: bool
    ds_min: int | None
    dr_min: int | None
    distance_multiset: tuple[int, ...]


def verify_distance_law(mc: MatrixCode, pivots: Sequence[int]) -> DistanceLawReport:
    """Check d_S(lift A, lift B) = 2 rank(A - B) over all codeword pairs.

    The subspace side is pairwise, one row of distances per lift from the
    row scan of _distance_rows over the lifts' unreduced spans.  The rank
    side takes one rank per codeword, of the span of its rows combined from
    the packed basis rows: mc is F_q-linear, so A - B is the codeword of
    the difference of the two messages.  Messages run in itertools.product
    order over the q codes of F_q, so a message's place is its digits in
    base q, and the places of m_i - m_j for j < i are read digit by digit,
    each level cut to the prefixes of those j, from a q x q table of
    differences: no field operation per pair.  The first message is zero,
    so dr_min is the least rank of a nonzero codeword.  BadPivots, then
    TooLarge over DEFAULT_GUARD pairs of words, come before any word.
    """
    spans = _lift_spans(mc, pivots)
    if (pairs := mc.size * (mc.size - 1) // 2) > DEFAULT_GUARD:
        raise TooLarge(f"|code| = {mc.size} makes {pairs} pairs, over guard {DEFAULT_GUARD}")
    twice = [2 * s.rank for s in _word_spans(mc, mc.m, range(mc.m))]
    codes, sub = mc.tower.subfield_codes(1), mc.tower.sub
    q, place = len(codes), {c: k for k, c in enumerate(codes)}
    diff = {a: [place[sub(a, b)] for b in codes] for a in codes}
    all_match, multiset = True, []
    for i, (row, mi) in enumerate(zip(_distance_rows(list(spans)), mc.messages())):
        places, step = [0], mc.size  # of m_i - m_j, for each prefix of the j < i
        for a in mi:
            step //= q
            places = [k * q + d for k in places for d in diff[a]][:-(-i // step)]
        all_match &= row == [twice[j] for j in places[:i]]  # [:i]: dim 0 has one message
        multiset += row
    multiset.sort()
    return DistanceLawReport(
        pairs_checked=len(multiset),
        all_match=all_match,
        ds_min=multiset[0] if multiset else None,
        dr_min=min(twice[1:]) // 2 if mc.size > 1 else None,
        distance_multiset=tuple(multiset),
    )


# ---------------------------------------------------------------------------
# subspace-code files
# ---------------------------------------------------------------------------

def format_subspace_file(sc: SubspaceCode) -> str:
    """One line per word, its RREF basis; the zero subspace, which has no
    basis rows, as one row of n zeros, since a blank line is skipped."""
    words = sorted(sc.words, key=lambda w: w.mat.rows)
    lines = ["subspace", sc.tower.spec_string(), f"n={sc.n},l={sc.dim}"]
    lines.extend(format_matrix(w.mat) or ",".join(["0"] * sc.n) for w in words)
    return "\n".join(lines) + "\n"


def parse_subspace_file(text: str) -> SubspaceCode:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 3 or lines[0] != "subspace":
        raise BadParams("not a subspace code file")
    tower = parse_field_spec(lines[1])
    shape = parse_shape(lines[2], ("n", "l"))
    n, l = shape["n"], shape["l"]
    words = {}  # each word, with its place and line in the file's words
    for i, ln in enumerate(lines[3:], 1):
        M = parse_matrix(tower, ln, subdeg=1)
        if M.ncols != n:
            raise BadParams(f"word has {M.ncols} columns, ambient dim is {n}")
        word = Subspace(M)
        if word.dim != l:
            raise BadParams(f"word has dimension {word.dim}, shape says l={l}")
        if word in words:
            j, first = words[word]
            raise BadParams(f"words {j} and {i} ({first!r}, {ln!r}) span one subspace")
        words[word] = i, ln
    sc = SubspaceCode(tower, n, words)
    if not 0 <= l <= n:  # the words matched l above; a file with none still needs a fitting l
        raise BadParams(f"need 0 <= l <= n, got l={l}, n={n}")
    return sc
