"""Exact dense linear algebra over the rationals.

Everything runs on `fractions.Fraction`: no floating point, no rounding.
Matrices here are small (the bidegree slices at genus <= 4 have at most a
few thousand columns), so plain pivoted Gauss-Jordan elimination is used
throughout.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class QMatrix:
    """Dense rational matrix with row-major storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        entries = [Fraction(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, row_lists, cols=None) -> "QMatrix":
        nrows = len(row_lists)
        if nrows == 0:
            return cls(0, 0 if cols is None else cols, [])
        if cols is None:
            cols = len(row_lists[0])
        flat = []
        for row in row_lists:
            if len(row) != cols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(nrows, cols, flat)

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def transpose(self) -> "QMatrix":
        flat = [self.at(i, j) for j in range(self.cols) for i in range(self.rows)]
        return QMatrix(self.cols, self.rows, flat)

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = _ZERO
            for j, v in enumerate(vec):
                if v:
                    acc += self.entries[base + j] * v
            out.append(acc)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"


def row_reduce(m: QMatrix):
    """Exact rank and a basis of the right kernel of ``m`` over the rationals.

    Returns ``(rank, kernel_basis)`` where each kernel vector ``k`` is a
    tuple of Fractions with ``m . k = 0`` exactly.  The kernel basis has
    ``cols - rank`` members.
    """
    rows = [m.row(i) for i in range(m.rows)]
    ncols = m.cols
    pivots = []  # pivot column of row r, in order
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r][c]
        if lead != _ONE:
            rows[r] = [x / lead for x in rows[r]]
        pr = rows[r]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                ri = rows[i]
                rows[i] = [a - f * b for a, b in zip(ri, pr)]
        pivots.append(c)
        r += 1
    rank = len(pivots)
    pivot_set = set(pivots)
    kernel = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[free] = _ONE
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][free]
        kernel.append(tuple(v))
    return rank, kernel


class RowSpan:
    """Row space kept in reduced echelon form, grown one vector at a time.

    Used by the closure computations: supports cheap membership tests and
    reports whether adding a vector actually enlarged the space.
    """

    __slots__ = ("ncols", "_pivot_rows")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._pivot_rows = {}  # pivot column -> row with leading 1 there

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    def _reduced(self, vec):
        v = [Fraction(x) for x in vec]
        # stored rows are fully reduced against each other, so one pass is enough
        for c, row in self._pivot_rows.items():
            f = v[c]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        """Add a vector; returns True when the rank increased."""
        v = self._reduced(vec)
        piv = None
        for c, x in enumerate(v):
            if x:
                piv = c
                break
        if piv is None:
            return False
        lead = v[piv]
        if lead != _ONE:
            v = [x / lead for x in v]
        for c, row in list(self._pivot_rows.items()):
            f = row[piv]
            if f:
                self._pivot_rows[c] = [a - f * b for a, b in zip(row, v)]
        self._pivot_rows[piv] = v
        return True

    def contains(self, vec) -> bool:
        return not any(self._reduced(vec))

    def vectors(self):
        """Current echelon rows, ordered by pivot column."""
        return [row for _, row in sorted(self._pivot_rows.items())]
