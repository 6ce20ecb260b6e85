"""Exact sparse linear algebra over the rationals.

Everything runs on `fractions.Fraction`: no floating point, no rounding and
no modular shortcut.  Unlike the sparse polynomial classes, which hold an
integral coefficient as an int, entries stay Fractions here because
elimination divides and int / int would give a float.  Matrices and vectors
are sparse rows ``{column: Fraction}`` with zeros absent; the pairing
matrices and relation slices are 1-2% dense, so only their nonzero entries
are ever touched.

`row_reduce` and `RowSpan` share one elimination step, `_insert`: a row is
reduced against the fully reduced pivot rows, its lowest nonzero column
becomes its pivot, and it is normalised and back-substituted.  This is
Gauss-Jordan with the usual pivot rule, so the pivot rows are always the
unique reduced row echelon form of the rows inserted so far.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import _exact

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sparse(vec, ncols: int) -> dict:
    """Copy of a sparse vector with Fraction values, zeros dropped and every
    column checked against ``ncols``; a float value is refused."""
    out = {}
    for c, x in vec.items():
        if not 0 <= c < ncols:
            raise ValueError(f"column {c} outside 0..{ncols - 1}")
        if x:
            out[c] = Fraction(_exact(x))
    return out


def _eliminate(row: dict, c: int, pivot_row: dict) -> None:
    """row -= row[c] * pivot_row in place, where pivot_row has a 1 at c."""
    neg = -row.pop(c)
    for j, x in pivot_row.items():
        if j != c:
            y = row.get(j)
            if y is None:
                row[j] = neg * x
            else:
                y += neg * x
                if y:
                    row[j] = y
                else:
                    del row[j]


def _reduce(pivots: dict, v: dict) -> dict:
    """Reduce v in place against the pivot rows {pivot column: row}.

    The pivot rows are fully reduced against each other, so eliminating one
    pivot column never brings back another: one pass is enough.
    """
    for c in [c for c in v if c in pivots]:
        _eliminate(v, c, pivots[c])
    return v


def _insert(pivots: dict, v: dict) -> bool:
    """The elimination step: reduce v, make its lowest nonzero column a new
    pivot, normalise it there and clear that column from the other pivot
    rows.  Returns False (and adds nothing) when v reduces to zero."""
    if not _reduce(pivots, v):
        return False
    p = min(v)
    lead = v[p]
    if lead != _ONE:
        for j in v:
            v[j] /= lead
    for row in pivots.values():
        if p in row:
            _eliminate(row, p, v)
    pivots[p] = v
    return True


class QMatrix:
    """Sparse rational matrix of shape ``rows`` x ``cols``; ``data[i]`` is
    row i as {column: Fraction} with zeros absent."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, cols: int, data=()):
        if cols < 0:
            raise ValueError("negative matrix dimension")
        self.data = [_sparse(row, cols) for row in data]
        self.rows = len(self.data)
        self.cols = cols

    def transpose(self) -> "QMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in row.items():
                out[j][i] = x
        return QMatrix(self.rows, out)

    def mul_vector(self, vec) -> dict:
        """The product with a sparse column vector, as {row: value}."""
        vec = _sparse(vec, self.cols)
        out = {}
        for i, row in enumerate(self.data):
            acc = sum((x * vec[j] for j, x in row.items() if j in vec), _ZERO)
            if acc:
                out[i] = acc
        return out

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"


def row_reduce(m: QMatrix):
    """Exact rank and a basis of the right kernel of ``m`` over the rationals.

    Returns ``(rank, kernel_basis)``: one dense tuple of Fractions per free
    column, in increasing order, with a 1 there and ``m . k = 0`` exactly.
    """
    pivots = {}
    for row in m.data:
        _insert(pivots, dict(row))
    kernel = {}
    for free in range(m.cols):
        if free not in pivots:
            v = kernel[free] = [_ZERO] * m.cols
            v[free] = _ONE
    for pc, row in pivots.items():
        for j, x in row.items():
            if j != pc:
                kernel[j][pc] = -x
    return len(pivots), [tuple(v) for v in kernel.values()]


class RowSpan:
    """Span of sparse vectors {column: value}, kept in reduced row echelon
    form and grown one vector at a time.

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

    def add(self, vec) -> bool:
        """Add a vector; returns True when the rank increased."""
        return _insert(self._pivot_rows, _sparse(vec, self.ncols))

    def contains(self, vec) -> bool:
        return not _reduce(self._pivot_rows, _sparse(vec, self.ncols))

    def vectors(self):
        """Copies of the echelon rows, ordered by pivot column."""
        return [dict(row) for _, row in sorted(self._pivot_rows.items())]
