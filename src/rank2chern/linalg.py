"""Exact sparse linear algebra over the rationals.

No floating point, no rounding and no modular shortcut.  Matrices and
vectors are sparse rows ``{column: value}`` with zeros absent and values in
the form of `algebra._exact` (an int when integral, else a Fraction; a float
is refused).  The pairing matrices and relation slices are 1-2% dense, so
only their nonzero entries are ever touched.

Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968) on primitive
int rows, dividing only by a gcd that makes the division exact.
`row_reduce` and `RowSpan` share one elimination step, `_insert`: a row is
reduced against the pivot rows, its lowest nonzero column becomes its pivot,
and that column is cleared from the other pivot rows.  So each pivot row is
a positive multiple of its row in the unique reduced row echelon form, and
a Fraction is built only where that form is read: the kernel tuples of
`row_reduce` and `RowSpan.vectors`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import _check_int, _exact

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sparse(vec, ncols: int) -> dict:
    """Copy of a sparse vector with values in the form of ``_exact``, zeros
    dropped and every column checked to be an int (a bool refused) in
    0..ncols-1; a float value is refused."""
    out = {}
    for c, x in vec.items():
        if c.__class__ is not int:
            raise TypeError(f"column must be an int, got {c!r}")
        if not 0 <= c < ncols:
            raise ValueError(f"column {c} outside 0..{ncols - 1}")
        if x:
            out[c] = x if x.__class__ is int else _exact(x)
    return out


def _primitive(row: dict) -> dict:
    """An int row divided by the gcd of its values, in place."""
    g = gcd(*row.values())
    if g != 1:
        for j, x in row.items():
            row[j] = x // g
    return row


def _integral(vec: dict) -> dict:
    """The primitive int row that is a positive multiple of a vector from
    ``_sparse``: its denominators cleared, then its content.  A vec with no
    Fraction value is changed in place."""
    den = lcm(*[x.denominator for x in vec.values()])
    if den != 1:
        vec = {j: x.numerator * (den // x.denominator) for j, x in vec.items()}
    return _primitive(vec)


def _eliminate(row: dict, c: int, pivot_row: dict) -> None:
    """row <- a * row - b * pivot_row in place, where a / b is
    pivot_row[c] / row[c] in lowest terms with a > 0, so column c clears;
    then row is divided by its content, keeping it primitive."""
    a, neg = pivot_row[c], -row.pop(c)
    g = gcd(a, neg)
    if g != 1:
        a //= g
        neg //= g
    if a != 1:
        for j, x in row.items():
            row[j] = a * x
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
    _primitive(row)


def _reduce(pivots: dict, v: dict) -> dict:
    """Reduce the primitive int row v in place against the pivot rows
    {pivot column: row}.

    The pivot rows are fully reduced against each other, so eliminating one
    pivot column never brings back another: one pass is enough.
    """
    for c in [c for c in v if c in pivots]:
        _eliminate(v, c, pivots[c])
    return v


def _insert(pivots: dict, v: dict) -> bool:
    """The elimination step: reduce the primitive int row v, make its lowest
    nonzero column a new pivot with a positive lead and clear that column
    from the other pivot rows, keeping each primitive.  Returns False (and
    adds nothing) when v reduces to zero."""
    if not _reduce(pivots, v):
        return False
    p = min(v)
    if v[p] < 0:
        for j, x in v.items():
            v[j] = -x
    for row in pivots.values():
        if p in row:
            _eliminate(row, p, v)
    pivots[p] = v
    return True


class QMatrix:
    """Sparse rational matrix of shape ``rows`` x ``cols``; ``data[i]`` is
    row i as {column: value} with zeros absent and values as ``_exact``
    gives them."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, cols: int, data=()):
        _check_int("column count", cols)
        self.data = [_sparse(row, cols) for row in data]
        self.rows = len(self.data)
        self.cols = cols

    def mul_vector(self, vec) -> dict:
        """The product with a sparse column vector, as {row: value}."""
        vec = _sparse(vec, self.cols)
        out = {}
        for i, row in enumerate(self.data):
            acc = sum(x * vec[j] for j, x in row.items() if j in vec)
            if acc:
                out[i] = _exact(acc)
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
        if row:
            _insert(pivots, _integral(dict(row)))
    kernel = {}
    for free in range(m.cols):
        if free not in pivots:
            v = kernel[free] = [_ZERO] * m.cols
            v[free] = _ONE
    for pc, row in pivots.items():
        lead = row[pc]
        for j, x in row.items():
            if j != pc:
                kernel[j][pc] = Fraction(-x, lead)
    return len(pivots), [tuple(v) for v in kernel.values()]


class RowSpan:
    """Span of sparse vectors {column: value}, kept as primitive int rows
    in reduced row echelon form up to scale, and grown one vector at a time.

    Used by the closure computations: supports cheap membership tests and
    reports whether adding a vector actually enlarged the space.
    """

    __slots__ = ("ncols", "_pivot_rows")

    def __init__(self, ncols: int):
        _check_int("column count", ncols)
        self.ncols = ncols
        self._pivot_rows = {}  # pivot column -> primitive row, positive lead there

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    def add(self, vec) -> bool:
        """Add a vector; returns True when the rank increased."""
        return _insert(self._pivot_rows, _integral(_sparse(vec, self.ncols)))

    def contains(self, vec) -> bool:
        """Whether vec lies in the span; no pivot row changes."""
        return not _reduce(self._pivot_rows, _integral(_sparse(vec, self.ncols)))

    def vectors(self):
        """The reduced echelon rows, ordered by pivot column, with values
        as ``_exact`` gives them."""
        rows = sorted(self._pivot_rows.items())
        return [{j: _exact(Fraction(x, row[p])) for j, x in row.items()} for p, row in rows]
