import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank2chern.linalg import QMatrix, RowSpan, row_reduce

SPARSE = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def transpose(m):
    """The transpose of a QMatrix."""
    out = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for j, x in row.items():
            out[j][i] = x
    return QMatrix(m.rows, out)


def _dense_row_reduce(rows, ncols):
    """Reference oracle: dense pivoted Gauss-Jordan on lists of Fractions.

    Returns (rank, kernel, rref) with the kernel in the format of
    `row_reduce` and rref the nonzero rows of the reduced echelon form.
    """
    rows = [[F(x) for x in row] for row in rows]
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
        rows[r] = [x / lead for x in rows[r]]
        pr = rows[r]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        pivots.append(c)
        r += 1
    kernel = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [F(0)] * ncols
        v[free] = F(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][free]
        kernel.append(tuple(v))
    return len(pivots), kernel, rows[: len(pivots)]


def _sparse(dense_row):
    return {j: F(x) for j, x in enumerate(dense_row) if x}


def _dense(sparse_row, ncols):
    return [sparse_row.get(j, F(0)) for j in range(ncols)]


def _matrix(dense_rows, ncols=None):
    if ncols is None:
        ncols = len(dense_rows[0])
    return QMatrix(ncols, [_sparse(row) for row in dense_rows])


FRACTIONS = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
BIG = 10**30
# small Fractions and ints, which make dependent rows, and large ints and
# Fractions of large denominator, which make the integer rows long
ENTRIES = st.one_of(
    FRACTIONS,
    st.integers(-4, 4),
    st.integers(-BIG, BIG),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, 10**6)),
)


@st.composite
def sparse_matrices(draw):
    """(ncols, rows): sparse rational rows of int and Fraction values,
    small and large, with zero rows, repeated and proportional rows,
    non-unit leads and empty shapes."""
    ncols = draw(st.integers(0, 7))
    columns = st.integers(0, max(ncols - 1, 0))
    rows = [
        draw(st.dictionaries(columns, ENTRIES, max_size=ncols)) if ncols else {}
        for _ in range(draw(st.integers(0, 6)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            f = draw(FRACTIONS.filter(bool))
            rows.append({j: f * x for j, x in draw(st.sampled_from(rows)).items()})
        else:
            rows.append({})
    return ncols, draw(st.permutations(rows))


def test_identity_has_full_rank_empty_kernel():
    m = _matrix([[1, 0], [0, 1]])
    rank, kernel = row_reduce(m)
    assert rank == 2
    assert kernel == []


def test_proportional_rows():
    m = _matrix([[1, 1], [2, 2]])
    rank, kernel = row_reduce(m)
    assert rank == 1
    assert kernel == [(F(-1), F(1))]
    # spans the same line as (1, -1)
    assert kernel[0][0] * -1 == kernel[0][1]


def test_pairing_line_kernel():
    # pairing of {1} against the full complementary slice at genus 2 has
    # rank 1, and the coordinate vector of alpha*beta + gamma lies in the
    # kernel (it integrates to 0 against everything in degree 0)
    from rank2chern.algebra import Element, gamma, monomial_basis
    from rank2chern.integral import pairing_matrix

    m = pairing_matrix(2, (0, 0))
    basis = monomial_basis(2, (6, 4))
    assert (m.rows, m.cols) == (1, len(basis))
    rank, kernel = row_reduce(m)
    assert rank == 1
    assert len(kernel) == len(basis) - 1
    rel = Element.alpha(2) * Element.beta(2) + gamma(2)
    vec = {j: rel.terms[mono] for j, mono in enumerate(basis) if mono in rel.terms}
    assert m.mul_vector(vec) == {}


def test_empty_matrix_allowed():
    rank, kernel = row_reduce(QMatrix(3))
    assert rank == 0
    assert len(kernel) == 3
    rank, kernel = row_reduce(QMatrix(0, [{}, {}]))
    assert rank == 0
    assert kernel == []


def test_entries_are_sparse_exact_values():
    # values follow algebra._exact: an integral value is an int, any
    # other a Fraction, and a zero is absent
    m = QMatrix(3, [{0: 2, 1: 0, 2: F(1, 2)}, {0: F(4, 2)}])
    assert m.data == [{0: 2, 2: F(1, 2)}, {0: 2}]
    assert [type(x) for row in m.data for x in row.values()] == [int, F, int]
    assert m.data[0].get(1, 0) == 0 and m.data[0].get(2, 0) == F(1, 2)
    for bad in ({3: 1}, {-1: 1}):
        with pytest.raises(ValueError, match="outside"):
            QMatrix(3, [bad])
        with pytest.raises(ValueError, match="outside"):
            RowSpan(3).add(bad)
    with pytest.raises(ValueError, match="column count must be >= 0"):
        QMatrix(-1)
    for bad in (
        lambda: QMatrix(2, [{0: 0.1}]),
        lambda: RowSpan(2).add({0: 0.5}),
        lambda: RowSpan(2).contains({1: 0.5}),
        lambda: m.mul_vector({0: 0.5}),
    ):
        with pytest.raises(TypeError, match="not an exact rational"):
            bad()


@pytest.mark.parametrize(
    "build", [lambda n: QMatrix(n, [{0: 1}]), lambda n: RowSpan(n).add({0: 1})], ids=["QMatrix", "RowSpan"]
)
def test_column_count_is_a_nonnegative_int(build):
    # QMatrix and RowSpan share one check of their column count; a bool is
    # no count, although it is an int
    for n in (2.5, 2.0, F(2), "2", None, True, False):
        with pytest.raises(TypeError, match="column count must be an int"):
            build(n)
    with pytest.raises(ValueError, match="column count must be >= 0"):
        build(-1)
    assert build(1)
    assert RowSpan(0).rank == 0 and QMatrix(0).cols == 0


def _random_matrix(rnd, rows, cols):
    return _matrix(
        [[F(rnd.randrange(-4, 5), rnd.choice([1, 1, 2, 3])) for _ in range(cols)] for _ in range(rows)]
    )


def test_rank_equals_transpose_rank():
    rnd = random.Random(12)
    for _ in range(25):
        m = _random_matrix(rnd, rnd.randrange(1, 6), rnd.randrange(1, 6))
        assert row_reduce(m)[0] == row_reduce(transpose(m))[0]


def test_kernel_vectors_multiply_to_zero():
    rnd = random.Random(34)
    for _ in range(25):
        m = _random_matrix(rnd, rnd.randrange(1, 6), rnd.randrange(1, 6))
        rank, kernel = row_reduce(m)
        assert rank + len(kernel) == m.cols
        for k in kernel:
            assert m.mul_vector(dict(enumerate(k))) == {}


def test_rank_invariant_under_row_permutation_and_scaling():
    rnd = random.Random(56)
    for _ in range(20):
        rows = [[F(rnd.randrange(-3, 4)) for _ in range(4)] for _ in range(4)]
        base = row_reduce(_matrix(rows))[0]
        perm = rows[:]
        rnd.shuffle(perm)
        assert row_reduce(_matrix(perm))[0] == base
        factors = [F(rnd.choice([1, 2, -3, 5])) for _ in rows]
        scaled = [[f * x for x in row] for f, row in zip(factors, rows)]
        assert row_reduce(_matrix(scaled))[0] == base


@SPARSE
@given(shape_rows=sparse_matrices())
def test_row_reduce_matches_dense_oracle(shape_rows):
    ncols, rows = shape_rows
    dense = [_dense(row, ncols) for row in rows]
    rank, kernel, _ = _dense_row_reduce(dense, ncols)
    m = QMatrix(ncols, rows)
    assert (m.rows, m.cols) == (len(rows), ncols)
    data = [dict(row) for row in m.data]
    got = row_reduce(m)
    assert got == (rank, kernel)
    assert m.data == data
    assert all(type(x) is F for k in got[1] for x in k)
    assert transpose(transpose(m)) == m


@SPARSE
@given(shape_rows=sparse_matrices(), data=st.data())
def test_row_span_matches_dense_oracle(shape_rows, data):
    ncols, rows = shape_rows
    span = RowSpan(ncols)
    seen = []
    for row in rows:
        before = _dense_row_reduce(seen, ncols)[0]
        seen.append(_dense(row, ncols))
        rank, _, rref = _dense_row_reduce(seen, ncols)
        assert span.add(row) == (rank > before)
        assert span.rank == rank
        vectors = span.vectors()
        assert vectors == [_sparse(r) for r in rref]
        assert all(type(x) in (int, F) for v in vectors for x in v.values())
        # elimination keeps each pivot row a primitive int row with a positive lead
        pivot_rows = span._pivot_rows.items()
        assert all(type(x) is int for _, r in pivot_rows for x in r.values())
        assert all(gcd(*r.values()) == 1 and r[p] > 0 for p, r in pivot_rows)
        probe = data.draw(st.sampled_from(rows)) if data.draw(st.booleans()) else {}
        if ncols and data.draw(st.booleans()):
            probe = dict(probe)
            probe[data.draw(st.integers(0, ncols - 1))] = data.draw(ENTRIES)
        grown = _dense_row_reduce(seen + [_dense(probe, ncols)], ncols)[0]
        assert span.contains(probe) == (grown == rank)
        assert span.rank == rank and span.vectors() == vectors


def test_row_span_membership_and_rank():
    span = RowSpan(3)
    assert span.add({0: F(1), 1: F(2)})
    assert not span.add({0: F(2), 1: F(4)})
    assert span.add({1: F(1), 2: F(1)})
    assert span.rank == 2
    assert span.contains({0: F(1), 1: F(3), 2: F(1)})
    assert not span.contains({2: F(1)})
    assert span.vectors() == [{0: F(1), 2: F(-2)}, {1: F(1), 2: F(1)}]
