from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedalg.fields import ExtensionField, FieldError, PrimeField, Rationals
from gradedalg.linalg import Matrix, RowSpace

F2 = PrimeField(2)
F5 = PrimeField(5)
F4 = ExtensionField(2, 2)
QQ = Rationals()


def test_rank_and_kernel_small():
    m = Matrix(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    kb = m.kernel_basis()
    assert len(kb) == 1
    assert all(v == QQ.zero() for v in m.apply(kb[0]))


def test_solve_consistent_and_inconsistent():
    m = Matrix(QQ, [[1, 0], [0, 1], [1, 1]])
    assert m.solve([Fraction(2), Fraction(3), Fraction(5)]) == [Fraction(2), Fraction(3)]
    assert m.solve([Fraction(2), Fraction(3), Fraction(4)]) is None
    with pytest.raises(ValueError):
        m.solve([Fraction(2), Fraction(3)])


def test_identity_and_zero():
    ident = Matrix.identity(F2, 3)
    assert ident.rank() == 3
    assert ident.kernel_basis() == []
    assert Matrix.zero(F2, 2, 3).rank() == 0


def test_mul_and_transpose():
    a = Matrix(F5, [[1, 2], [3, 4]])
    b = Matrix(F5, [[0, 1], [1, 0]])
    assert a.mul(b) == Matrix(F5, [[2, 1], [4, 3]])
    assert a.transpose() == Matrix(F5, [[1, 3], [2, 4]])


def test_rowspace_insert_and_quotient():
    rs = RowSpace(F2, 3)
    assert rs.insert([1, 0, 1])
    assert not rs.insert([1, 0, 1])
    assert rs.insert([0, 1, 0])
    assert rs.dim == 2
    assert rs.contains([1, 1, 1])
    assert not rs.contains([0, 0, 1])
    assert rs.nonpivot_columns() == [2]


def test_public_matrix_validates_its_entries():
    assert Matrix(F5, [[7]]).rows == [[2]]
    with pytest.raises(FieldError):
        Matrix(F5, [[Fraction(1, 2)]])


def test_image_basis_spans_columns():
    m = Matrix(QQ, [[1, 1, 2], [0, 1, 1]])
    img = m.image_basis()
    assert len(img) == m.rank() == 2


_fields = st.sampled_from([F2, F5, QQ])


@st.composite
def _matrices(draw):
    field = draw(_fields)
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5))
    rows = [[field.from_int(draw(st.integers(-4, 4))) for _ in range(ncols)]
            for _ in range(nrows)]
    return Matrix(field, rows, ncols)


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rank_nullity(m):
    assert m.rank() + len(m.kernel_basis()) == m.ncols


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_kernel_vectors_map_to_zero(m):
    z = m.field.zero()
    for v in m.kernel_basis():
        assert all(x == z for x in m.apply(v))


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rank_bounded_by_shape(m):
    assert 0 <= m.rank() <= min(m.nrows, m.ncols)
    assert m.rank() == m.transpose().rank()


# -- differential test against textbook dense elimination -------------------

def _dense_rref(F, rows, ncols):
    """Reference Gauss-Jordan elimination on dense rows: (rref rows, pivots)."""
    z = F.zero()
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c] != z), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != z:
                f = rows[k][c]
                rows[k] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _dense_reduce(F, rref_rows, pivots, vec):
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        c = v[p]
        if c != F.zero():
            v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
    return v


def _as_dict(F, vec):
    return {c: x for c, x in enumerate(vec) if x != F.zero()}


@st.composite
def _row_sets(draw):
    """A field, a width, rows to insert and probe vectors.

    Rows are sparse (at most 3 nonzeros, like Macaulay rows m*f) or dense,
    with entries from a few values so that dependencies are common.
    """
    field = draw(st.sampled_from([F2, F5, F4, QQ]))
    ncols = draw(st.integers(0, 8))
    values = [field.zero()] + [field.from_int(k) for k in (1, -1, 2)]
    if field is F4:
        values += [field.generator(), field.add(field.one(), field.generator())]
    values = [v for i, v in enumerate(values) if v not in values[:i]]
    elem = st.sampled_from(values)

    def vector():
        v = [field.zero()] * ncols
        if ncols and draw(st.booleans()):
            for c in draw(st.lists(st.integers(0, ncols - 1), max_size=3)):
                v[c] = draw(elem)
        else:
            v = [draw(elem) for _ in range(ncols)]
        return v

    rows = [vector() for _ in range(draw(st.integers(0, 8)))]
    probes = [vector() for _ in range(3)]
    return field, ncols, rows, probes


@pytest.mark.parametrize("as_dict", [False, True], ids=["lists", "dicts"])
@settings(max_examples=200, deadline=None)
@given(_row_sets())
def test_rowspace_matches_dense_elimination(as_dict, case):
    F, ncols, rows, probes = case
    given_as = (lambda v: _as_dict(F, v)) if as_dict else list
    rs = RowSpace(F, ncols)
    for i, row in enumerate(rows):
        rank_before = len(_dense_rref(F, rows[:i], ncols)[1])
        rank_after = len(_dense_rref(F, rows[:i + 1], ncols)[1])
        assert rs.insert(given_as(row)) == (rank_after > rank_before)
        assert rs.dim == rank_after
    ref_rows, pivots = _dense_rref(F, rows, ncols)
    nonpivots = [c for c in range(ncols) if c not in pivots]
    assert rs.ncols == ncols
    assert rs.nonpivot_columns() == nonpivots
    for vec in probes + rows:
        reduced = _dense_reduce(F, ref_rows, pivots, vec)
        assert rs.reduce(given_as(vec)) == reduced
        assert rs.quotient_coords(given_as(vec)) == [reduced[c] for c in nonpivots]
        assert rs.contains(given_as(vec)) == all(x == F.zero() for x in reduced)


@settings(max_examples=200, deadline=None)
@given(_row_sets())
def test_matrix_matches_dense_elimination(case):
    F, ncols, rows, probes = case
    m = Matrix(F, rows, ncols)
    ref_rows, pivots = _dense_rref(F, rows, ncols)
    assert m.rref() == (ref_rows, pivots)
    z, o = F.zero(), F.one()
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [z] * ncols
        v[fc] = o
        for row, pc in zip(ref_rows, pivots):
            v[pc] = F.neg(row[fc])
        kernel.append(v)
    assert m.kernel_basis() == kernel
    t = m.transpose()
    for b in probes:
        aug_rows, aug_pivots = _dense_rref(F, [r + [bv] for r, bv in zip(t.rows, b)],
                                           len(rows) + 1)
        x = None
        if len(rows) not in aug_pivots:
            x = [z] * len(rows)
            for row, pc in zip(aug_rows, aug_pivots):
                x[pc] = row[-1]
        assert t.solve(b) == x
