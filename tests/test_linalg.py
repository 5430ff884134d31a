import copy
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import densified
from gradedalg.fields import ExtensionField, FieldError, PrimeField, Rationals
from gradedalg.linalg import Matrix, RowSpace, combine, place

F2 = PrimeField(2)
F3 = PrimeField(3)
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


def test_empty_rowspace_hands_back_the_nonzero_entries():
    # no pivots: quotient positions are columns, and nothing is reduced
    for field, vec, entries in ((F5, {0: 0, 2: 3}, {2: 3}), (F5, [0, 4, 0], {1: 4}),
                                (F2, [1, 0, 1], {0: 1, 2: 1}), (F2, 0b101, {0: 1, 2: 1})):
        rs = RowSpace(field, 3)
        for out in (rs.quotient_coords(vec), rs.reduce(vec)):
            assert densified(field, out, 3) == [entries.get(c, 0) for c in range(3)]
        out = rs.quotient_coords(vec)
        if field is F2:  # packed, and a packed vector comes back as it is
            assert out == 0b101
        else:
            assert out == entries and out is not vec


def test_public_matrix_validates_its_entries():
    assert Matrix(F5, [[7]]).rows == [[2]]
    with pytest.raises(FieldError):
        Matrix(F5, [[Fraction(1, 2)]])


def test_column_space_has_the_rank_as_dimension():
    m = Matrix(QQ, [[1, 1, 2], [0, 1, 1]])
    span = RowSpace(QQ, m.nrows)
    assert span.extend(m.column(j) for j in range(m.ncols)) == m.rank() == 2


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
def _row_sets(draw, fields=(F2, F5, F4, QQ)):
    """A field, a width, rows to insert and probe vectors.

    Rows are sparse (at most 3 nonzeros, like Macaulay rows m*f) or dense,
    with entries from a few values so that dependencies are common.
    """
    field = draw(st.sampled_from(fields))
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


@st.composite
def _wide_gf2_row_sets(draw):
    """GF(2) cases 31 to 200 columns wide, so that packed rows span several
    int digits.  Rows are sparse (at most 4 ones), dense right of a drawn
    column, or the sum of two rows drawn before, so that dependencies are
    common at any width."""
    ncols = draw(st.integers(31, 200))
    drawn = []

    def vector():
        kind = draw(st.sampled_from(["sparse", "dense", "sum"]))
        if kind == "sum" and drawn:
            a, b = draw(st.sampled_from(drawn)), draw(st.sampled_from(drawn))
            v = [F2.add(x, y) for x, y in zip(a, b)]
        elif kind == "dense":  # from a drawn column on, so pivots fall anywhere
            start = draw(st.integers(0, ncols - 1))
            bits = draw(st.integers(0, 2 ** (ncols - start) - 1)) << start
            v = [bits >> c & 1 for c in range(ncols)]
        else:
            v = [0] * ncols
            for c in draw(st.lists(st.integers(0, ncols - 1), max_size=4)):
                v[c] = 1
        drawn.append(v)
        return v

    rows = [vector() for _ in range(draw(st.integers(0, 12)))]
    probes = [vector() for _ in range(3)]
    return F2, ncols, rows, probes


_eliminations = st.one_of(_row_sets(), _wide_gf2_row_sets())


def _as_int(vec):
    """A GF(2) vector packed into an int, bit c for column c."""
    return sum(1 << c for c, x in enumerate(vec) if x)


@pytest.mark.parametrize("form", ["lists", "dicts", "ints"])
@settings(max_examples=200, deadline=None)
@given(_eliminations)
def test_rowspace_matches_dense_elimination(form, case):
    F, ncols, rows, probes = case
    assume(form != "ints" or F is F2)  # packed ints are GF(2) vectors
    given_as = {"lists": list, "dicts": lambda v: _as_dict(F, v), "ints": _as_int}[form]
    rs = RowSpace(F, ncols)
    # row i enlarges the span of rows[:i] exactly when column i is a pivot
    # of the matrix with the rows as columns
    columns = [[r[c] for r in rows] for c in range(ncols)]
    enlarging = _dense_rref(F, columns, len(rows))[1]
    for i, row in enumerate(rows):
        assert rs.insert(given_as(row)) == (i in enlarging)
        assert rs.dim == sum(j <= i for j in enlarging)
    ref_rows, pivots = _dense_rref(F, rows, ncols)
    nonpivots = [c for c in range(ncols) if c not in pivots]
    assert rs.ncols == ncols
    assert rs.nonpivot_columns() == nonpivots
    for vec in probes + rows:
        reduced = _dense_reduce(F, ref_rows, pivots, vec)
        assert rs.reduce(given_as(vec)) == reduced
        assert densified(F, rs.quotient_coords(given_as(vec)), len(nonpivots)) == [
            reduced[c] for c in nonpivots]
        assert rs.contains(given_as(vec)) == all(x == F.zero() for x in reduced)


@pytest.mark.parametrize("form", ["lists", "dicts", "ints"])
@settings(max_examples=200, deadline=None)
@given(st.one_of(_row_sets((F2, F3, F5, QQ)), _wide_gf2_row_sets()),
       st.integers(0, 12), st.booleans())
def test_extend_leaves_the_space_a_loop_of_inserts_leaves(form, case, start, lazily):
    # the first `start` rows go in one at a time on both sides, so a batch
    # may start on a non-empty space; the batch is a list or a generator
    F, ncols, rows, _ = case
    assume(form != "ints" or F is F2)
    given_as = {"lists": list, "dicts": lambda v: _as_dict(F, v), "ints": _as_int}[form]
    head, batch = rows[:start], rows[start:]
    one, many = RowSpace(F, ncols), RowSpace(F, ncols)
    for row in head:
        assert one.insert(given_as(row)) == many.insert(given_as(row))
    many.nonpivot_columns()  # a cache the batch must clear
    enlarged = [one.insert(given_as(row)) for row in batch]
    vectors = (given_as(row) for row in batch)
    assert many.extend(vectors if lazily else list(vectors)) == sum(enlarged)
    assert many.dim == one.dim and many._rows == one._rows
    assert many.nonpivot_columns() == one.nonpivot_columns()
    assert ([many.pivots_below(c) for c in range(ncols + 2)]
            == [one.pivots_below(c) for c in range(ncols + 2)])


@settings(max_examples=200, deadline=None)
@given(_eliminations)
def test_pivot_counts_agree_in_both_vector_formats(case):
    # over GF(2) pivots_below reads the pivot bit mask, over every other
    # field it counts the dict rows' pivots; a GF(2) made to keep dict
    # rows spans the same space, so both counts must agree with the
    # pivots of the dense reduced form at every column
    F, ncols, rows, _ = case
    spaces = [RowSpace(F, ncols)]
    if F is F2:
        dict_f2 = PrimeField(2)
        dict_f2.packed = False
        spaces.append(RowSpace(dict_f2, ncols))
    pivots = _dense_rref(F, rows, ncols)[1]
    expected = [sum(p < c for p in pivots) for c in range(ncols + 2)]
    for rs in spaces:
        for row in rows:
            rs.insert(row)
        assert [rs.pivots_below(c) for c in range(ncols + 2)] == expected


@settings(max_examples=200, deadline=None)
@given(_eliminations)
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
    # kernel vectors come out in the field's format; densified they are the
    # reference's
    assert [densified(F, v, ncols) for v in m.kernel_basis()] == kernel
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


# -- differential test of the Matrix operations against dense loops ---------

def _dense_apply(F, rows, vec):
    out = []
    for row in rows:
        acc = F.zero()
        for a, x in zip(row, vec):
            acc = F.add(acc, F.mul(a, x))
        out.append(acc)
    return out


def _dense_mul(F, a_rows, b_rows, ncols):
    return [[_dense_apply(F, [[r[j] for r in b_rows]], row)[0] for j in range(ncols)]
            for row in a_rows]


def _dense_direct_sum(F, a_rows, k, b_rows, m):
    """The block diagonal matrix of a (k columns) and b (m columns)."""
    z = F.zero()
    return [r + [z] * m for r in a_rows] + [[z] * k + r for r in b_rows]


@st.composite
def _matrix_cases(draw):
    """A field, two compatible matrices a (n x k) and b (k x m), and a vector."""
    field = draw(st.sampled_from([F2, F5, F4, QQ]))
    values = [field.zero()] * 3 + [field.from_int(k) for k in (1, -1, 2)]
    if field is F4:
        values.append(field.generator())
    elem = st.sampled_from(values)

    def dense(nrows, ncols):
        return [[draw(elem) for _ in range(ncols)] for _ in range(nrows)]

    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    a, b = dense(n, k), dense(k, m)
    vec = [draw(elem) for _ in range(k)]
    return field, a, b, k, m, vec


@settings(max_examples=200, deadline=None)
@given(_matrix_cases())
def test_matrix_operations_match_dense_loops(case):
    F, a_rows, b_rows, k, m, vec = case
    z = F.zero()
    a, b = Matrix(F, a_rows, k), Matrix(F, b_rows, m)
    assert a.rows == a_rows and (a.nrows, a.ncols) == (len(a_rows), k)
    assert a.apply(vec) == _dense_apply(F, a_rows, vec)
    product = a.mul(b)
    assert product.rows == _dense_mul(F, a_rows, b_rows, m)
    assert (product.nrows, product.ncols) == (len(a_rows), m)
    t = a.transpose()
    assert t.rows == [[r[j] for r in a_rows] for j in range(k)]
    assert (t.nrows, t.ncols) == (k, len(a_rows))
    assert t.transpose() == a
    for j in range(k):
        assert a.column(j) == [r[j] for r in a_rows]
    columns = [a.column(j) for j in range(k)]
    assert Matrix.from_columns(F, columns, len(a_rows)) == a
    sparse = [{i: x for i, x in enumerate(c) if x != z} for c in columns]
    assert Matrix.from_columns(F, sparse, len(a_rows)) == a
    assert a.is_zero() == all(x == z for r in a_rows for x in r)
    assert (a == Matrix.zero(F, len(a_rows), k)) == a.is_zero()
    assert a == Matrix(F, a_rows, k)
    summed = a.direct_sum(b)
    assert summed.rows == _dense_direct_sum(F, a_rows, k, b_rows, m)
    assert (summed.nrows, summed.ncols) == (len(a_rows) + k, k + m)


def test_matrix_equality_sees_shape_and_entries():
    assert Matrix(F5, [[1, 0]]) != Matrix(F5, [[1, 0, 0]])
    assert Matrix(F5, [[1, 0]]) != Matrix(F5, [[1, 1]])
    assert Matrix(F5, [], ncols=2) != Matrix(F5, [], ncols=3)
    assert Matrix.zero(F5, 0, 2) == Matrix(F5, [], ncols=2)
    assert Matrix(F5, [[0, 6]]) == Matrix(F5, [[5, 1]])


# -- Matrix against dense references, GF(2) rows up to 200 columns wide ----

def _dense_solution(F, rows, ncols, b):
    """The solution of rows . x = b with every free variable zero, from the
    reduced form of [rows | b], or None when that system is inconsistent."""
    aug_rows, aug_pivots = _dense_rref(F, [r + [x] for r, x in zip(rows, b)], ncols + 1)
    if ncols in aug_pivots:
        return None
    x = [F.zero()] * ncols
    for row, pc in zip(aug_rows, aug_pivots):
        x[pc] = row[-1]
    return x


def _dense_kernel(F, rows, ncols):
    """The kernel vectors the reduced form gives, one per non-pivot column."""
    ref_rows, pivots = _dense_rref(F, rows, ncols)
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F.zero()] * ncols
        v[fc] = F.one()
        for row, pc in zip(ref_rows, pivots):
            v[pc] = F.neg(row[fc])
        kernel.append(v)
    return kernel


def _forms(F, vec):
    """vec as every input the library takes: a list, a {column: value} dict
    and, over GF(2), an int."""
    out = [list(vec), _as_dict(F, vec)]
    if F is F2:
        out.append(_as_int(vec))
    return out


@st.composite
def _matrix_references(draw):
    """A field, matrices a (n x k), b (k x m) and c (p x n), and vectors,
    all as dense lists.

    A fifth of the cases are GF(2) ones that draw k from 31 to 200, so
    packed rows, columns, kernel vectors and the rows of c shifted past a
    in their direct sum span several int digits.
    """
    kind = draw(st.sampled_from(["wide GF(2)", F2, F5, F4, QQ]))
    wide = kind == "wide GF(2)"
    field = F2 if wide else kind
    values = [field.zero()] * 2 + [field.from_int(k) for k in (1, -1, 2)]
    if field is F4:
        values.append(field.generator())
    elem = st.sampled_from(values)

    def vector(width):
        if field is F2:
            bits = draw(st.integers(0, 2 ** width - 1))
            return [bits >> c & 1 for c in range(width)]
        return [draw(elem) for _ in range(width)]

    def dense(nrows, ncols):
        return [vector(ncols) for _ in range(nrows)]

    small = st.integers(0, 5)
    n, m, p = draw(small), draw(small), draw(small)
    k = draw(st.integers(31, 200) if wide else small)
    a, b, c = dense(n, k), dense(k, m), dense(p, n)
    vectors = {"k": vector(k), "n": vector(n)}
    # a right side a * x is always solvable
    x = vector(k)
    vectors["image"] = _dense_apply(field, a, x)
    return field, (a, n, k), (b, k, m), (c, p, n), vectors


@settings(max_examples=200, deadline=None)
@given(_matrix_references())
def test_matrix_matches_dense_references(case):
    F, (a_rows, n, k), (b_rows, _, m), (c_rows, p, _), vectors = case
    a, b, c = Matrix(F, a_rows, k), Matrix(F, b_rows, m), Matrix(F, c_rows, n)
    assert a.rows == a_rows and (a.nrows, a.ncols) == (n, k)
    # products: a * b sums narrow rows of b, c * a sums wide rows of a
    assert a.mul(b).rows == _dense_mul(F, a_rows, b_rows, m)
    assert c.mul(a).rows == _dense_mul(F, c_rows, a_rows, k)
    for coeffs in c_rows:
        for given_as in _forms(F, coeffs):
            assert densified(F, combine(F, a.srows, given_as), k) == _dense_mul(
                F, [coeffs], a_rows, k)[0]
    for given_as in _forms(F, vectors["k"]):
        assert a.apply(given_as) == _dense_apply(F, a_rows, vectors["k"])
    # transposes, and columns in every form
    t = a.transpose()
    t_rows = [[r[j] for r in a_rows] for j in range(k)]
    assert t.rows == t_rows and (t.nrows, t.ncols) == (k, n)
    assert t.transpose() == a
    for matrix, rows, cols in ((a, a_rows, k), (t, t_rows, n)):
        columns = [[r[j] for r in rows] for j in range(cols)]
        assert [matrix.column(j) for j in range(cols)] == columns
        for form in range(len(_forms(F, []))):
            given_as = [_forms(F, col)[form] for col in columns]
            assert Matrix.from_columns(F, given_as, len(rows)) == matrix
    # kernel vectors: exactly the reference's, and a maps them to zero
    kernel = [densified(F, v, k) for v in a.kernel_basis()]
    assert kernel == _dense_kernel(F, a_rows, k)
    assert all(x == F.zero() for v in kernel for x in a.apply(v))
    # solutions, with every free variable zero, on wide and narrow systems
    for matrix, rows, cols, rhs in ((a, a_rows, k, vectors["n"]), (a, a_rows, k, vectors["image"]),
                                    (t, t_rows, n, vectors["k"])):
        expected = _dense_solution(F, rows, cols, rhs)
        for given_as in _forms(F, rhs):
            assert matrix.solve(given_as) == expected
    assert a.solve(vectors["image"]) is not None
    # direct sums: the rows of c shifted past the k columns of a
    summed = a.direct_sum(c)
    expected = _dense_direct_sum(F, a_rows, k, c_rows, n)
    assert summed.rows == expected and (summed.nrows, summed.ncols) == (n + p, k + n)
    assert summed.transpose().rows == [[r[j] for r in expected] for j in range(k + n)]



@st.composite
def _placements(draw):
    """A field, a column count and blocks (offset, columns, negate) in the
    field's format; offsets are laid out one block after another or, so
    that rows overlap and sum, drawn freely."""
    F = draw(st.sampled_from((F2, F3, QQ)))
    count = draw(st.integers(0, 4))
    values = [F.from_int(k) for k in (1, -1, 2)]
    values = [v for i, v in enumerate(values) if v != F.zero() and v not in values[:i]]
    disjoint = draw(st.booleans())
    blocks, dense, end = [], [], 0
    for _ in range(draw(st.integers(0, 3))):
        height = draw(st.integers(0, 4))
        off = end + draw(st.integers(0, 2)) if disjoint else draw(st.integers(0, 5))
        end = off + height
        cols = [[draw(st.sampled_from([F.zero()] + values)) for _ in range(height)]
                for _ in range(count)]
        negate = draw(st.booleans())
        dense.append((off, cols, negate))
        blocks.append((off, [_as_int(c) if F is F2 else _as_dict(F, c) for c in cols], negate))
    return F, count, blocks, dense


@settings(max_examples=300, deadline=None)
@given(_placements())
def test_place_matches_dense_sums(case):
    F, count, blocks, dense = case
    width = max([off + len(cols[0]) for off, cols, _ in dense if cols] + [0])
    expected = [[F.zero()] * width for _ in range(count)]
    for off, cols, negate in dense:
        for k, col in enumerate(cols):
            for r, x in enumerate(col):
                expected[k][off + r] = F.add(expected[k][off + r], F.neg(x) if negate else x)
    before = copy.deepcopy(blocks)
    got = place(F, blocks, count)
    assert [densified(F, v, width) for v in got] == expected
    assert blocks == before
