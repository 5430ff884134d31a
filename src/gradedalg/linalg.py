"""Exact linear algebra over any of the workbench fields.

RowSpace is the one elimination kernel: ring and module components,
resolution kernels, Koszul and Cech ranks (by columns) and Matrix's
rref, rank, kernel_basis and solve all reduce through it.

The field chooses one vector format for the whole library: ring and
module coordinates, Matrix and RowSpace rows, kernel vectors and
combine's sums.  Over GF(2), the field of every mod-2 cohomology ring, a
vector is an int whose bit c is column c, so adding two vectors or
reducing by a row is one XOR.  Every other field keeps sparse
{column: value} dicts, so a Macaulay row m * f costs its |f| terms, not
the width of the matrix.  `field.packed` says which, and `unit_vector`
and `bits` build and read vectors of either kind.  `place` is where
columns are moved to an offset and summed: the free-module, Koszul and
Cech blocks are assembled through it, and only it knows how.

Matrix holds its rows in that format, its only storage, so its products,
transposes, direct sums and elimination touch only nonzero entries
(over GF(2), whole rows at a time).  Dense lists exist only at its
public boundary.  Matrices are immutable after construction.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import xor

from .fields import FieldError


def unit_vector(field, k):
    """Coordinate vector k in the field's vector format."""
    return 1 << k if field.packed else {k: field.one()}


class Matrix:
    """An immutable matrix whose rows srows are vectors in the field's
    format: over GF(2) ints with bit c for column c, else
    {column: nonzero value} dicts.

    That is the only storage.  Dense lists appear only at the boundary:
    the public constructor, the .rows view, column(), rref()'s rows and
    the outputs of apply() and solve().
    """

    __slots__ = ("field", "nrows", "ncols", "srows", "_space", "_solver")

    def __init__(self, field, rows, ncols=None):
        rows = [list(r) for r in rows]
        if rows:
            ncols_seen = len(rows[0])
            if any(len(r) != ncols_seen for r in rows):
                raise ValueError("ragged matrix")
            if ncols is not None and ncols != ncols_seen:
                raise ValueError("inconsistent column count")
            ncols = ncols_seen
        elif ncols is None:
            ncols = 0
        z = field.zero()
        rows = [[field.validate(x) for x in r] for r in rows]
        if field.packed:
            srows = [_pack(r) for r in rows]
        else:
            srows = [{c: x for c, x in enumerate(r) if x != z} for r in rows]
        self._init(field, srows, ncols)

    def _init(self, field, srows, ncols):
        self.field, self.srows, self.nrows, self.ncols = field, srows, len(srows), ncols
        self._space = self._solver = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, field, srows, ncols):
        """A matrix of rows in the field's format built here from field
        elements: nothing to validate."""
        m = cls.__new__(cls)
        m._init(field, srows, ncols)
        return m

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls._of(field, place(field, [], nrows), ncols)

    @classmethod
    def identity(cls, field, n):
        return cls._of(field, [unit_vector(field, i) for i in range(n)], n)

    @classmethod
    def from_columns(cls, field, cols, nrows):
        """The matrix with the given columns, each a list, a {row: value}
        dict or, over GF(2), an int with bit i for row i."""
        if field.packed:
            srows = [0] * nrows
            bit = 1
            # bits() inlined: on GF(2) modules this bit transpose is the
            # hottest loop of the library
            for col in map(_pack, cols):
                while col:
                    low = col & -col
                    srows[low.bit_length() - 1] |= bit
                    col ^= low
                bit <<= 1
            return cls._of(field, srows, len(cols))
        z = field.zero()
        srows = [{} for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in (col.items() if isinstance(col, dict) else enumerate(col)):
                if x != z:
                    srows[i][j] = x
        return cls._of(field, srows, len(cols))

    # -- basics -------------------------------------------------------

    @property
    def rows(self):
        """The rows as dense lists, built on each access."""
        return [_as_list(self.field, r, self.ncols) for r in self.srows]

    def column(self, j):
        if self.field.packed:
            return [r >> j & 1 for r in self.srows]
        z = self.field.zero()
        return [r.get(j, z) for r in self.srows]

    def transpose(self):
        if self.field.packed:
            # the rows of the transpose have the rows of self as their columns
            return Matrix.from_columns(self.field, self.srows, self.ncols)
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.srows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix._of(self.field, cols, self.nrows)

    def direct_sum(self, other):
        """The block diagonal matrix with self above and left of other."""
        k = self.ncols
        low = place(self.field, [(k, other.srows, False)], other.nrows)
        return Matrix._of(self.field, self.srows + low, k + other.ncols)

    def mul(self, other):
        if not isinstance(other, Matrix) or other.field != self.field:
            raise FieldError("matrix product requires matching fields")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        return Matrix._of(self.field, [combine(self.field, other.srows, arow)
                                       for arow in self.srows], other.ncols)

    def apply(self, vec):
        """Matrix times a column vector, a list, a {k: value} dict or, over
        GF(2), an int; returns a list.  Over GF(2) entry i is the parity
        of row i AND the vector."""
        vec = self._vector(vec, self.ncols)
        if self.field.packed:
            return [(row & vec).bit_count() & 1 for row in self.srows]
        F = self.field
        add, mul, z = F.add, F.mul, F.zero()
        out = []
        for row in self.srows:
            acc = z
            for k, a in row.items():
                x = vec[k]
                if x != z:
                    acc = add(acc, mul(a, x))
            out.append(acc)
        return out

    def _vector(self, vec, n):
        """A length-n vector, given as a list, a {k: value} dict or a GF(2)
        int: over GF(2) as an int, otherwise as a list."""
        if self.field.packed:
            if isinstance(vec, list) and len(vec) != n:
                raise ValueError("vector length mismatch")
            return _pack(vec)
        if isinstance(vec, dict):
            z = self.field.zero()
            return [vec.get(k, z) for k in range(n)]
        if len(vec) != n:
            raise ValueError("vector length mismatch")
        return vec

    def is_zero(self):
        return not any(self.srows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.ncols == self.ncols and other.srows == self.srows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    # -- elimination --------------------------------------------------

    def _eliminated(self):
        """The row space in reduced row echelon form, and its pivots (cached)."""
        if self._space is None:
            space = RowSpace(self.field, self.ncols)
            space.extend(self.srows)
            self._space = space, space.back_substitute()
        return self._space

    def rref(self):
        """Reduced row echelon form: (dense rows, pivot column list)."""
        space, pivots = self._eliminated()
        rows = [_as_list(self.field, space.row(p), self.ncols) for p in pivots]
        for row, p in zip(rows, pivots):
            row[p] = self.field.one()  # space.row leaves the pivot entry out
        return rows, pivots

    def rank(self):
        return len(self._eliminated()[1])

    def kernel_basis(self):
        """Basis of the right null space, as vectors in the field's format.

        One vector per non-pivot column fc: 1 there, minus column fc of the
        reduced rows at the pivots, zero elsewhere.
        """
        F = self.field
        space, pivots = self._eliminated()
        # reduced rows hold entries only in non-pivot columns
        if self.field.packed:
            basis = {fc: 1 << fc for fc in space.nonpivot_columns()}
            for p in pivots:
                bit = 1 << p
                for fc in bits(space.row(p)):
                    basis[fc] |= bit
        else:
            basis = {fc: {fc: F.one()} for fc in space.nonpivot_columns()}
            for p in pivots:
                for fc, x in space.row(p).items():
                    basis[fc][p] = F.neg(x)
        return list(basis.values())

    def solve(self, b):
        """One solution x of Ax = b, as a list, or None if inconsistent; b
        is a list, a {k: value} dict or, over GF(2), an int.

        The first call eliminates [A | I] once; every b then costs one pass
        over the reduced rows.  A reduced row [r | t] has r = tA, so a row
        with r = 0 is a left-kernel vector that b must be orthogonal to, and
        the others give the solution with every free variable zero, the one
        the reduced form of [A | b] gives.
        """
        F = self.field
        b = self._vector(b, self.nrows)
        n = self.ncols
        if self._solver is None:
            space = RowSpace(F, n + self.nrows)
            one = F.one()
            space.extend(row | 1 << (n + i) if F.packed else {**row, n + i: one}
                         for i, row in enumerate(self.srows))
            self._solver = space, space.back_substitute()
        space, pivots = self._solver
        if F.packed:
            x = [0] * n
            for p in pivots:
                # t . b, the pivot's own entry of t included
                acc = ((space.row(p) | 1 << p) >> n & b).bit_count() & 1
                if p < n:
                    x[p] = acc
                elif acc:
                    return None
            return x
        add, mul, z = F.add, F.mul, F.zero()
        x = [z] * n
        for p in pivots:
            acc = b[p - n] if p >= n else z
            for c, t in space.row(p).items():
                if c >= n and b[c - n] != z:
                    acc = add(acc, mul(t, b[c - n]))
            if p < n:
                x[p] = acc
            elif acc != z:
                return None
        return x


def combine(field, vectors, coeffs):
    """sum of coeffs[k] * vectors[k], the vectors and the sum in the
    field's format.

    coeffs is a list, a {k: value} dict or, over GF(2), an int, and only
    its nonzero entries are visited.  Over GF(2) the sum is the XOR of the
    vectors at the set bits of coeffs.
    """
    if field.packed:
        out = 0
        for k in bits(_pack(coeffs)):
            out ^= vectors[k]
        return out
    add, mul, z = field.add, field.mul, field.zero()
    out = {}
    for k, c in (coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)):
        if c == z:
            continue
        for col, x in vectors[k].items():
            old = out.get(col)
            out[col] = mul(c, x) if old is None else add(old, mul(c, x))
    return {col: x for col, x in out.items() if x != z}


def place(field, blocks, count):
    """count vectors in the field's format, vector k the sum of column k of
    every block (offset, columns, negate), moved to start at offset and
    negated where negate is true; with no block, count zero vectors.

    Nothing given is changed, but the first block comes back as it is
    where it needs no move: the result may be its list and share its
    vectors, so no caller changes either.  Over GF(2) -1 = 1 and moving
    is a shift.
    """
    out = None
    if field.packed:
        for off, cols, _ in blocks:
            if off:
                cols = [v << off for v in cols]
            out = cols if out is None else list(map(xor, out, cols))
        return [0] * count if out is None else out
    neg, one = field.neg, field.one()
    for off, cols, negate in blocks:
        if negate:
            cols = [{off + r: neg(x) for r, x in v.items()} for v in cols]
        elif off:
            cols = [{off + r: x for r, x in v.items()} for v in cols]
        out = cols if out is None else [
            {**v, **w} if v.keys().isdisjoint(w) else combine(field, (v, w), (one, one))
            for v, w in zip(out, cols)]
    return [{} for _ in range(count)] if out is None else out


class RowSpace:
    """Incrementally built row space with reduction against its rows.

    Used for spanning-set elimination: insert vectors, query membership,
    and extract quotient coordinates relative to the non-pivot columns.
    Vectors go in as dense lists, {column: value} dicts or, over GF(2),
    ints whose bit c is column c; reduced vectors and quotient
    coordinates come back in the field's format (see the module
    docstring).  A space with no rows yet hands a vector's nonzero
    entries back as they are.

    Rows are kept in echelon form: each is reduced against the rows there
    when it arrives, and its pivot is its least nonzero column.  So the
    pivots are those of the reduced row echelon form, and a reduction,
    which clears every pivot column, is the same as against that form.

    Over GF(2) a row is an int, its pivot bit included, and a reduction
    XORs in the row of the least pivot bit left until none is: a few word
    operations per row instead of a Python step per entry.  Every other
    field keeps sparse {column > pivot: value} rows.  `packed` says which.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.packed = field.packed
        self._rows = {}          # pivot column -> its row, stored as above
        self._pivot_bits = 0     # GF(2): the pivot columns as bits
        self._nonpivots = None   # cached with their positions; insert clears both
        self._position = None

    def _reduced(self, vec):
        """vec, over a field other than GF(2), as a {column: value} dict
        reduced until no pivot column is left."""
        rows = self._rows
        F = self.field
        z = F.zero()
        v = _entries(vec, z)
        # A row touches only columns right of its pivot, so clearing pivot
        # columns in increasing order never refills one already cleared.
        heap = [c for c in v if c in rows]
        if not heap:
            return v
        add, mul, neg = F.add, F.mul, F.neg
        heapify(heap)
        while heap:
            p = heappop(heap)
            coef = v.pop(p, None)
            if coef is None:
                continue
            coef = neg(coef)
            for c, x in rows[p].items():
                old = v.get(c)
                if old is None:
                    v[c] = mul(coef, x)
                    if c in rows:
                        heappush(heap, c)
                else:
                    y = add(old, mul(coef, x))
                    if y == z:
                        del v[c]
                    else:
                        v[c] = y
        return v

    def _reduced_bits(self, v):
        """The GF(2) vector v (an int) reduced until no pivot bit is left.

        XORing the row of the least pivot bit clears that bit and touches
        only higher ones, so the loop ends after at most dim steps.
        """
        rows, pivot_bits = self._rows, self._pivot_bits
        hit = v & pivot_bits
        while hit:
            v ^= rows[(hit & -hit).bit_length() - 1]
            hit = v & pivot_bits
        return v

    def _reduced_any(self, vec):
        """vec reduced, in the field's format."""
        if self.packed:
            return self._reduced_bits(_pack(vec))
        return self._reduced(vec)

    def reduce(self, vec):
        """Reduce `vec` against the current rows (returns a new list)."""
        return _as_list(self.field, self._reduced_any(vec), self.ncols)

    def insert(self, vec):
        """Insert a vector; returns True if it enlarged the space.  Over
        GF(2) this is extend's loop on the one vector."""
        if self.packed:
            return self.extend((vec,)) > 0
        v = self._reduced(vec)
        if not v:
            return False
        F = self.field
        p = min(v)
        inv = F.inv(v.pop(p))
        if inv != F.one():
            v = {c: F.mul(inv, x) for c, x in v.items()}
        self._rows[p] = v
        self._nonpivots = self._position = None
        return True

    def extend(self, vectors):
        """Insert each of the vectors in turn; returns how many enlarged the
        space.  The space left is the one the same inserts would leave.

        Over GF(2) this is the one elimination loop (insert calls it too):
        the rows and pivot bits are held in locals and the caches cleared
        once.
        """
        if not self.packed:
            return sum(map(self.insert, vectors))
        rows, pivot_bits, added = self._rows, self._pivot_bits, 0
        try:
            for v in vectors:
                if v.__class__ is not int:
                    v = _pack(v)
                hit = v & pivot_bits
                while hit:
                    v ^= rows[(hit & -hit).bit_length() - 1]
                    hit = v & pivot_bits
                if v:
                    low = v & -v
                    rows[low.bit_length() - 1] = v
                    pivot_bits |= low
                    added += 1
        finally:
            self._pivot_bits = pivot_bits
            if added:
                self._nonpivots = self._position = None
        return added

    def pivots_below(self, c):
        """How many pivot columns are below column c."""
        if self.packed:
            return (self._pivot_bits & ((1 << c) - 1)).bit_count()
        return sum(p < c for p in self._rows)

    def contains(self, vec):
        return not self._reduced_any(vec)

    @property
    def dim(self):
        return len(self._rows)

    def row(self, p):
        """The row whose pivot is column p without its entry 1 at p: over
        GF(2) an int, else {column > p: value}.  After back_substitute it
        is a reduced row."""
        if self.packed:
            return self._rows[p] ^ (1 << p)
        return self._rows[p]

    def nonpivot_columns(self):
        if self._nonpivots is None:
            self._nonpivots = [c for c in range(self.ncols) if c not in self._rows]
        return self._nonpivots

    def quotient_coords(self, vec):
        """Coordinates of `vec` in the quotient by this space, in the
        field's format: over GF(2) an int with bit k for non-pivot
        position k, else {non-pivot position: value}.

        The quotient basis is the set of non-pivot coordinate vectors.
        With no pivots yet, positions are columns.
        """
        if not self._rows:
            return _pack(vec) if self.packed else _entries(vec, self.field.zero())
        if self._position is None:
            self._position = {c: k for k, c in enumerate(self.nonpivot_columns())}
        position = self._position
        # the reduced vector has no pivot column left
        if self.packed:
            out = 0
            for c in bits(self._reduced_bits(_pack(vec))):
                out |= 1 << position[c]
            return out
        return {position[c]: x for c, x in self._reduced(vec).items()}

    def back_substitute(self):
        """Bring the rows to reduced row echelon form; returns the sorted pivots.

        Rows are reduced from the last pivot to the first, so each one
        meets only rows already fully reduced.
        """
        rows = self._rows
        pivots = sorted(rows)
        for p in reversed(pivots):
            if self.packed:
                bit = 1 << p
                rows[p] = self._reduced_bits(rows[p] ^ bit) | bit
            else:
                rows[p] = self._reduced(rows[p])
        return pivots


def _as_list(field, vec, n):
    """The length-n vector vec, a {column: value} dict or a GF(2) int, as
    a list; a list is returned as it is."""
    if isinstance(vec, int):
        return [vec >> c & 1 for c in range(n)]
    if isinstance(vec, dict):
        z = field.zero()
        return [vec.get(c, z) for c in range(n)]
    return vec


def _entries(vec, z):
    """The entries other than z of vec, a list or a {column: value} dict,
    as a new {column: value} dict."""
    return {c: x for c, x in (vec.items() if isinstance(vec, dict) else enumerate(vec))
            if x != z}


def _pack(vec):
    """A GF(2) vector, a list or a {column: value} dict, as an int whose
    bit c is column c; an int is that already."""
    if isinstance(vec, int):
        return vec
    v = 0
    for c, x in (vec.items() if isinstance(vec, dict) else enumerate(vec)):
        if x:
            v |= 1 << c
    return v


def bits(v):
    """The positions of the set bits of the int v, lowest first: the
    nonzero columns of a packed GF(2) vector."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out
