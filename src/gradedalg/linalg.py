"""Exact linear algebra over any of the workbench fields.

RowSpace is the one elimination kernel: ring and module components,
resolution kernels, Cech ranks and Matrix's rref, rank, kernel_basis,
image_basis and solve all reduce through it.  The field chooses how it
stores rows.  Over GF(2), the field of every mod-2 cohomology ring, a
row is an int with one bit per column, and reducing by a row is one
XOR.  Every other field keeps sparse {column: value} rows, so a Macaulay
row m * f costs its |f| terms, not the width of the matrix.  Either way
vectors go in as lists or dicts, over GF(2) also as such ints (ring
components hand their Macaulay rows over packed), and come out as
{column: value} dicts.

Matrix holds the same {column: value} rows, its only storage, so its
products, transposes, block assembly and elimination touch only nonzero
entries.  Dense lists exist only at its public boundary.  Matrices are
immutable after construction.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .fields import FieldError, PrimeField


class Matrix:
    """An immutable matrix with sparse rows: srows[i] is {column: nonzero value}.

    That is the only storage.  Dense lists appear only at the boundary:
    the public constructor, the .rows view, rref()'s rows and apply()'s
    output.
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
        srows = []
        for r in rows:
            row = {}
            for c, x in enumerate(r):
                x = field.validate(x)
                if x != z:
                    row[c] = x
            srows.append(row)
        self._init(field, srows, ncols)

    def _init(self, field, srows, ncols):
        self.field, self.srows, self.nrows, self.ncols = field, srows, len(srows), ncols
        self._space = self._solver = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, field, srows, ncols):
        """A matrix of sparse rows built here from field elements: nothing to validate."""
        m = cls.__new__(cls)
        m._init(field, srows, ncols)
        return m

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls._of(field, [{} for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        o = field.one()
        return cls._of(field, [{i: o} for i in range(n)], n)

    @classmethod
    def from_columns(cls, field, cols, nrows):
        """The matrix with the given columns, each a list or a {row: value} dict."""
        z = field.zero()
        srows = [{} for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in (col.items() if isinstance(col, dict) else enumerate(col)):
                if x != z:
                    srows[i][j] = x
        return cls._of(field, srows, len(cols))

    @classmethod
    def from_blocks(cls, field, row_sizes, col_sizes, blocks):
        """Block matrix with the given block row and block column sizes.

        blocks maps (block row, block column) to (sign, Matrix), sign being
        1 or -1; missing blocks are zero.  Blocks never overlap, so every
        entry is written once.
        """
        row_off = [sum(row_sizes[:i]) for i in range(len(row_sizes))]
        col_off = [sum(col_sizes[:j]) for j in range(len(col_sizes))]
        neg = field.neg
        srows = [{} for _ in range(sum(row_sizes))]
        for (i, j), (sign, m) in blocks.items():
            r0, c0 = row_off[i], col_off[j]
            for r, src in enumerate(m.srows):
                dst = srows[r0 + r]
                for c, x in src.items():
                    dst[c0 + c] = x if sign == 1 else neg(x)
        return cls._of(field, srows, sum(col_sizes))

    # -- basics -------------------------------------------------------

    @property
    def rows(self):
        """The rows as dense lists, built on each access."""
        z = self.field.zero()
        return [[r.get(c, z) for c in range(self.ncols)] for r in self.srows]

    def column(self, j):
        z = self.field.zero()
        return [r.get(j, z) for r in self.srows]

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.srows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix._of(self.field, cols, self.nrows)

    def mul(self, other):
        if not isinstance(other, Matrix) or other.field != self.field:
            raise FieldError("matrix product requires matching fields")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        return Matrix._of(self.field, [combine(self.field, other.srows, arow)
                                       for arow in self.srows], other.ncols)

    def apply(self, vec):
        """Matrix times a column vector, a list or a {k: value} dict; returns a list."""
        F = self.field
        add, mul, z = F.add, F.mul, F.zero()
        vec = self._dense(vec, self.ncols)
        out = []
        for row in self.srows:
            acc = z
            for k, a in row.items():
                x = vec[k]
                if x != z:
                    acc = add(acc, mul(a, x))
            out.append(acc)
        return out

    def _dense(self, vec, n):
        """A length-n vector given as a list or a {k: value} dict, as a list."""
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
            for row in self.srows:
                space.insert(row)
            self._space = space, space.back_substitute()
        return self._space

    def rref(self):
        """Reduced row echelon form: (dense rows, pivot column list)."""
        space, pivots = self._eliminated()
        z, o = self.field.zero(), self.field.one()
        return [[o if c == p else row.get(c, z) for c in range(self.ncols)]
                for p, row in zip(pivots, map(space.row, pivots))], pivots

    def rank(self):
        return len(self._eliminated()[1])

    def kernel_basis(self):
        """Basis of the right null space, as sparse {column: value} vectors.

        One vector per non-pivot column fc: 1 there, minus column fc of the
        reduced rows at the pivots, zero elsewhere.
        """
        F = self.field
        o = F.one()
        space, pivots = self._eliminated()
        basis = {fc: {fc: o} for fc in space.nonpivot_columns()}
        # reduced rows hold entries only in non-pivot columns
        for p in pivots:
            for fc, x in space.row(p).items():
                basis[fc][p] = F.neg(x)
        return list(basis.values())

    def image_basis(self):
        """Columns of the matrix forming a basis of the column space."""
        _, pivots = self._eliminated()
        return [self.column(c) for c in pivots]

    def solve(self, b):
        """One solution x of Ax = b (b a list or a {k: value} dict), or None
        if inconsistent.

        The first call eliminates [A | I] once; every b then costs one pass
        over the reduced rows.  A reduced row [r | t] has r = tA, so a row
        with r = 0 is a left-kernel vector that b must be orthogonal to, and
        the others give the solution with every free variable zero, the one
        the reduced form of [A | b] gives.
        """
        F = self.field
        add, mul, z = F.add, F.mul, F.zero()
        b = self._dense(b, self.nrows)
        n = self.ncols
        if self._solver is None:
            space = RowSpace(F, n + self.nrows)
            o = F.one()
            for i, row in enumerate(self.srows):
                space.insert({**row, n + i: o})
            self._solver = space, space.back_substitute()
        space, pivots = self._solver
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
    """sum of coeffs[k] * vectors[k] as a {column: value} dict.

    vectors are {column: value} dicts; coeffs is a list or a
    {k: value} dict, and only its nonzero entries are visited.
    """
    add, mul, z = field.add, field.mul, field.zero()
    out = {}
    for k, c in (coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)):
        if c == z:
            continue
        for col, x in vectors[k].items():
            old = out.get(col)
            out[col] = mul(c, x) if old is None else add(old, mul(c, x))
    return {col: x for col, x in out.items() if x != z}


class RowSpace:
    """Incrementally built row space with reduction against its rows.

    Used for spanning-set elimination: insert vectors, query membership,
    and extract quotient coordinates relative to the non-pivot columns.
    Vectors are dense lists or {column: value} dicts, over GF(2) also ints
    whose bit c is column c, and reduced vectors come back as
    {column: value} dicts.  A space with no rows yet hands a vector's
    nonzero entries back as they are.

    Rows are kept in echelon form: each is reduced against the rows there
    when it arrives, and its pivot is its least nonzero column.  So the
    pivots are those of the reduced row echelon form, and a reduction,
    which clears every pivot column, is the same as against that form.

    The field chooses how rows are stored.  Over GF(2) a row is an int
    whose bit c is column c, its pivot bit included, and a reduction XORs
    in the row of the least pivot bit left until none is: a few word
    operations per row instead of a Python step per entry.  Every other
    field keeps sparse {column > pivot: value} rows.  `packed` says which.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.packed = isinstance(field, PrimeField) and field.p == 2
        self._rows = {}          # pivot column -> its row, stored as above
        self._pivot_bits = 0     # GF(2): the pivot columns as bits
        self._nonpivots = None   # cached with their positions; insert clears both
        self._position = None

    def _reduced(self, vec):
        """vec as a {column: value} dict, reduced until no pivot column is left."""
        rows = self._rows
        if self.packed and rows:
            return dict.fromkeys(_bits(self._reduced_bits(_pack(vec))), 1)
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

    def reduce(self, vec):
        """Reduce `vec` against the current rows (returns a new list)."""
        v = self._reduced(vec)
        z = self.field.zero()
        return [v.get(c, z) for c in range(self.ncols)]

    def insert(self, vec):
        """Insert a vector; returns True if it enlarged the space."""
        if self.packed:
            v = self._reduced_bits(_pack(vec))
            if not v:
                return False
            low = v & -v
            self._rows[low.bit_length() - 1] = v
            self._pivot_bits |= low
        else:
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

    def contains(self, vec):
        return not self._reduced(vec)

    @property
    def dim(self):
        return len(self._rows)

    def row(self, p):
        """The row whose pivot is column p, as {column > p: value}; its
        entry at p is 1.  After back_substitute it is a reduced row."""
        if self.packed:
            return dict.fromkeys(_bits(self._rows[p] ^ (1 << p)), 1)
        return self._rows[p]

    def nonpivot_columns(self):
        if self._nonpivots is None:
            self._nonpivots = [c for c in range(self.ncols) if c not in self._rows]
        return self._nonpivots

    def quotient_coords(self, vec):
        """Coordinates of `vec` in the quotient by this space, as
        {non-pivot position: value}.

        The quotient basis is the set of non-pivot coordinate vectors.
        With no pivots yet, positions are columns.
        """
        if not self._rows:
            return _entries(vec, self.field.zero())
        if self._position is None:
            self._position = {c: k for k, c in enumerate(self.nonpivot_columns())}
        position = self._position
        # the reduced vector has no pivot column left
        if self.packed:
            return {position[c]: 1 for c in _bits(self._reduced_bits(_pack(vec)))}
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


def _entries(vec, z):
    """The entries other than z of vec, a list, a {column: value} dict or
    a packed GF(2) int, as a new {column: value} dict."""
    if isinstance(vec, int):
        return dict.fromkeys(_bits(vec), 1)
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


def _bits(v):
    """The positions of the set bits of the int v, lowest first."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out
