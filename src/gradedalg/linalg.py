"""Exact linear algebra over any of the workbench fields.

RowSpace is the one elimination kernel: ring and module components,
resolution kernels, Cech ranks and Matrix's rref, rank, kernel_basis,
image_basis and solve all reduce through it.  Its rows are sparse, so a
Macaulay row m * f costs its |f| terms, not the width of the matrix.
Matrices are dense and immutable after construction.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .fields import FieldError


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows", "_rref")

    def __init__(self, field, rows, ncols=None):
        self.field = field
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
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = [[field.validate(x) for x in r] for r in rows]
        self._rref = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, field, rows, ncols):
        """A matrix of rows built here from field elements: nothing to validate."""
        m = cls.__new__(cls)
        m.field, m.rows, m.nrows, m.ncols, m._rref = field, rows, len(rows), ncols, None
        return m

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero()
        return cls._of(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls._of(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, field, cols, nrows):
        if not cols:
            return cls.zero(field, nrows, 0)
        return cls._of(field, [[c[i] for c in cols] for i in range(nrows)], len(cols))

    @classmethod
    def from_blocks(cls, field, row_sizes, col_sizes, blocks):
        """Block matrix with the given block row and block column sizes.

        blocks maps (block row, block column) to (sign, Matrix), sign being
        1 or -1; missing blocks are zero.  Blocks never overlap, so every
        entry is written once.
        """
        row_off = [sum(row_sizes[:i]) for i in range(len(row_sizes))]
        col_off = [sum(col_sizes[:j]) for j in range(len(col_sizes))]
        ncols = sum(col_sizes)
        z = field.zero()
        rows = [[z] * ncols for _ in range(sum(row_sizes))]
        for (i, j), (sign, m) in blocks.items():
            c = col_off[j]
            for r, src in enumerate(m.rows):
                rows[row_off[i] + r][c:c + m.ncols] = (
                    src if sign == 1 else [field.neg(x) for x in src])
        return cls._of(field, rows, ncols)

    # -- basics -------------------------------------------------------

    def column(self, j):
        return [r[j] for r in self.rows]

    def transpose(self):
        return Matrix._of(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                       for j in range(self.ncols)], self.nrows)

    def mul(self, other):
        if not isinstance(other, Matrix) or other.field != self.field:
            raise FieldError("matrix product requires matching fields")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        F = self.field
        z = F.zero()
        out = []
        for i in range(self.nrows):
            arow = self.rows[i]
            row = []
            for j in range(other.ncols):
                acc = z
                for k in range(self.ncols):
                    a = arow[k]
                    if a != z:
                        acc = F.add(acc, F.mul(a, other.rows[k][j]))
                row.append(acc)
            out.append(row)
        return Matrix._of(F, out, other.ncols)

    def apply(self, vec):
        """Matrix times column vector (a list)."""
        F = self.field
        z = F.zero()
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.nrows):
            acc = z
            for k, a in enumerate(self.rows[i]):
                if a != z:
                    acc = F.add(acc, F.mul(a, vec[k]))
            out.append(acc)
        return out

    def is_zero(self):
        z = self.field.zero()
        return all(x == z for r in self.rows for x in r)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows and other.ncols == self.ncols)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    # -- elimination --------------------------------------------------

    def rref(self):
        """Reduced row echelon form: (rows, pivot column list)."""
        if self._rref is None:
            space = RowSpace(self.field, self.ncols)
            for row in self.rows:
                space.insert(row)
            self._rref = space._rref()
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right null space, as column vectors (lists)."""
        F = self.field
        z, o = F.zero(), F.one()
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [z] * self.ncols
            v[fc] = o
            for r, pc in enumerate(pivots):
                v[pc] = F.neg(rows[r][fc])
            basis.append(v)
        return basis

    def image_basis(self):
        """Columns of the matrix forming a basis of the column space."""
        _, pivots = self.rref()
        return [self.column(c) for c in pivots]

    def solve(self, b):
        """One solution x of Ax = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("vector length mismatch")
        F = self.field
        z = F.zero()
        aug = Matrix._of(F, [row + [bv] for row, bv in zip(self.rows, b)], self.ncols + 1)
        rows, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [z] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = rows[r][self.ncols]
        return x


class RowSpace:
    """Incrementally built row space with reduction against its rows.

    Used for spanning-set elimination: insert vectors, query membership,
    and extract quotient coordinates relative to the non-pivot columns.
    Vectors are dense lists or {column: value} dicts.

    Rows are kept in echelon form: each is reduced against the rows there
    when it arrives, and its pivot is its least nonzero column.  So the
    pivots are those of the reduced row echelon form, and a reduction,
    which clears every pivot column, is the same as against that form.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self._rows = {}          # pivot column -> {column > pivot: value}
        self._nonpivots = None   # cached; insert clears it

    def _reduced(self, vec):
        """vec as a {column: value} dict, reduced until no pivot column is left."""
        F = self.field
        add, mul, neg, z = F.add, F.mul, F.neg, F.zero()
        rows = self._rows
        v = {c: x for c, x in (vec.items() if isinstance(vec, dict) else enumerate(vec))
             if x != z}
        # A row touches only columns right of its pivot, so clearing pivot
        # columns in increasing order never refills one already cleared.
        heap = [c for c in v if c in rows]
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

    def reduce(self, vec):
        """Reduce `vec` against the current rows (returns a new list)."""
        v = self._reduced(vec)
        z = self.field.zero()
        return [v.get(c, z) for c in range(self.ncols)]

    def insert(self, vec):
        """Insert a vector; returns True if it enlarged the space."""
        v = self._reduced(vec)
        if not v:
            return False
        F = self.field
        p = min(v)
        inv = F.inv(v.pop(p))
        if inv != F.one():
            v = {c: F.mul(inv, x) for c, x in v.items()}
        self._rows[p] = v
        self._nonpivots = None
        return True

    def contains(self, vec):
        return not self._reduced(vec)

    @property
    def dim(self):
        return len(self._rows)

    def nonpivot_columns(self):
        if self._nonpivots is None:
            self._nonpivots = [c for c in range(self.ncols) if c not in self._rows]
        return self._nonpivots

    def quotient_coords(self, vec):
        """Coordinates of `vec` in the quotient by this space.

        The quotient basis is the set of non-pivot coordinate vectors.
        """
        v = self._reduced(vec)
        z = self.field.zero()
        return [v.get(c, z) for c in self.nonpivot_columns()]

    def _rref(self):
        """Back-substitute into reduced row echelon form: (dense rows, pivots).

        Rows are reduced from the last pivot to the first, so each one
        meets only rows already fully reduced.
        """
        z, o = self.field.zero(), self.field.one()
        pivots = sorted(self._rows)
        for p in reversed(pivots):
            self._rows[p] = self._reduced(self._rows[p])
        return [[o if c == p else self._rows[p].get(c, z) for c in range(self.ncols)]
                for p in pivots], pivots
