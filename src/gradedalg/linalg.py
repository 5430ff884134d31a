"""Exact dense linear algebra over any of the workbench fields.

Gaussian elimination throughout; ranks, kernel bases, image bases and
solves all come from one row reduction.  Matrices are immutable after
construction.
"""

from __future__ import annotations

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
    def zero(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, field, cols, nrows):
        if not cols:
            return cls.zero(field, nrows, 0)
        return cls(field, [[c[i] for c in cols] for i in range(nrows)], len(cols))

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
        return cls(field, rows, ncols)

    # -- basics -------------------------------------------------------

    def column(self, j):
        return [r[j] for r in self.rows]

    def transpose(self):
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
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
        return Matrix(F, out, other.ncols)

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
        if self._rref is not None:
            return self._rref
        F = self.field
        z = F.zero()
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pivot = None
            for i in range(r, len(rows)):
                if rows[i][c] != z:
                    pivot = i
                    break
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = F.inv(rows[r][c])
            if inv != F.one():
                rows[r] = [F.mul(inv, x) for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != z:
                    f = rows[i][c]
                    rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        self._rref = (rows[:r], pivots)
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
        F = self.field
        z = F.zero()
        aug = Matrix(F, [row + [bv] for row, bv in zip(self.rows, b)] if self.nrows
                     else [], self.ncols + 1)
        rows, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [z] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = rows[r][self.ncols]
        return x


class RowSpace:
    """Incrementally built row space with reduction against its RREF.

    Used for spanning-set elimination: insert vectors, query membership,
    and extract quotient coordinates relative to the non-pivot columns.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []     # rref rows
        self.pivots = []   # pivot column per row

    def reduce(self, vec):
        """Reduce `vec` against the current rows (returns a new list)."""
        F = self.field
        z = F.zero()
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != z:
                v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
        return v

    def insert(self, vec):
        """Insert a vector; returns True if it enlarged the space."""
        F = self.field
        z = F.zero()
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if x != z), None)
        if p is None:
            return False
        inv = F.inv(v[p])
        if inv != F.one():
            v = [F.mul(inv, x) for x in v]
        # keep full reduction: clear column p in existing rows
        for i, row in enumerate(self.rows):
            c = row[p]
            if c != z:
                self.rows[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(row, v)]
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < p:
            idx += 1
        self.rows.insert(idx, v)
        self.pivots.insert(idx, p)
        return True

    def contains(self, vec):
        z = self.field.zero()
        return all(x == z for x in self.reduce(vec))

    @property
    def dim(self):
        return len(self.rows)

    def nonpivot_columns(self):
        ps = set(self.pivots)
        return [c for c in range(self.ncols) if c not in ps]

    def quotient_coords(self, vec):
        """Coordinates of `vec` in the quotient by this space.

        The quotient basis is the set of non-pivot coordinate vectors.
        """
        v = self.reduce(vec)
        return [v[c] for c in self.nonpivot_columns()]
