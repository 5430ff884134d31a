"""Graded free modules, polynomial matrices, and finitely presented modules.

All degreewise computations funnel through ring components, so every
coordinate already lives in the quotient-ring basis of its codegree.
A free-module codegree-n basis is the list of pairs (slot, monomial)
with the monomial running over the quotient basis of the complementary
codegree.
"""

from __future__ import annotations

from .linalg import Matrix, RowSpace
from .rings import GradedRing, PresentationError


class FreeModule:
    """Graded free module over a ring: one generator per shift (codegree)."""

    def __init__(self, ring: GradedRing, shifts):
        self.ring = ring
        self.shifts = tuple(int(s) for s in shifts)
        self._basis_cache = {}

    @property
    def rank(self):
        return len(self.shifts)

    def basis(self, n):
        if n in self._basis_cache:
            return self._basis_cache[n]
        out = []
        for j, s in enumerate(self.shifts):
            comp = self.ring.component(n - s)
            out.extend((j, mono) for mono in comp.basis)
        self._basis_cache[n] = out
        return out

    def dim(self, n):
        return len(self.basis(n))

    def coords_of(self, element, n):
        """Coordinates at codegree n of a polynomial vector (one poly per slot)."""
        out = []
        for j, s in enumerate(self.shifts):
            out.extend(self.ring.component(n - s).reduce_poly(element[j]))
        return out

    def images(self, pairs, columns, n):
        """Coordinates at codegree n of mono * columns[j] for each (j, mono).

        columns[j] is a polynomial vector in the slots of this module.
        """
        ring = self.ring
        return [self.coords_of([ring.mono_times_poly(mono, p) for p in columns[j]], n)
                for j, mono in pairs]

    def scalar_columns(self, poly):
        """The columns of poly times the identity, as polynomial vectors."""
        return [[poly if i == j else {} for i in range(self.rank)]
                for j in range(self.rank)]

    def element_of(self, coords, n):
        """Inverse of coords_of: coordinates -> polynomial vector."""
        F = self.ring.field
        z = F.zero()
        element = [dict() for _ in self.shifts]
        pos = 0
        for j, s in enumerate(self.shifts):
            comp = self.ring.component(n - s)
            for mono in comp.basis:
                c = coords[pos]
                pos += 1
                if c != z:
                    element[j][mono] = c
        return element

    def min_degree(self):
        return min(self.shifts) if self.shifts else 0


class PolyMatrix:
    """Homogeneous map of graded free modules, entries in the ring.

    entries[i][j] maps source generator j into target slot i; entry (i, j)
    must be homogeneous of codegree source.shifts[j] - target.shifts[i].
    """

    def __init__(self, target: FreeModule, source: FreeModule, entries):
        if target.ring is not source.ring:
            raise PresentationError("matrix between modules over different rings")
        self.ring = target.ring
        self.target = target
        self.source = source
        self.entries = [[dict(e) for e in row] for row in entries]
        if len(self.entries) != target.rank or any(len(r) != source.rank for r in self.entries):
            raise PresentationError("polynomial matrix shape mismatch")
        for i in range(target.rank):
            for j in range(source.rank):
                e = self.entries[i][j]
                if e:
                    d = self.ring.poly_codegree(e)
                    if d != source.shifts[j] - target.shifts[i]:
                        raise PresentationError(
                            f"entry ({i},{j}) has codegree {d}, expected "
                            f"{source.shifts[j] - target.shifts[i]}")
        self._at_cache = {}

    def column(self, j):
        return [self.entries[i][j] for i in range(self.target.rank)]

    def matrix_at(self, n) -> Matrix:
        """The induced linear map source^n -> target^n in quotient coordinates."""
        if n in self._at_cache:
            return self._at_cache[n]
        cols = self.target.images(self.source.basis(n),
                                  [self.column(j) for j in range(self.source.rank)], n)
        m = Matrix.from_columns(self.ring.field, cols, self.target.dim(n))
        self._at_cache[n] = m
        return m

    def entries_times(self, other: "PolyMatrix"):
        """Entries of the product self . other (other feeds into self)."""
        ring = self.ring
        out = []
        for row in self.entries:
            out_row = []
            for j in range(other.source.rank):
                acc = {}
                for x, other_row in zip(row, other.entries):
                    if x and other_row[j]:
                        acc = ring.padd(acc, ring.pmul(x, other_row[j]))
                out_row.append(acc)
            out.append(out_row)
        return out

    def compose(self, other: "PolyMatrix") -> "PolyMatrix":
        """self o other (other feeds into self)."""
        if other.target is not self.source and other.target.shifts != self.source.shifts:
            raise PresentationError("composition shape mismatch")
        return PolyMatrix(self.target, other.source, self.entries_times(other))

    def is_zero_on(self, degrees):
        """True if the induced map vanishes at every listed codegree."""
        return all(self.matrix_at(n).is_zero() for n in degrees)

    def min_entries_positive(self):
        """Minimality: no entry has a codegree-0 (unit) component."""
        for i in range(self.target.rank):
            for j in range(self.source.rank):
                if self.source.shifts[j] == self.target.shifts[i] and self.entries[i][j]:
                    return False
        return True


class GradedModule:
    """Finitely presented graded module: coker of a map of free modules."""

    def __init__(self, ring: GradedRing, gen_shifts, rel_columns=None):
        self.ring = ring
        self.gen_shifts = tuple(int(s) for s in gen_shifts)
        self.free = FreeModule(ring, self.gen_shifts)
        cols = []
        for col in (rel_columns or []):
            if len(col) != len(self.gen_shifts):
                raise PresentationError("relation column length mismatch")
            col = [ring._validated_poly(p) for p in col]
            degs = set()
            for j, p in enumerate(col):
                if p:
                    degs.add(ring.poly_codegree(p) + self.gen_shifts[j])
            if len(degs) > 1:
                raise PresentationError(
                    f"relation column is not homogeneous: codegrees {sorted(degs)}")
            if degs:
                cols.append((degs.pop(), col))
        self.rel_columns = cols  # list of (codegree, polynomial vector)
        self._component_cache = {}

    @classmethod
    def ring_as_module(cls, ring):
        return cls(ring, [0], [])

    @classmethod
    def residue_field(cls, ring):
        """k = R / (all generators)."""
        cols = []
        for i in range(ring.ngens):
            cols.append([ring.gen_poly(i)])
        return cls(ring, [0], cols)

    def component(self, n):
        if n in self._component_cache:
            return self._component_cache[n]
        ring = self.ring
        free_basis = self.free.basis(n)
        span = RowSpace(ring.field, len(free_basis))
        pairs = [(k, mono) for k, (d, _) in enumerate(self.rel_columns)
                 for mono in ring.monomials(n - d)]
        for v in self.free.images(pairs, [col for _, col in self.rel_columns], n):
            span.insert(v)
        comp = ModuleComponent(self, n, free_basis, span)
        self._component_cache[n] = comp
        return comp

    def dim(self, n):
        return self.component(n).dim

    def hilbert_prefix(self, n_max, n_min=0):
        return [self.dim(n) for n in range(n_min, n_max + 1)]

    def min_degree(self):
        return min(self.gen_shifts) if self.gen_shifts else 0

    def mult_matrix(self, poly, n) -> Matrix:
        """Multiplication by a homogeneous polynomial: M^n -> M^(n+|poly|)."""
        ring = self.ring
        d = ring.poly_codegree(poly)
        src = self.component(n)
        tgt = self.component(n + d)
        cols = self.free.images(src.basis, self.free.scalar_columns(poly), n + d)
        return Matrix.from_columns(ring.field, [tgt.reduce(v) for v in cols], tgt.dim)


class ModuleComponent:
    """One codegree of a finitely presented module, with reduction."""

    def __init__(self, module, n, free_basis, span):
        self.module = module
        self.n = n
        self.free_basis = free_basis
        self._span = span
        nonpivots = span.nonpivot_columns()
        self.basis = [free_basis[c] for c in nonpivots]
        self.dim = len(self.basis)

    def reduce(self, free_coords):
        """Free-module coordinates -> module quotient coordinates."""
        return self._span.quotient_coords(free_coords)

    def lift(self, coords):
        """Quotient coordinates -> a representative in free coordinates."""
        F = self.module.ring.field
        z = F.zero()
        vec = [z] * len(self.free_basis)
        nonpivots = self._span.nonpivot_columns()
        for c, val in zip(nonpivots, coords):
            vec[c] = val
        return vec
