"""Graded free modules, polynomial matrices, and finitely presented modules.

All degreewise computations funnel through ring components, so every
coordinate already lives in the quotient-ring basis of its codegree.
Coordinates are vectors in the field's format (see linalg), the column
format of Matrix.from_columns, and a free-module vector is its slots'
coordinates placed at their offsets by linalg.place.
A free-module codegree-n basis is the list of pairs (slot, monomial)
with the monomial running over the quotient basis of the complementary
codegree.

A polynomial vector is a {slot: nonzero poly} dict, and a map of free
modules the list of its columns, so a map costs its nonzero entries.

A ring element acts on the left of a module.  Products come from one
route, rings.RingComponent.products, as columns b * p, and
FreeModule.left_action is the one place they get the sign of p * b.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .linalg import Matrix, RowSpace, bits, place
from .rings import GradedRing, PresentationError


class FreeModule:
    """Graded free module over a ring: one generator per shift (codegree).
    Its elements are polynomial vectors {slot: poly}."""

    def __init__(self, ring: GradedRing, shifts):
        self.ring = ring
        self.shifts = tuple(int(s) for s in shifts)
        self._basis_cache = {}
        self._offset_cache = {}

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

    def offsets(self, n):
        """Position of each slot's first coordinate at codegree n."""
        if n not in self._offset_cache:
            out, pos = [], 0
            for s in self.shifts:
                out.append(pos)
                pos += self.ring.component(n - s).dim
            self._offset_cache[n] = out
        return self._offset_cache[n]

    def dim(self, n):
        return len(self.basis(n))

    def coords_of(self, element, n):
        """Coordinates at codegree n of a polynomial vector {slot: poly}."""
        offsets = self.offsets(n)
        return place(self.ring.field, [
            (offsets[j], [self.ring.component(n - self.shifts[j]).reduce_poly(p)], False)
            for j, p in element.items()], 1)[0]

    def images(self, pairs, columns, n):
        """Coordinates at codegree n of mono * columns[j] for each (j, mono),
        mono a basis monomial.

        columns[j] is a homogeneous polynomial vector {slot: poly} of this
        module, so the monomials paired with j share one codegree.  Each
        run of pairs with one j goes to RingComponent.products once per
        slot polynomial, batched over the run's monomials, and the slots'
        coordinates are placed at their offsets.
        """
        ring = self.ring
        offsets = self.offsets(n)
        out = []
        for j, run in groupby(pairs, itemgetter(0)):
            monos = [mono for _, mono in run]
            blocks = []
            for i, p in columns[j].items():
                target = ring.component(n - self.shifts[i])
                blocks.append((offsets[i], target.products(monos, target.terms(p)), False))
            out.extend(place(ring.field, blocks, len(monos)))
        return out

    def left_action(self, pairs, cols, d, n):
        """The columns of p * (b e_s) for each basis vector (s, b) of pairs,
        at codegree n, from cols[k] = (b * p) e_s, p of codegree d:
        p * (b e_s) = (-1)^(d |b|) (b * p) e_s with |b| = n - shift_s.
        Only an odd-signed p negates, in the slots where |b| is odd, so
        over GF(2) and for an even p the columns come back as they are."""
        ring = self.ring
        if not (ring.signed and d % 2):
            return cols
        neg = ring.field.neg
        return [{k: neg(x) for k, x in c.items()} if (n - self.shifts[s]) % 2 else c
                for (s, _), c in zip(pairs, cols)]

    def generator_columns(self, j, a):
        """x_j times each basis vector of codegree a, as coordinates at
        codegree a + |x_j|: per slot the ring's generator_products at its
        offset, with the sign of left_action."""
        ring = self.ring
        d = ring.codegrees[j]
        cols = []
        for s, off in zip(self.shifts, self.offsets(a + d)):
            part = ring.generator_products(j, a - s)
            cols.extend(place(ring.field, [(off, part, False)], len(part)))
        return self.left_action(self.basis(a), cols, d, a)

    def scalar_columns(self, poly):
        """The columns of poly times the identity: {j: poly} for each j."""
        return [{j: poly} for j in range(self.rank)]

    def element_of(self, coords, n):
        """Inverse of coords_of: coordinates (a list, a {position: value}
        dict or, over GF(2), an int) -> polynomial vector {slot: poly}."""
        z = self.ring.field.zero()
        basis = self.basis(n)
        element = {}
        if isinstance(coords, int):
            coords = dict.fromkeys(bits(coords), 1)
        for pos, c in (coords.items() if isinstance(coords, dict) else enumerate(coords)):
            if c != z:
                j, mono = basis[pos]
                element.setdefault(j, {})[mono] = c
        return element

    def min_degree(self):
        return min(self.shifts) if self.shifts else 0


class PolyMatrix:
    """Homogeneous map of graded free modules, entries in the ring.

    columns[j] is the image of source generator j, a polynomial vector
    {target slot i: nonzero poly}; entry (i, j) must be homogeneous of
    codegree source.shifts[j] - target.shifts[i].  The target may also be
    a GradedModule (a map onto M), read through its generators' slots.
    """

    def __init__(self, target, source: FreeModule, columns):
        if target.ring is not source.ring:
            raise PresentationError("matrix between modules over different rings")
        self.ring = target.ring
        self.target = target
        self.source = source
        self.columns = [{i: dict(p) for i, p in col.items() if p} for col in columns]
        if len(self.columns) != source.rank or any(
                not 0 <= i < len(target.shifts) for col in self.columns for i in col):
            raise PresentationError("polynomial matrix shape mismatch")
        for j, col in enumerate(self.columns):
            for i, e in col.items():
                d = self.ring.poly_codegree(e)
                if d != source.shifts[j] - target.shifts[i]:
                    raise PresentationError(
                        f"entry ({i},{j}) has codegree {d}, expected "
                        f"{source.shifts[j] - target.shifts[i]}")
        self._at_cache = {}

    def matrix_at(self, n) -> Matrix:
        """The induced linear map source^n -> target^n in quotient coordinates."""
        if n in self._at_cache:
            return self._at_cache[n]
        cols = self.target.images(self.source.basis(n), self.columns, n)
        m = Matrix.from_columns(self.ring.field, cols, self.target.dim(n))
        self._at_cache[n] = m
        return m

    def columns_times(self, other: "PolyMatrix"):
        """Columns of the product self . other (other feeds into self).

        Entry (i, j) sums other's entry times self's, in that order: a
        module map sends r * e_j to r * column j."""
        ring = self.ring
        out = []
        for col in other.columns:
            acc = {}
            for k, y in col.items():
                for i, x in self.columns[k].items():
                    acc[i] = ring.padd(acc.get(i, {}), ring.pmul(y, x))
            out.append({i: p for i, p in acc.items() if p})
        return out

    def compose(self, other: "PolyMatrix") -> "PolyMatrix":
        """self o other (other feeds into self)."""
        if other.target is not self.source and other.target.shifts != self.source.shifts:
            raise PresentationError("composition shape mismatch")
        return PolyMatrix(self.target, other.source, self.columns_times(other))

    def is_zero_on(self, degrees):
        """True if the induced map vanishes at every listed codegree."""
        return all(self.matrix_at(n).is_zero() for n in degrees)

    def min_entries_positive(self):
        """Minimality: no entry has a codegree-0 (unit) component."""
        return all(self.source.shifts[j] != self.target.shifts[i]
                   for j, col in enumerate(self.columns) for i in col)


class GradedModule:
    """Finitely presented graded module: coker of a map of free modules.
    Relation columns come in as one poly per generator, as in module files."""

    def __init__(self, ring: GradedRing, gen_shifts, rel_columns=None):
        self.ring = ring
        self.gen_shifts = tuple(int(s) for s in gen_shifts)
        self.free = FreeModule(ring, self.gen_shifts)
        cols = []
        for col in (rel_columns or []):
            if len(col) != len(self.gen_shifts):
                raise PresentationError("relation column length mismatch")
            col = {j: p for j, p in enumerate(map(ring._validated_poly, col)) if p}
            degs = {ring.poly_codegree(p) + self.gen_shifts[j] for j, p in col.items()}
            if len(degs) > 1:
                raise PresentationError(
                    f"relation column is not homogeneous: codegrees {sorted(degs)}")
            if degs:
                cols.append((degs.pop(), col))
        self.rel_columns = cols  # [(codegree, {slot: poly})]
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
        # the basis monomials of R^(n-d) span it, so their multiples of a
        # relation span what all monomial multiples do
        pairs = [(k, mono) for k, (d, _) in enumerate(self.rel_columns)
                 for mono in ring.component(n - d).basis]
        span.extend(self.free.images(pairs, [col for _, col in self.rel_columns], n))
        comp = ModuleComponent(self, n, free_basis, span)
        self._component_cache[n] = comp
        return comp

    def dim(self, n):
        return self.component(n).dim

    def hilbert_prefix(self, n_max, n_min=0):
        return [self.dim(n) for n in range(n_min, n_max + 1)]

    def min_degree(self):
        return min(self.gen_shifts) if self.gen_shifts else 0

    def presentation_codegree(self):
        """The largest codegree of a generator or a relation column."""
        return max([*self.gen_shifts, *(d for d, _ in self.rel_columns)], default=0)

    @property
    def shifts(self):
        """The generators' codegrees, read by a PolyMatrix into M."""
        return self.gen_shifts

    def images(self, pairs, columns, n):
        """FreeModule.images on the generators' slots, in M's quotient
        coordinates at codegree n."""
        return self.component(n).reduce_all(self.free.images(pairs, columns, n))

    def element_of(self, coords, n):
        """A polynomial vector {slot: poly} representing quotient
        coordinates at codegree n."""
        return self.free.element_of(self.component(n).lift(coords), n)

    def generator_columns(self, j, a):
        """x_j times each basis vector of M_a, in the quotient coordinates
        of M_(a+|x_j|): the free module's generator_columns at the basis
        positions, reduced."""
        cols = self.free.generator_columns(j, a)
        return self.component(a + self.ring.codegrees[j]).reduce_all(
            [cols[c] for c in self.component(a).positions])

    def mult_columns(self, poly, n):
        """Multiplication by a homogeneous polynomial, M^n -> M^(n+|poly|),
        as its columns: poly times each basis vector of M^n, acting on the
        left (FreeModule.left_action), in the quotient coordinates of
        M^(n+|poly|) and the field's format.  The basis vectors of each
        slot are multiplied in one batch (see images)."""
        d = self.ring.poly_codegree(poly)
        basis = self.component(n).basis
        return self.free.left_action(
            basis, self.images(basis, self.free.scalar_columns(poly), n + d), d, n)

    def mult_matrix(self, poly, n) -> Matrix:
        """Multiplication by a homogeneous polynomial: M^n -> M^(n+|poly|)."""
        return Matrix.from_columns(self.ring.field, self.mult_columns(poly, n),
                                   self.dim(n + self.ring.poly_codegree(poly)))


class ModuleComponent:
    """One codegree of a finitely presented module, with reduction."""

    def __init__(self, module, n, free_basis, span):
        self.module = module
        self.n = n
        self.free_basis = free_basis
        self._span = span
        self.positions = span.nonpivot_columns()  # the basis in free coordinates
        self.basis = [free_basis[c] for c in self.positions]
        self.dim = len(self.basis)

    def reduce(self, free_coords):
        """Free-module coordinates -> module quotient coordinates."""
        return self._span.quotient_coords(free_coords)

    def reduce_all(self, cols):
        """reduce on each of a list of free-module vectors in the field's
        format; with no relation here they are their own coordinates."""
        if not self._span.dim:
            return cols
        return list(map(self._span.quotient_coords, cols))

    def lift(self, coords):
        """Quotient coordinates -> a representative in free coordinates,
        both in the field's format."""
        if isinstance(coords, int):
            out = 0
            for k in bits(coords):
                out |= 1 << self.positions[k]
            return out
        return {self.positions[k]: x for k, x in coords.items()}
