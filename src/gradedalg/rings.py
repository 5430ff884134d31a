"""Finitely presented graded-commutative rings over an exact field.

Generators carry positive codegrees; relations are homogeneous
polynomials in the generators.  Monomials are exponent tuples in the
fixed generator order.  Sign conventions: in characteristic 2 everything
is strictly commutative; otherwise odd-codegree generators anticommute
and square to zero (extra relations may of course be supplied).

Degreewise data comes from spanning-set elimination over the monomial
basis: the codegree-n piece of the relation ideal is spanned by
{m * f : f a relation, m a monomial with |m| + |f| = n}.
"""

from __future__ import annotations

from operator import add

from .linalg import RowSpace


class PresentationError(ValueError):
    pass


class GradedRing:
    def __init__(self, field, generators, relations=None):
        """generators: list of (name, codegree); relations: list of monomial dicts."""
        self.field = field
        self.gens = [(str(n), int(d)) for n, d in generators]
        if len({n for n, _ in self.gens}) != len(self.gens):
            raise PresentationError("generator names must be distinct")
        for n, d in self.gens:
            if d < 1:
                raise PresentationError(f"generator {n} must have codegree >= 1")
        self.gen_index = {n: i for i, (n, _) in enumerate(self.gens)}
        self.codegrees = tuple(d for _, d in self.gens)
        self.ngens = len(self.gens)
        # odd-degree generators pick up signs except in characteristic 2
        self.signed = field.char != 2
        self.odd = tuple(d % 2 == 1 and self.signed for d in self.codegrees)
        # the odd-signed generators, last first (mono_mul's sign scan)
        self._odd_desc = tuple(i for i in reversed(range(self.ngens)) if self.odd[i])
        self._suffix_cache = {}  # (generator index, codegree) -> monomial suffixes
        self._component_cache = {}
        self._generator_tables = {}  # (generator, codegree) -> times_table
        self.relations = []
        for rel in (relations or []):
            rel = self._validated_poly(rel)
            if not rel:
                continue
            self.poly_codegree(rel)  # homogeneity check
            self.relations.append(rel)

    # -- polynomial arithmetic ----------------------------------------
    # A polynomial is a dict: exponent tuple -> nonzero scalar.

    def _validated_poly(self, p):
        z = self.field.zero()
        out = {}
        for mono, c in p.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != self.ngens or any(e < 0 for e in mono):
                raise PresentationError(f"bad monomial {mono}")
            c = self.field.validate(c)
            if c != z:
                out[mono] = c
        return out

    def pconst(self, n):
        c = self.field.from_int(n) if isinstance(n, int) else self.field.validate(n)
        if c == self.field.zero():
            return {}
        return {(0,) * self.ngens: c}

    def gen_poly(self, i):
        mono = tuple(1 if j == i else 0 for j in range(self.ngens))
        return {mono: self.field.one()}

    def padd(self, p, q):
        F = self.field
        z = F.zero()
        out = dict(p)
        for m, c in q.items():
            s = F.add(out.get(m, z), c)
            if s == z:
                out.pop(m, None)
            else:
                out[m] = s
        return out

    def pneg(self, p):
        F = self.field
        return {m: F.neg(c) for m, c in p.items()}

    def psub(self, p, q):
        return self.padd(p, self.pneg(q))

    def pscale(self, c, p):
        F = self.field
        z = F.zero()
        if c == z:
            return {}
        return {m: F.mul(c, v) for m, v in p.items()}

    def mono_codegree(self, mono):
        return sum(e * d for e, d in zip(mono, self.codegrees))

    def mono_mul(self, m1, m2):
        """Product of monomials: (sign, monomial) or (0, None) if it dies."""
        prod = tuple(map(add, m1, m2))
        if not self._odd_desc:
            return 1, prod
        # moving odd factors of m2 leftwards past odd factors of m1 to their right
        swaps = later = 0
        for i in self._odd_desc:
            if prod[i] >= 2:
                return 0, None
            swaps += m2[i] * later
            later += m1[i]
        return (-1 if swaps % 2 else 1), prod

    def mono_times_poly(self, mono, p):
        # multiplying by one monomial is injective, so no two terms meet
        if not self._odd_desc:
            return {tuple(map(add, mono, m)): c for m, c in p.items()}
        neg = self.field.neg
        out = {}
        for m, c in p.items():
            sign, prod = self.mono_mul(mono, m)
            if prod is not None:
                out[prod] = c if sign == 1 else neg(c)
        return out

    def pmul(self, p, q):
        out = {}
        for m, c in p.items():
            out = self.padd(out, self.pscale(c, self.mono_times_poly(m, q)))
        return out

    def ppow(self, p, n):
        out = self.pconst(1)
        base = p
        while n:
            if n & 1:
                out = self.pmul(out, base)
            base = self.pmul(base, base)
            n >>= 1
        return out

    def poly_codegree(self, p):
        """Codegree of a homogeneous polynomial (raises if mixed)."""
        degs = {self.mono_codegree(m) for m in p}
        if not degs:
            return 0
        if len(degs) > 1:
            raise PresentationError(f"polynomial is not homogeneous: codegrees {sorted(degs)}")
        return degs.pop()

    # -- monomial bases -------------------------------------------------

    def monomials(self, n):
        """All monomials of codegree n (odd generators capped at exponent 1),
        in lexicographic order of their exponent tuples."""
        if n < 0:
            return []
        return self._suffixes(0, n)

    def _suffixes(self, i, r):
        """The exponent tuples of generators i, i+1, ... of total codegree r,
        each list built once from those of generator i + 1."""
        key = (i, r)
        if key not in self._suffix_cache:
            if i == self.ngens:
                out = [()] if r == 0 else []
            else:
                d = self.codegrees[i]
                emax = min(r // d, 1) if self.odd[i] else r // d
                out = [(e,) + rest for e in range(emax + 1)
                       for rest in self._suffixes(i + 1, r - e * d)]
            self._suffix_cache[key] = out
        return self._suffix_cache[key]

    # -- degreewise components -------------------------------------------

    def component(self, n):
        """The codegree-n piece of the quotient ring."""
        if n in self._component_cache:
            return self._component_cache[n]
        monos = self.monomials(n)
        index = {m: i for i, m in enumerate(monos)}
        span = RowSpace(self.field, len(monos))
        for rel in self.relations:
            d = self.mono_codegree(next(iter(rel)))
            if d > n:
                continue
            for m in self.monomials(n - d):
                prod = self.mono_times_poly(m, rel)
                if prod:
                    span.insert({index[mono]: c for mono, c in prod.items()})
        comp = RingComponent(self, n, monos, index, span)
        self._component_cache[n] = comp
        return comp

    def times_table(self, p, a):
        """{b: sparse coordinates in R_(a+|p|) of b * p} for the basis monomials
        b of R_a, each entry computed on its first lookup.

        b multiplies on the left, which fixes the signs of odd generators.
        Only the tables of the generators are kept here: every free module,
        resolution stage and module over the ring reuses them.
        """
        gen = self._generator_of(p)
        if gen is not None and (gen, a) in self._generator_tables:
            return self._generator_tables[gen, a]
        table = _TimesTable(self, p, self.component(a + self.poly_codegree(p)))
        if gen is not None:
            self._generator_tables[gen, a] = table
        return table

    def _generator_of(self, p):
        """The index i when p is the generator x_i itself, else None."""
        if len(p) == 1:
            (mono, c), = p.items()
            if sum(mono) == 1 and c == self.field.one():
                return mono.index(1)
        return None

    def dim(self, n):
        return self.component(n).dim

    def hilbert_prefix(self, n_max):
        return [self.dim(n) for n in range(n_max + 1)]

    def quotient_with(self, extra_relations):
        """New ring with additional relations appended."""
        return GradedRing(self.field, self.gens, self.relations + list(extra_relations))

    def is_polynomial(self):
        return not self.relations

    def __repr__(self):
        gens = ", ".join(f"{n}[{d}]" for n, d in self.gens)
        return f"GradedRing({self.field!r}; {gens}; {len(self.relations)} relations)"


class _TimesTable(dict):
    """GradedRing.times_table: b -> coordinates of b * p, filled on lookup."""

    __slots__ = ("ring", "p", "target")

    def __init__(self, ring, p, target):
        super().__init__()
        self.ring, self.p, self.target = ring, p, target

    def __missing__(self, b):
        coords = self[b] = self.target.reduce_poly(self.ring.mono_times_poly(b, self.p))
        return coords


class RingComponent:
    """Exact basis and reduction data for one codegree of a quotient ring."""

    def __init__(self, ring, n, monos, index, span):
        self.ring = ring
        self.n = n
        self.monomials_all = monos
        self.index = index
        self._span = span
        self.basis = [monos[c] for c in span.nonpivot_columns()]
        self.dim = len(self.basis)

    def reduce_poly(self, p):
        """Coordinates {basis position: value} of a codegree-n polynomial."""
        index = self.index
        return self._span.quotient_coords({index[mono]: c for mono, c in p.items()})


def polynomial_ring(field, names_degrees):
    """Convenience: free graded-commutative ring (no relations)."""
    return GradedRing(field, names_degrees, [])
