"""Finitely presented graded-commutative rings over an exact field.

Generators carry positive codegrees; relations are homogeneous
polynomials in the generators.  Monomials are exponent tuples in the
fixed generator order.  Sign conventions: in characteristic 2 everything
is strictly commutative; otherwise odd-codegree generators anticommute
and square to zero (extra relations may of course be supplied).

Degreewise data comes from spanning-set elimination over the monomial
basis: the codegree-n piece of the relation ideal is spanned by
{m * f : f a relation, m a monomial with |m| + |f| = n}.  Not every such
Macaulay row is tried.  A row's level is the least index of a generator
in m (infinity for m = 1), and each component records the rows that
enlarged its span.  Codegree n tries the relations of codegree n, then,
for j from the last generator down to the first, x_j times the recorded
rows of level >= j of codegree n - |x_j| (the Eliahou-Kervaire
multiplicative-variable rule); see RingComponent.

In a ring with no odd-signed generator, components and multiplication
tables work on monomial codes: one int per monomial, with a bit field per
generator exponent wide enough for codegree n (see GradedRing.code_width).
A product of monomials is then the sum of their codes, and over GF(2) a
row m * f enters RowSpace already packed, one bit per column.  Such a
component lists its codegree once, as codes (GradedRing.codes), and
decodes to exponent tuples only its basis, when first asked.  Rings with
odd-signed generators list exponent tuples and multiply them with
mono_times_poly, which tracks signs and odd squares.

Below the least codegree of a relation every monomial is a basis
element, so GradedRing.dim counts the monomials there and builds no
component.

RingComponent.columns is the one product route: a polynomial p times a
batch of monomials b, as the columns of each b * p.  It gives the
Macaulay rows, and through RingComponent.products, which reduces them
where relations reach, the coordinates of module images, multiplication
columns, reduce_poly and GradedRing.generator_products, b always on
the left (modules.FreeModule.signs signs them to act on modules).
Coordinates in a component's basis are vectors in the field's format
(see linalg): over GF(2) packed ints, bit k for basis position k; over
every other field sparse {position: value} dicts.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, mul

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
        # no sign or death in any product: components work on monomial codes
        self.coded = not self._odd_desc
        self._suffix_cache = {}  # (generator index, codegree) -> monomial suffixes
        self._code_cache = {}    # (generator index, codegree, field width) -> codes
        self._counts = []        # codegree -> number of monomials, see _count
        self._component_cache = {}
        self._generator_products = {}  # (generator, codegree) -> columns
        self.relations = []
        degrees = []
        for rel in (relations or []):
            rel = self._validated_poly(rel)
            if not rel:
                continue
            degrees.append(self.poly_codegree(rel))  # homogeneity check
            self.relations.append(rel)
        # below it every monomial is a basis element and dim counts them
        self._least_relation = min(degrees, default=float("inf"))

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

    def mono_codegree(self, mono):
        return sum(map(mul, mono, self.codegrees))

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
        """p * q, every term product summed into one dict."""
        F = self.field
        add, mul, z = F.add, F.mul, F.zero()
        out = {}
        for m, c in p.items():
            for prod, x in self.mono_times_poly(m, q).items():
                x = mul(c, x)
                old = out.get(prod)
                out[prod] = x if old is None else add(old, x)
        return {m: x for m, x in out.items() if x != z}

    def ppow(self, p, n):
        """p^n (n >= 0) as a fresh dict, from the squares p^(2^k), which
        over GF(2) stay as sparse as p; p^1 costs no product."""
        if n < 0:
            raise ValueError(f"exponent must be at least 0, got {n}")
        if n == 0:
            return self.pconst(1)
        base, out = p, None
        while True:
            if n & 1:
                out = dict(base) if out is None else self.pmul(out, base)
            n >>= 1
            if not n:
                return out
            base = self.pmul(base, base)

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

    def _count(self, n):
        """len(monomials(n)), not listing them: the coefficient of t^n in
        prod_i 1/(1 - t^|x_i|), with 1 + t^|x_i| for an odd-signed x_i,
        which is _suffixes' recursion on counts.  The coefficients are
        kept, and extended to at least twice as far when n is past them."""
        counts = self._counts
        if n >= len(counts):
            top = max(n, 2 * len(counts))
            counts = [1] + [0] * top
            for d, odd in zip(self.codegrees, self.odd):
                # times 1 + t^d, or 1/(1 - t^d) = 1 + t^d + t^(2d) + ...
                for r in range(top, d - 1, -1) if odd else range(d, top + 1):
                    counts[r] += counts[r - d]
            self._counts = counts
        return counts[n] if n >= 0 else 0

    def code_width(self, n):
        """Bits per exponent field in the monomial codes of codegree n.

        No exponent in codegree n exceeds n // (least generator codegree),
        and the field holds more than that, so adding the codes of two
        monomials whose codegrees sum to n never carries into the next field.
        """
        return (n // min(self.codegrees, default=1)).bit_length()

    def code(self, mono, w):
        """The monomial as one int, exponent fields w bits wide, the first
        generator's highest: int order is lex order of the exponent tuples,
        and the code of a product is the sum of the codes."""
        out = 0
        for e in mono:
            out = out << w | e
        return out

    def codes(self, n, w):
        """The codes at field width w of monomials(n), in their order
        (for a coded ring, which caps no exponent)."""
        return self._suffix_codes(0, n, w)

    def _suffix_codes(self, i, r, w):
        """The codes at width w of _suffixes(i, r), in their order, each
        list built once from those of generator i + 1."""
        key = (i, r, w)
        if key not in self._code_cache:
            if i == self.ngens:
                out = [0] if r == 0 else []
            else:
                d = self.codegrees[i]
                shift = w * (self.ngens - 1 - i)
                out = [(e << shift) + rest for e in range(r // d + 1)
                       for rest in self._suffix_codes(i + 1, r - e * d, w)]
            self._code_cache[key] = out
        return self._code_cache[key]

    def decode(self, codes, w):
        """The exponent tuples of monomials from their codes at field width w."""
        mask = (1 << w) - 1
        shifts = [w * i for i in reversed(range(self.ngens))]
        return [tuple([k >> s & mask for s in shifts]) for k in codes]

    def recode(self, code, w, w2):
        """A monomial's code at field width w as its code at width w2."""
        out, mask = 0, (1 << w) - 1
        for i in range(self.ngens):
            out |= (code >> w * i & mask) << w2 * i
        return out

    # -- degreewise components -------------------------------------------

    def component(self, n):
        """The codegree-n piece of the quotient ring."""
        if n not in self._component_cache:
            self._component_cache[n] = RingComponent(self, n)
        return self._component_cache[n]

    def generator_products(self, i, a):
        """The coordinates in R_(a+|x_i|) of b * x_i for each basis
        monomial b of R_a, in basis order: one RingComponent.products
        batch, made once and kept on the ring for every module and
        resolution stage over it.

        b multiplies on the left, as in every product of RingComponent;
        FreeModule.signs turns these columns into x_i * b.
        """
        cols = self._generator_products.get((i, a))
        if cols is None:
            target = self.component(a + self.codegrees[i])
            cols = self._generator_products[i, a] = target.products(
                self.component(a).basis, target.terms(self.gen_poly(i)))
        return cols

    def dim(self, n):
        """dim R_n.  Below the least relation codegree it is the number of
        monomials, counted without listing them or building a component."""
        if n < self._least_relation:
            return self._count(n)
        return self.component(n).dim

    def hilbert_prefix(self, n_max):
        """dim R_n for n = 0, ..., n_max; n_max must be at least 0."""
        if n_max < 0:
            raise ValueError(f"n_max must be at least 0, got {n_max}")
        return [self.dim(n) for n in range(n_max + 1)]

    def quotient_with(self, extra_relations):
        """New ring with additional relations appended."""
        return GradedRing(self.field, self.gens, self.relations + list(extra_relations))

    def is_polynomial(self):
        return not self.relations

    def __repr__(self):
        gens = ", ".join(f"{n}[{d}]" for n, d in self.gens)
        return f"GradedRing({self.field!r}; {gens}; {len(self.relations)} relations)"


class RingComponent:
    """Exact basis and reduction data for one codegree of a quotient ring.

    Its columns are the monomials of codegree n in lex order, spanned by
    the Macaulay rows m * f.  A monomial is known here by its key: in a
    coded ring (GradedRing.coded) its code at this codegree's field width,
    so that the key of b * m is the sum of the keys, and otherwise its
    exponent tuple, multiplied by mono_times_poly.  The columns are listed
    once, as keys; basis, the monomials of the non-pivot columns, is made
    (in a coded ring decoded) on first use, and dim needs no list.

    Not every row m * f is tried.  The level of a row is the least index
    of a generator in m, infinity for m = 1.  For each relation the
    component keeps the keys of the multipliers whose rows enlarged the
    span, in the order tried.  Codegree n tries the relations of codegree
    n, then, for j from the last generator down to the first, x_j * m * f
    for each kept row m * f of level >= j in codegree n - |x_j|.  So the
    levels never rise along the order.  The rows of one relation at one
    level go to RowSpace.extend in one call, whose positions say which
    multipliers to keep.

    These rows still span the relations' codegree-n piece.  Take a row
    mu * f and write mu = x_k * nu, k the least index in mu.  A rejected
    row lies in the span of the rows tried before it, whose levels are at
    least its own.  So, by induction on the codegree, the kept rows of
    level >= k span every mu * f whose least index is >= k, and x_k times
    those of codegree n - |x_k| span x_k * nu * f.  In a signed ring
    x_k * (nu * f) = +-(x_k nu) * f, and x_k^2 = 0 for an odd x_k, so
    such a product is skipped.  The span, and with it the pivots, the
    basis and every reduction, is that of all the rows.

    The component of codegree n - |x_j| is read only if it is already
    cached.  Otherwise level j tries every m of codegree n - |f| whose
    least index is j.  Building the missing components instead would do
    work no caller asked for: a Cech complex reads a few codegrees far
    apart, and their lower neighbours cost more than the rows they save.
    """

    def __init__(self, ring, n):
        self.ring = ring
        self.n = n
        self._width = w = ring.code_width(n) if ring.coded else None
        # the keys of the monomials of codegree n, in lex order: the columns
        self._keys = keys = ring.monomials(n) if w is None else ring.codes(n, w)
        self._index = None
        self._span = span = RowSpace(ring.field, len(keys))
        rels = [(r, ring.mono_codegree(next(iter(f))), f) for r, f in enumerate(ring.relations)]
        rels = [(r, d, self.terms(f)) for r, d, f in rels if d <= n]
        # per relation the kept multipliers' keys, and cuts[j][r]: how many
        # of them have level >= j (j = ngens for infinity).  They are read
        # only for a relation of codegree <= n, so with none here, as in a
        # polynomial ring, no level is visited.
        self._grown = grown = [[] for _ in ring.relations]
        self._cuts = cuts = [None] * (ring.ngens + 1)
        for j in range(ring.ngens, -1, -1) if rels else ():
            lower = ring._component_cache.get(n - ring.codegrees[j]) if j < ring.ngens else None
            for r, d, terms in rels:
                bs = self._multipliers(j, r, d, lower)
                if bs:
                    grown[r].extend(map(bs.__getitem__, span.extend(self.columns(bs, terms))))
            cuts[j] = tuple(map(len, grown))
        self.dim = len(keys) - span.dim

    @cached_property
    def basis(self):
        """The monomials (exponent tuples) of the non-pivot columns, in lex
        order: in a coded ring decoded from their codes.  Built on first
        use, so a component read only for its dimension never lists it."""
        keys = self._keys
        basis = [keys[c] for c in self._span.nonpivot_columns()]
        return basis if self._width is None else self.ring.decode(basis, self._width)

    def _multipliers(self, j, r, d, lower):
        """The keys of the multipliers of level j that relation r (of
        codegree d) tries here: x_j times its kept multipliers of level
        >= j in lower, the component of codegree n - |x_j|, or, with no
        lower, every monomial of codegree n - d whose least index is j.
        Level ngens is infinity: m = 1, for a relation of codegree n."""
        ring, w = self.ring, self._width
        if j == ring.ngens:
            return [0 if w is not None else (0,) * j] if d == self.n else []
        if d + ring.codegrees[j] > self.n:
            return []
        if lower is None:
            c = self.n - d
            if w is None:
                pad = (0,) * j
                return [pad + s for s in ring._suffixes(j, c)[len(ring._suffixes(j + 1, c)):]]
            return ring._suffix_codes(j, c, w)[len(ring._suffix_codes(j + 1, c, w)):]
        below = lower._grown[r][:lower._cuts[j][r]]
        if w is None:
            # below have no generator before j; an odd x_j squares to zero
            if ring.odd[j]:
                return [m[:j] + (1,) + m[j + 1:] for m in below if not m[j]]
            return [m[:j] + (m[j] + 1,) + m[j + 1:] for m in below]
        if lower._width != w:
            below = [ring.recode(k, lower._width, w) for k in below]
        return list(map((1 << w * (ring.ngens - 1 - j)).__add__, below))

    @property
    def index(self):
        """key -> column, built on first use: a component no product lands
        in, such as one of a polynomial ring read for its dimension, never
        needs it."""
        if self._index is None:
            self._index = {k: c for c, k in enumerate(self._keys)}
        return self._index

    def keys_of(self, monos):
        """The keys here of a list of monomials (exponent tuples)."""
        if self._width is None:
            return monos
        code, w = self.ring.code, self._width
        return [code(m, w) for m in monos]

    def terms(self, p):
        """p as columns() and products() take it: itself in a signed ring,
        else the keys of its monomials and their coefficients."""
        if self._width is None:
            return p
        return self.keys_of(p), list(p.values())

    def columns(self, bs, terms):
        """The columns of b * p here for each key b in bs, p given by its
        terms: over GF(2) ints with one bit per column, else {column:
        value} dicts.

        b * p lies in codegree n.  In a coded ring no two terms meet, as
        multiplying by a monomial is injective, so over GF(2) the bits
        are ORed in, one add, lookup and shift per term of p.
        """
        index = self.index
        if self._width is None:
            times = self.ring.mono_times_poly
            return [{index[m]: c for m, c in times(b, terms).items()} for b in bs]
        keys, coeffs = terms
        if not self._span.packed:
            return [dict(zip(map(index.__getitem__, map(b.__add__, keys)), coeffs))
                    for b in bs]
        out = []
        for b in bs:
            v = 0
            for k in keys:
                v |= 1 << index[b + k]
            out.append(v)
        return out

    def products(self, monos, terms):
        """The coordinates in the basis of b * p for each monomial b in
        monos (exponent tuples of one codegree), p given by its terms: the
        batched product kernel.  Where no relation reaches codegree n the
        columns are the coordinates; otherwise each product is reduced.
        """
        cols = self.columns(self.keys_of(monos), terms)
        if not self._span.dim:
            return cols
        return list(map(self._span.quotient_coords, cols))

    def reduce_poly(self, p):
        """Coordinates in the basis of a codegree-n polynomial."""
        if p and self.ring.poly_codegree(p) != self.n:
            raise PresentationError(f"polynomial is not of codegree {self.n}")
        return self.products([(0,) * self.ring.ngens], self.terms(p))[0]


def polynomial_ring(field, names_degrees):
    """Convenience: free graded-commutative ring (no relations)."""
    return GradedRing(field, names_degrees, [])
