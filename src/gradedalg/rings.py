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
        self._mono_cache = {}
        self._component_cache = {}
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
        sign = 1
        if self.signed:
            # moving odd factors of m2 leftwards past odd factors of m1
            swaps = 0
            for i in range(self.ngens):
                if not self.odd[i] or not m2[i]:
                    continue
                for j in range(i + 1, self.ngens):
                    if self.odd[j]:
                        swaps += m2[i] * m1[j]
            if swaps % 2:
                sign = -1
            for i in range(self.ngens):
                if self.odd[i] and m1[i] + m2[i] >= 2:
                    return 0, None
        return sign, tuple(a + b for a, b in zip(m1, m2))

    def mono_times_poly(self, mono, p):
        F = self.field
        out = {}
        z = F.zero()
        for m, c in p.items():
            sign, prod = self.mono_mul(mono, m)
            if prod is None:
                continue
            v = c if sign == 1 else F.neg(c)
            s = F.add(out.get(prod, z), v)
            if s == z:
                out.pop(prod, None)
            else:
                out[prod] = s
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

    def poly_str(self, p):
        if not p:
            return "0"
        parts = []
        for mono in sorted(p, reverse=True):
            c = p[mono]
            factors = []
            for (name, _), e in zip(self.gens, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = self.field.format(c)
            if factors:
                body = "*".join(factors)
                parts.append(body if cs == "1" else f"{cs}*{body}")
            else:
                parts.append(cs)
        return " + ".join(parts)

    # -- monomial bases -------------------------------------------------

    def monomials(self, n):
        """All monomials of codegree n (odd generators capped at exponent 1)."""
        if n < 0:
            return []
        if n in self._mono_cache:
            return self._mono_cache[n]
        out = []

        def rec(i, remaining, expo):
            if i == self.ngens:
                if remaining == 0:
                    out.append(tuple(expo))
                return
            d = self.codegrees[i]
            emax = remaining // d
            if self.odd[i]:
                emax = min(emax, 1)
            for e in range(emax + 1):
                expo.append(e)
                rec(i + 1, remaining - e * d, expo)
                expo.pop()

        rec(0, n, [])
        self._mono_cache[n] = out
        return out

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
        """Coordinates of a codegree-n polynomial in the quotient basis."""
        return self._span.quotient_coords({self.index[mono]: c for mono, c in p.items()})


def polynomial_ring(field, names_degrees):
    """Convenience: free graded-commutative ring (no relations)."""
    return GradedRing(field, names_degrees, [])
