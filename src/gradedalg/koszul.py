"""Koszul complexes on a sequence of homogeneous elements, their homology
in a codegree window, and the regular-sequence test.

KoszulComplex is the one construction of the Koszul complex on elements
a_1, ..., a_c acting on a module M.  It builds cochain slices at levels
s = (s_1, ..., s_c), the complex on a_1^(s_1), ..., a_c^(s_c).  Cochain
degree i is a direct sum of copies of M indexed by size-i subsets S, and
the codegree-n slice takes summand S from M in codegree
n + sum_{j in S} s_j |a_j|.  The differential adds one index l to S and
multiplies by a_l^(s_l) with sign (-1)^(number of indices of S below l).
Raising the levels multiplies summand S by the gap powers; the Cech
complex of localcoh is the colimit of these transitions.  Every map is
kept as its columns, each block of them GradedModule.mult_columns of a
power, placed at its target summand by linalg.place; ranks come from
eliminating those columns, so no map is ever turned into rows.

The Koszul chain complex has K_i = sum_{|S| = i} M(-sum_{j in S} |a_j|)
and a differential that removes one index.  It is self-dual: chain degree
i in codegree n is cochain degree c - i of the level-1 slice in codegree
n - sum_j |a_j|, summand S being the cochain summand on the complement of
S.  The two differentials agree up to the sign (-1)^(sum of the indices
in S) on each summand, so they have the same ranks, and homology_dim
reads Koszul homology off that slice.

KoszulComplex.regular is an exact certificate, computed once when first
asked, that needs no rank.  It holds when R = k[x_1, ..., x_c] is a
strictly commutative polynomial ring (no relation, no odd-signed
generator), M is free (no relation column), there are c = ngens elements
and R/(a_1, ..., a_c) has finite length.  The a_j are then a system of
parameters of the Cohen-Macaulay ring R, hence an R-regular sequence
(Bruns-Herzog, Cohen-Macaulay Rings, Thm 2.1.2; Matsumura, Commutative
Ring Theory, Thm 16.1) and so M-regular; every a^s is one too, as
(a^s) has the same radical.  Koszul cohomology below the length of a
regular sequence vanishes (Bruns-Herzog, Thm 1.6.17), so every slice has
H^i = 0 for i < c, and dim H^c is the Euler sum
sum_j (-1)^(c-j) term_dim(j) of its term dimensions.  Finite length is
read off R/(a) itself: R_n = sum_i x_i R_(n-|x_i|), so if R/(a) vanishes
in max|x_i| consecutive codegrees from N = max(1, sum|a_j| - sum|x_i| + 1)
it vanishes in all codegrees from N, and a system of parameters does, as
the Hilbert series of R/(a) is then the polynomial
prod_j (1 - t^|a_j|) / prod_i (1 - t^|x_i|) of degree N - 1.  Where the
certificate does not hold the ranks are eliminated as above, and where
it holds is_regular_sequence answers True without a window.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import accumulate, combinations

from .linalg import RowSpace, place
from .modules import GradedModule


class KoszulError(ValueError):
    pass


class KoszulComplex:
    def __init__(self, ring, elements, module: GradedModule = None):
        """elements: homogeneous polynomials of the ring, each of codegree >= 1."""
        self.ring = ring
        self.module = module if module is not None else GradedModule.ring_as_module(ring)
        if self.module.ring is not ring:
            raise KoszulError("module is over a different ring")
        self.elements = list(elements)
        self.codegrees = []
        for a in self.elements:
            degs = {ring.mono_codegree(m) for m in a}
            if len(degs) != 1 or min(degs) < 1:
                raise KoszulError("Koszul elements must be homogeneous of codegree >= 1")
            self.codegrees.append(degs.pop())
        if ring.signed and sum(d % 2 for d in self.codegrees) > 1:
            # odd elements anticommute, so the exterior differential on two
            # of them does not square to zero
            raise KoszulError("at most one odd-codegree element outside characteristic 2")
        self.c = len(self.elements)
        # degree c + 1 has no subsets, so the differential out of degree c is zero
        self.subsets = [list(combinations(range(self.c), i)) for i in range(self.c + 2)]
        self._powers = {}   # e -> a^e
        self._blocks = {}   # (e, m) -> columns or None
        self._ones = {}     # chain codegree n -> its level-1 cochain slice

    @cached_property
    def regular(self):
        """True when the elements are certified a regular sequence on M at
        every level (see the module docstring); False means only that no
        certificate was found."""
        ring, M = self.ring, self.module
        if (not ring.is_polynomial() or any(ring.odd) or M.rel_columns
                or self.c != ring.ngens):
            return False
        N = max(1, sum(self.codegrees) - sum(ring.codegrees) + 1)
        quotient = ring.quotient_with(self.elements)
        return all(quotient.dim(n) == 0 for n in range(N, N + max(ring.codegrees, default=0)))

    def block(self, e, m):
        """The columns of multiplication by a^e = prod_j a_j^(e_j) from
        module codegree m, e an exponent vector on the elements:
        GradedModule.mult_columns of the power.

        Every differential and transition block of every slice is one of
        these, built once.  a^e starts from its first nonzero factor and
        multiplies the others in increasing j, which fixes the signs of odd
        elements.  A zero power (a nilpotent raised past its order) gives
        None, a missing block.
        """
        if (e, m) not in self._blocks:
            if e not in self._powers:
                factors = [self.ring.ppow(a, k) for a, k in zip(self.elements, e) if k]
                self._powers[e] = (reduce(self.ring.pmul, factors) if factors
                                   else self.ring.pconst(1))
            p = self._powers[e]
            self._blocks[e, m] = self.module.mult_columns(p, m) if p else None
        return self._blocks[e, m]

    def drop_below(self, m):
        """Forget the blocks out of module codegrees below m."""
        self._blocks = {k: v for k, v in self._blocks.items() if k[1] >= m}

    def slice(self, levels, n):
        """The codegree-n slice of the cochain complex on a_j^(levels_j)."""
        return _CochainSlice(self, levels, n)

    def homology_dim(self, i, n):
        """dim H_i of the chain complex in codegree n."""
        if i < 0 or i > self.c:
            return 0
        if n not in self._ones:
            self._ones[n] = self.slice((1,) * self.c, n - sum(self.codegrees))
        return self._ones[n].cohomology_dim(self.c - i)


class _CochainSlice:
    """One codegree of the cochain complex at one level; blocks come from
    the KoszulComplex K that made it.  A map is the list of its columns in
    the field's vector format, one per basis vector of its source."""

    def __init__(self, K, levels, n):
        self.K = K
        self.levels = tuple(levels)
        self.n = n
        self._sizes = {}     # cochain degree -> summand sizes
        self._offsets = {}   # cochain degree -> {subset: its first coordinate}
        self._diffs = {}     # cochain degree -> columns of the differential out of it
        self._ranks = {}     # cochain degree -> rank of that differential

    def subset_degree(self, S):
        return self.n + sum(self.levels[j] * self.K.codegrees[j] for j in S)

    def sizes(self, i):
        """Dimension of each summand of cochain degree i."""
        if i not in self._sizes:
            self._sizes[i] = [self.K.module.dim(self.subset_degree(S))
                              for S in self.K.subsets[i]]
        return self._sizes[i]

    def offsets(self, i):
        """The first coordinate of each summand of cochain degree i, by subset."""
        if i not in self._offsets:
            self._offsets[i] = dict(zip(self.K.subsets[i], accumulate(self.sizes(i), initial=0)))
        return self._offsets[i]

    def term_dim(self, i):
        return sum(self.sizes(i))

    def differential(self, i):
        """The columns of the map from cochain degree i to i + 1: column k
        of summand S is the sum over l not in S of column k of a_l^(s_l)
        shifted to summand S + {l}, with sign (-1)^(indices of S below l)."""
        if i not in self._diffs:
            K = self.K
            targets = self.offsets(i + 1)
            cols = []
            for S, size in zip(K.subsets[i], self.sizes(i)):
                blocks = []
                for l in range(K.c):
                    e = tuple(self.levels[l] if j == l else 0 for j in range(K.c))
                    block = None if l in S else K.block(e, self.subset_degree(S))
                    if block is not None:
                        blocks.append((targets[tuple(sorted(S + (l,)))], block,
                                       sum(x < l for x in S) % 2))
                cols.extend(place(K.ring.field, blocks, size))
            self._diffs[i] = cols
        return self._diffs[i]

    def rank(self, i):
        """Rank of the differential out of cochain degree i."""
        if i not in self._ranks:
            span = RowSpace(self.K.ring.field, self.term_dim(i + 1))
            self._ranks[i] = span.extend(self.differential(i))
        return self._ranks[i]

    def cohomology_dim(self, i):
        """dim H^i of this slice: term_dim(i) - rank(i) - rank(i - 1), with
        no rank built where the term is zero.  On a certified regular
        sequence it is 0 below c and the Euler sum of the terms at c."""
        if self.K.regular:
            c = self.K.c
            return sum((-1) ** (c - j) * self.term_dim(j) for j in range(c + 1)) if i == c else 0
        dim = self.term_dim(i)
        return dim and dim - self.rank(i) - (self.rank(i - 1) if i > 0 else 0)

    def transition_to(self, other, i):
        """The columns of the chain map from cochain degree i of this slice
        to that of other, at levels as high: summand S is multiplied by the
        gap powers of its elements and shifted to its offset in other."""
        K = self.K
        cols = []
        for S, size in zip(K.subsets[i], self.sizes(i)):
            e = tuple(other.levels[j] - self.levels[j] if j in S else 0 for j in range(K.c))
            block = K.block(e, self.subset_degree(S))
            blocks = [] if block is None else [(other.offsets(i)[S], block, False)]
            cols.extend(place(K.ring.field, blocks, size))
        return cols


def koszul_homology(ring, elements, degrees, module=None):
    """dims[i][n] for the Koszul homology of the elements on the module."""
    K = KoszulComplex(ring, elements, module)
    return {i: {n: K.homology_dim(i, n) for n in degrees} for i in range(K.c + 1)}


def is_regular_sequence(ring, elements, codegree_max=24, module=None):
    """True when all positive Koszul homology vanishes in the window.

    Returns (verdict, detail).  verdict is True, False, or None when the
    window is too small to see every potential homology class (the terms
    stop being supported inside it, or it does not reach past every
    generator and relation of the module by the top shift).  Where
    KoszulComplex.regular certifies the sequence it is True with detail
    {"certificate": "regular"}, and no window is read.
    """
    K = KoszulComplex(ring, elements, module)
    if K.regular:
        return True, {"certificate": "regular"}
    degrees = range(K.module.min_degree(), codegree_max + 1)
    for i in range(1, K.c + 1):
        for n in degrees:
            h = K.homology_dim(i, n)
            if h:
                return False, {"i": i, "n": n, "dim": h}
    # if the window reaches the presentation by the top shift and every
    # shifted copy died out, the verdict is exact; otherwise only a window check
    top_shift = sum(K.codegrees)
    vanished = all(K.module.dim(n) == 0
                   for n in range(codegree_max - top_shift + 1, codegree_max + 1))
    if vanished and codegree_max - top_shift >= K.module.presentation_codegree():
        return True, None
    return None, {"window": codegree_max}
