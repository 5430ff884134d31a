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
complex of localcoh is the colimit of these transitions.

The Koszul chain complex has K_i = sum_{|S| = i} M(-sum_{j in S} |a_j|)
and a differential that removes one index.  It is self-dual: chain degree
i in codegree n is cochain degree c - i of the level-1 slice in codegree
n - sum_j |a_j|, summand S being the cochain summand on the complement of
S.  The two differentials agree up to the sign (-1)^(sum of the indices
in S) on each summand, so they have the same ranks, and homology_dim
reads Koszul homology off that slice.
"""

from __future__ import annotations

from itertools import combinations

from .linalg import Matrix, unit_vector
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
        self.c = len(self.elements)
        self.subsets = [list(combinations(range(self.c), i)) for i in range(self.c + 1)]
        self._powers = {}   # e -> a^e
        self._blocks = {}   # (e, m) -> Matrix or None
        self._ones = {}     # chain codegree n -> its level-1 cochain slice

    def block(self, e, m):
        """Multiplication by a^e = prod_j a_j^(e_j) from module codegree m.

        e is an exponent vector on the elements.  Every differential and
        transition block of every slice is one of these, built once.  The
        factors of a^e are multiplied in increasing j, which fixes the
        signs of odd elements.  A zero power (a nilpotent raised past its
        order) gives None, a missing block.
        """
        if (e, m) not in self._blocks:
            if e not in self._powers:
                p = self.ring.pconst(1)
                for a, k in zip(self.elements, e):
                    if k:
                        p = self.ring.pmul(p, self.ring.ppow(a, k))
                self._powers[e] = p
            p = self._powers[e]
            self._blocks[e, m] = self.module.mult_matrix(p, m) if p else None
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
        s, j = self._ones[n], self.c - i
        rank_in = s.differential(j - 1).rank() if j > 0 else 0
        rank_out = s.differential(j).rank() if j < self.c else 0
        return s.term_dim(j) - rank_in - rank_out


class _CochainSlice:
    """One codegree of the cochain complex at one level; blocks come from
    the KoszulComplex K that made it."""

    def __init__(self, K, levels, n):
        self.K = K
        self.levels = tuple(levels)
        self.n = n
        self._diffs = {}

    def subset_degree(self, S):
        return self.n + sum(self.levels[j] * self.K.codegrees[j] for j in S)

    def sizes(self, i):
        """Dimension of each summand of cochain degree i."""
        return [self.K.module.dim(self.subset_degree(S)) for S in self.K.subsets[i]]

    def term_dim(self, i):
        return sum(self.sizes(i))

    def differential(self, i) -> Matrix:
        """The map from cochain degree i to i + 1."""
        if i in self._diffs:
            return self._diffs[i]
        K = self.K
        tgt_index = {S: k for k, S in enumerate(K.subsets[i + 1])}
        blocks = {}
        for k, S in enumerate(K.subsets[i]):
            for l in range(K.c):
                if l in S:
                    continue
                e = tuple(self.levels[l] if j == l else 0 for j in range(K.c))
                block = K.block(e, self.subset_degree(S))
                if block is None:
                    continue
                T = tuple(sorted(S + (l,)))
                sign = -1 if sum(1 for x in S if x < l) % 2 else 1
                blocks[tgt_index[T], k] = (sign, block)
        m = Matrix.from_blocks(K.ring.field, self.sizes(i + 1), self.sizes(i), blocks)
        self._diffs[i] = m
        return m

    def cocycles(self, i):
        """A basis of the kernel of the differential out of cochain degree i,
        as vectors in the field's format; at the top degree, where every
        cochain is a cocycle, the unit vectors."""
        dim_i = self.term_dim(i)
        if dim_i == 0:
            return []
        if i < self.K.c:
            return self.differential(i).kernel_basis()
        return [unit_vector(self.K.ring.field, c) for c in range(dim_i)]

    def transition_to(self, other, i) -> Matrix:
        """Chain map slice induced by raising levels (multiply by the gaps)."""
        K = self.K
        blocks = {}
        for k, S in enumerate(K.subsets[i]):
            e = tuple(other.levels[j] - self.levels[j] if j in S else 0
                      for j in range(K.c))
            block = K.block(e, self.subset_degree(S))
            if block is not None:
                blocks[k, k] = (1, block)
        return Matrix.from_blocks(K.ring.field, other.sizes(i), self.sizes(i), blocks)


def koszul_homology(ring, elements, degrees, module=None):
    """dims[i][n] for the Koszul homology of the elements on the module."""
    K = KoszulComplex(ring, elements, module)
    return {i: {n: K.homology_dim(i, n) for n in degrees} for i in range(K.c + 1)}


def is_regular_sequence(ring, elements, codegree_max=24, module=None):
    """True when all positive Koszul homology vanishes in the window.

    Returns (verdict, detail).  verdict is True, False, or None when the
    window is too small to see every potential homology class (the terms
    stop being supported inside it, or it does not reach past every
    generator and relation of the module by the top shift).
    """
    K = KoszulComplex(ring, elements, module)
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
