"""Koszul complexes on a sequence of homogeneous elements, their homology
in a codegree window, and the regular-sequence test.

The complex on elements a_1, ..., a_c acting on a module M has i-th term
a direct sum of copies of M indexed by size-i subsets S, shifted by the
total codegree of {a_j : j in S}.  The differential removes one index at
a time with the usual alternating sign.
"""

from __future__ import annotations

from itertools import combinations

from .linalg import Matrix
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
            d = ring.poly_codegree(a)
            if d is None or d < 1:
                raise KoszulError("Koszul elements must be homogeneous of codegree >= 1")
            self.codegrees.append(d)
        self.c = len(self.elements)
        self.subsets = [list(combinations(range(self.c), i)) for i in range(self.c + 1)]
        self._diff_cache = {}

    def term_shifts(self, i):
        """Codegree shifts of the rank-C(c,i) term in homological degree i."""
        return [sum(self.codegrees[j] for j in S) for S in self.subsets[i]]

    def term_sizes(self, i, n):
        """Dimension of each summand of the degree-n slice of term i."""
        return [self.module.dim(n - s) for s in self.term_shifts(i)]

    def term_dim(self, i, n):
        return sum(self.term_sizes(i, n))

    def differential(self, i, n) -> Matrix:
        """The degree-n slice of d_i: K_i -> K_{i-1} (codegree preserved)."""
        key = (i, n)
        if key in self._diff_cache:
            return self._diff_cache[key]
        tgt_index = {S: k for k, S in enumerate(self.subsets[i - 1])}
        blocks = {}
        for k, (S, s) in enumerate(zip(self.subsets[i], self.term_shifts(i))):
            for pos, l in enumerate(S):
                T = tuple(x for x in S if x != l)
                mm = self.module.mult_matrix(self.elements[l], n - s)
                blocks[tgt_index[T], k] = (-1 if pos % 2 else 1, mm)
        m = Matrix.from_blocks(self.ring.field, self.term_sizes(i - 1, n),
                               self.term_sizes(i, n), blocks)
        self._diff_cache[key] = m
        return m

    def check_complex(self, degrees):
        for i in range(2, self.c + 1):
            for n in degrees:
                if not self.differential(i - 1, n).mul(self.differential(i, n)).is_zero():
                    return False
        return True

    def homology_dim(self, i, n):
        """dim H_i of the complex in codegree n."""
        if i < 0 or i > self.c:
            return 0
        dim_i = self.term_dim(i, n)
        rank_in = self.differential(i + 1, n).rank() if i < self.c else 0
        rank_out = self.differential(i, n).rank() if i > 0 else 0
        return dim_i - rank_in - rank_out


def koszul_homology(ring, elements, degrees, module=None):
    """dims[i][n] for the Koszul homology of the elements on the module."""
    K = KoszulComplex(ring, elements, module)
    return {i: {n: K.homology_dim(i, n) for n in degrees} for i in range(K.c + 1)}


def is_regular_sequence(ring, elements, codegree_max=24, module=None):
    """True when all positive Koszul homology vanishes in the window.

    Returns (verdict, detail).  verdict is True, False, or None when the
    window is too small to see every potential homology class (the terms
    stop being supported inside it).
    """
    K = KoszulComplex(ring, elements, module)
    lo = K.module.min_degree()
    degrees = range(lo, codegree_max + 1)
    for i in range(1, K.c + 1):
        for n in degrees:
            h = K.homology_dim(i, n)
            if h:
                return False, {"i": i, "n": n, "dim": h}
    # if the module has finite total dimension inside the window and every
    # shifted copy died out, the verdict is exact; otherwise only a window check
    top_shift = max(K.term_shifts(K.c), default=0)
    vanished = all(K.module.dim(n) == 0
                   for n in range(codegree_max - top_shift + 1, codegree_max + 1))
    if vanished:
        return True, None
    return None, {"window": codegree_max}
