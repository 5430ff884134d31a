"""Local cohomology of graded modules supported at a homogeneous ideal.

Two independent routes are provided.

cech_table computes the stable Koszul (Cech) cohomology as a colimit of
finite-level Koszul cochain complexes on powers of the ideal generators.
Each degreewise dimension comes with a stabilization certificate: the
rank of the composite transition map between levels must be constant
over a sliding window before the value is reported as exact.

duality_table computes the same dimensions through graded duality over
a polynomial subring: H^i in codegree n has the dimension of
Ext^{d-i}(M, P) in codegree -n-sigma, with d the number of polynomial
generators and sigma their total codegree.  The Ext groups come from a
minimal free resolution and its dual complex.
"""

from __future__ import annotations

from itertools import combinations

from .linalg import Matrix, RowSpace
from .modules import FreeModule, PolyMatrix
from .resolution import minimal_resolution


class LocalCohomologyError(ValueError):
    pass


class CohomologyTable:
    def __init__(self, degrees, top, method):
        self.degrees = list(degrees)
        self.top = top            # largest homological index carried
        self.method = method
        self.dims = {}            # (i, n) -> dimension
        self.certified = {}       # (i, n) -> bool (rank window stabilized)

    def dim(self, i, n):
        return self.dims.get((i, n), 0)

    def set(self, i, n, value, certified=True):
        self.dims[(i, n)] = value
        self.certified[(i, n)] = certified

    def all_certified(self):
        return all(self.certified.values())

    def row(self, i):
        return {n: self.dims[(i, n)] for n in self.degrees if (i, n) in self.dims}

    def nonzero_indices(self):
        return sorted({i for (i, n), v in self.dims.items() if v})

    def __repr__(self):
        rows = ", ".join(f"H^{i}: {sum(v for (j, _), v in self.dims.items() if j == i)}"
                         for i in range(self.top + 1))
        return f"CohomologyTable({self.method}; {rows})"


class _KoszulCochainSlice:
    """The codegree-n slice of the Koszul cochain complex on alpha_j^{s_j}."""

    def __init__(self, module, elements, codegrees, levels, n):
        self.module = module
        self.elements = elements
        self.codegrees = codegrees
        self.levels = tuple(levels)
        self.n = n
        c = len(elements)
        self.subsets = [list(combinations(range(c), i)) for i in range(c + 1)]
        self._diffs = {}

    def subset_degree(self, S):
        return self.n + sum(self.levels[j] * self.codegrees[j] for j in S)

    def sizes(self, i):
        """Dimension of each summand of cochain degree i."""
        return [self.module.dim(self.subset_degree(S)) for S in self.subsets[i]]

    def term_dim(self, i):
        return sum(self.sizes(i))

    def differential(self, i) -> Matrix:
        """The map from cochain degree i to i + 1."""
        if i in self._diffs:
            return self._diffs[i]
        ring = self.module.ring
        tgt_index = {S: k for k, S in enumerate(self.subsets[i + 1])}
        blocks = {}
        for k, S in enumerate(self.subsets[i]):
            for l in range(len(self.elements)):
                if l in S:
                    continue
                power = ring.ppow(self.elements[l], self.levels[l])
                if not power:
                    continue  # a nilpotent generator raised past its order
                T = tuple(sorted(S + (l,)))
                sign = -1 if sum(1 for x in S if x < l) % 2 else 1
                blocks[tgt_index[T], k] = (
                    sign, self.module.mult_matrix(power, self.subset_degree(S)))
        m = Matrix.from_blocks(ring.field, self.sizes(i + 1), self.sizes(i), blocks)
        self._diffs[i] = m
        return m

    def cocycles(self, i):
        """A basis of the kernel of the differential out of cochain degree i."""
        dim_i = self.term_dim(i)
        if dim_i == 0:
            return []
        if i < len(self.elements):
            return self.differential(i).kernel_basis()
        return Matrix.identity(self.module.ring.field, dim_i).rows

    def transition_to(self, other, i) -> Matrix:
        """Chain map slice induced by raising levels (multiply by the gaps)."""
        ring = self.module.ring
        blocks = {}
        for k, S in enumerate(self.subsets[i]):
            gap = ring.pconst(1)
            for j in S:
                delta = other.levels[j] - self.levels[j]
                if delta:
                    gap = ring.pmul(gap, ring.ppow(self.elements[j], delta))
            if gap:
                blocks[k, k] = (1, self.module.mult_matrix(gap, self.subset_degree(S)))
        return Matrix.from_blocks(ring.field, other.sizes(i), self.sizes(i), blocks)


def _induced_rank(low, high, i):
    """Rank of the map on degree-i cohomology induced by the transition."""
    kb_low = low.cocycles(i)
    if not kb_low:
        return 0
    T = low.transition_to(high, i)
    F = low.module.ring.field
    dim_high = high.term_dim(i)
    span = RowSpace(F, dim_high)
    if i > 0:
        d_prev = high.differential(i - 1)
        for j in range(d_prev.ncols):
            span.insert(d_prev.column(j))
    base = span.dim
    for v in kb_low:
        span.insert(T.apply(v))
    return span.dim - base


def cech_table(module, elements, degrees=None, stab_bound=16, buffer=8,
               window=3) -> CohomologyTable:
    """Degreewise local cohomology at the ideal the elements generate.

    Each cell is certified by computing the rank of the composite
    transition across two level steps and requiring `window` consecutive
    equal values.  Cells that never stabilize inside stab_bound are
    reported with their last rank and certified=False.
    """
    ring = module.ring
    elements = list(elements)
    codegs = []
    for a in elements:
        d = ring.poly_codegree(a)
        if d is None or d < 1:
            raise LocalCohomologyError("ideal generators must be homogeneous of codegree >= 1")
        codegs.append(d)
    if degrees is None:
        degrees = range(-20, 21)
    degrees = list(degrees)
    c = len(elements)
    table = CohomologyTable(degrees, c, "cech")
    slices = {}

    def get_slice(levels, n):
        key = (tuple(levels), n)
        if key not in slices:
            slices[key] = _KoszulCochainSlice(module, elements, codegs, levels, n)
        return slices[key]

    for n in degrees:
        base = [max(1, -((n - buffer) // d)) for d in codegs]
        for i in range(c + 1):
            ranks = []
            value = None
            certified = False
            for t in range(stab_bound):
                lo = get_slice([b + t for b in base], n)
                hi = get_slice([b + t + 2 for b in base], n)
                ranks.append(_induced_rank(lo, hi, i))
                if len(ranks) >= window and len(set(ranks[-window:])) == 1:
                    value = ranks[-1]
                    certified = True
                    break
            if value is None:
                value = ranks[-1]
            table.set(i, n, value, certified)
    return table


def _dual_complex(resolution):
    """Dual free complex Hom(F_i, P) with transposed differentials."""
    ring = resolution.module.ring
    duals = [FreeModule(ring, [-s for s in F.shifts]) for F in resolution.frees]
    dual_diffs = []
    for idx, d in enumerate(resolution.diffs):
        # Hom(F_idx, P) -> Hom(F_{idx+1}, P), matrix is the transpose
        entries = [[d.entries[j][i] for j in range(d.target.rank)]
                   for i in range(d.source.rank)]
        dual_diffs.append(PolyMatrix(duals[idx + 1], duals[idx], entries))
    return duals, dual_diffs


def ext_dims(module, h_max=None, codegree_max=48):
    """dims[j][m] of Ext^j(M, P) over a polynomial ring P, P as target.

    Only valid over rings without relations, where minimal resolutions
    are finite; raises otherwise.
    """
    ring = module.ring
    if not ring.is_polynomial():
        raise LocalCohomologyError("Ext duality needs a polynomial base ring")
    d = ring.ngens
    if h_max is None:
        h_max = d + 1  # one past the projective dimension bound, to witness the zero kernel
    res = minimal_resolution(module, h_max=h_max, codegree_max=codegree_max)
    if not res.betti.complete:
        raise LocalCohomologyError("resolution did not terminate inside the window")
    duals, dual_diffs = _dual_complex(res)

    def make_dim_at(j):
        def dim_at(m):
            term = duals[j].dim(m)
            if term == 0:
                return 0
            rank_out = dual_diffs[j].matrix_at(m).rank() if j < len(dual_diffs) else 0
            rank_in = dual_diffs[j - 1].matrix_at(m).rank() if j >= 1 else 0
            return term - rank_out - rank_in
        return dim_at

    return [make_dim_at(j) for j in range(len(duals))]


def duality_table(module, degrees=None) -> CohomologyTable:
    """Local cohomology at the irrelevant ideal via graded duality."""
    ring = module.ring
    if degrees is None:
        degrees = range(-20, 21)
    degrees = list(degrees)
    d = ring.ngens
    sigma = sum(ring.codegrees)
    # the window only probes Ext codegrees -n - sigma; keep the resolution
    # scan just big enough to cover them and witness completion
    needed = max(-n - sigma for n in degrees)
    top_shift = max(module.gen_shifts) if module.gen_shifts else 0
    codegree_max = max(needed, 0) + sigma + max(top_shift, 0) + 4
    ext = ext_dims(module, codegree_max=codegree_max)
    table = CohomologyTable(degrees, d, "duality")
    for i in range(d + 1):
        j = d - i
        fn = ext[j] if j < len(ext) else None
        for n in degrees:
            value = fn(-n - sigma) if fn is not None else 0
            table.set(i, n, value, certified=True)
    return table


def grothendieck_vanishing_check(table, dim_r, depth_e):
    """H^i = 0 outside [depth, dim]; H^depth and H^dim nonzero in the window."""
    problems = []
    for (i, n), v in table.dims.items():
        if v and (i < depth_e or i > dim_r):
            problems.append((i, n, v))
    seen = table.nonzero_indices()
    if depth_e not in seen:
        problems.append(("missing", depth_e, 0))
    if dim_r not in seen:
        problems.append(("missing", dim_r, 0))
    return (not problems), problems


def radical_invariance_check(module, gens_a, gens_b, degrees=None, **kw):
    """Tables for two generating sets with the same radical must agree."""
    ta = cech_table(module, gens_a, degrees, **kw)
    tb = cech_table(module, gens_b, degrees, **kw)
    top = max(ta.top, tb.top)
    for n in ta.degrees:
        for i in range(top + 1):
            if ta.dim(i, n) != tb.dim(i, n):
                return False, (i, n, ta.dim(i, n), tb.dim(i, n))
    return True, None


def gorenstein_duality_check(table, ring_dims, r, a, defect=0, degrees=None):
    """Top local cohomology against the shifted dual of the coefficient ring.

    ring_dims(n) gives dim R^n.  With defect 0 the check is
    dim H^r(n) = dim R^{-n-r-a}.  With defect 1 the paired shifted copy
    sits one homological step down:
    dim H^r(n) + dim H^{r-1}(n+1) = dim R^{-n-r-a}.
    """
    if degrees is None:
        degrees = table.degrees
    mism = []
    for n in degrees:
        expected = ring_dims(-n - r - a)
        if defect == 0:
            got = table.dim(r, n)
        elif defect == 1:
            if n + 1 not in table.degrees:
                continue
            got = table.dim(r, n) + table.dim(r - 1, n + 1)
        else:
            raise LocalCohomologyError("only defects 0 and 1 are supported")
        if got != expected:
            mism.append((n, got, expected))
    return (not mism), mism
