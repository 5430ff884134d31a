"""Local cohomology of graded modules supported at a homogeneous ideal.

Two independent routes are provided.

cech_table computes the stable Koszul (Cech) cohomology as a colimit of
finite-level Koszul cochain complexes on powers of the ideal generators,
whose slices and multiplication blocks come from koszul.KoszulComplex.
Each degreewise dimension is reported with a "certified" flag: the rank
of the composite transition map between levels was equal over `window`
consecutive level steps.  That is a stopping rule, not a proof that the
colimit has stabilized.  Each rank is one elimination of columns: with
d the low differential out of degree i (r rows), T the transition and B
the high coboundaries, W is spanned by (0, b) for b in B, put in first,
and (d e_j, T e_j) for each basis vector e_j.  Pivots are least columns,
so those at or past r span W's part with d-part zero, T(ker d) + B, and
rank H^i(T) = dim W - #pivots below r - #coboundary pivots (= dim B).
Most of those ranks are zero, and provably so without W: H^i(T) maps
H^i of the low slice to H^i of the high one, so its rank is at most the
smaller of the two dimensions, term - rank out - rank in of each slice's
own differentials.  Where either is zero the rank is 0 and T is never
built; every rank, so every cell and flag, is the one W would give.
Where the KoszulComplex certifies the elements a regular sequence on M
(KoszulComplex.regular: M free over a polynomial ring in c variables and
R/(a) of finite length) no rank is eliminated at all.  H^i of every
slice is 0 for i < c and its term dimensions give H^c, and T is injective
on H^c: M/(a^s)M -> M/(a^t)M is multiplication by the gap powers, and
raising one exponent at a time it is injective because a_1 is regular on
M/(a_2^(s_2), ..., a_c^(s_c))M (homogeneous regular sequences are
permutable).  So the rank of each step is dim H^c of its low slice, and
a certified table builds no differential, block, power or transition.
The stopping rule runs on the same ranks, so the cells and flags are
those of the rank route; stopping_rule["regular_sequence"] says whether
the certificate held.

duality_table computes the same dimensions through graded duality over
a polynomial subring: H^i in codegree n has the dimension of
Ext^{d-i}(M, P) in codegree -n-sigma, with d the number of polynomial
generators and sigma their total codegree.  The Ext groups come from a
minimal free resolution and its dual complex.
"""

from __future__ import annotations

from .koszul import KoszulComplex, KoszulError
from .linalg import RowSpace
from .modules import FreeModule, PolyMatrix
from .resolution import minimal_resolution


class LocalCohomologyError(ValueError):
    pass


class CohomologyTable:
    def __init__(self, degrees, top, method, stopping_rule=None):
        self.degrees = list(degrees)
        self.top = top            # largest homological index carried
        self.method = method
        self.dims = {}            # (i, n) -> dimension of H^i in codegree n
        self.certified = {}       # (i, n) -> bool (rank window stabilized)
        # Cech: {"window": .., "stab_bound": .., "regular_sequence": ..}
        self.stopping_rule = stopping_rule

    def dim(self, i, n):
        return self.dims.get((i, n), 0)

    def set(self, i, n, value, certified=True):
        self.dims[(i, n)] = value
        self.certified[(i, n)] = certified

    def all_certified(self):
        return all(self.certified.values())

    def nonzero_indices(self):
        return sorted({i for (i, n), v in self.dims.items() if v})

    def __repr__(self):
        rows = ", ".join(f"H^{i}: {sum(v for (j, _), v in self.dims.items() if j == i)}"
                         for i in range(self.top + 1))
        return f"CohomologyTable({self.method}; {rows})"


def _induced_rank(low, high, i):
    """Rank of the map on degree-i cohomology induced by the transition T:
    dim W - #pivots below r - #coboundary pivots (see the module docstring).
    It is at most dim H^i at either end, so where one is zero it is 0 and
    nothing of T is built; the low end is tested first.  On a certified
    regular sequence T is injective on H^c, so the rank is low's dim H^i."""
    if low.K.regular:
        return low.cohomology_dim(i)
    if not low.cohomology_dim(i) or not high.cohomology_dim(i):
        return 0
    F = low.K.ring.field
    r = low.term_dim(i + 1)
    span = RowSpace(F, r + high.term_dim(i))
    if i > 0:
        span.extend(b << r if F.packed else {r + k: x for k, x in b.items()}
                    for b in high.differential(i - 1))
    base = span.dim
    span.extend(d | t << r if F.packed else {**d, **{r + k: x for k, x in t.items()}}
                for d, t in zip(low.differential(i), low.transition_to(high, i)))
    return span.dim - span.pivots_below(r) - base


def cech_table(module, elements, degrees=None, stab_bound=16, buffer=8,
               window=3) -> CohomologyTable:
    """Degreewise local cohomology at the ideal the elements generate, in
    each codegree n of degrees (over GF(2)[x], H^1 at (x) is 1 at n < 0).

    Each cell is the rank of the composite transition across two level
    steps, and it is marked certified once `window` consecutive level
    steps give equal ranks.  That is a stopping rule, not a proof that
    the colimit has stabilized.  Cells that never reach it inside
    stab_bound are reported with their last rank and certified=False.
    The table's stopping_rule records window, stab_bound and whether the
    elements were certified a regular sequence on the module, whose ranks
    come from term dimensions (see the module docstring).

    A step whose H^i is zero at the low or the high level has rank 0,
    as no map out of or into a zero space has more, so its transition
    is not built (see _induced_rank).  The ranks, the stopping rule and
    so the cells are exactly those of eliminating every transition.

    The slices come from one KoszulComplex per call, whose block cache
    builds each power of the elements and the columns of each
    multiplication block once for all slices, and goes when the call
    returns.  A slice is made when a step first reaches its level, and
    slices are dropped once their codegree n is done, blocks once their
    source codegree is below every n still to do.
    """
    try:
        K = KoszulComplex(module.ring, elements, module)
    except KoszulError as exc:
        raise LocalCohomologyError(f"ideal generators: {exc}") from exc
    if degrees is None:
        degrees = range(-20, 21)
    degrees = list(degrees)
    table = CohomologyTable(degrees, K.c, "cech",
                            {"window": window, "stab_bound": stab_bound,
                             "regular_sequence": K.regular})

    for k, n in enumerate(degrees):
        base = [max(1, -((n - buffer) // d)) for d in K.codegrees]
        # step t maps slice t, at levels base + t, to slice t + 2; a slice is
        # made when a step first reaches it and builds nothing until asked
        slices = []
        for i in range(K.c + 1):
            ranks = []
            for t in range(stab_bound):
                while len(slices) < t + 3:
                    slices.append(K.slice(tuple(b + len(slices) for b in base), n))
                ranks.append(_induced_rank(slices[t], slices[t + 2], i))
                if len(ranks) >= window and len(set(ranks[-window:])) == 1:
                    table.set(i, n, ranks[-1], True)
                    break
            else:
                table.set(i, n, ranks[-1], False)
        # a slice at codegree n uses blocks out of codegrees >= n only
        if k + 1 < len(degrees):
            K.drop_below(min(degrees[k + 1:]))
    return table


def _dual_complex(resolution):
    """Dual free complex Hom(F_i, P) with transposed differentials."""
    ring = resolution.module.ring
    duals = [FreeModule(ring, [-s for s in F.shifts]) for F in resolution.frees]
    dual_diffs = []
    for idx, d in enumerate(resolution.diffs):
        # Hom(F_idx, P) -> Hom(F_{idx+1}, P), matrix is the transpose
        columns = [{} for _ in range(d.target.rank)]
        for j, col in enumerate(d.columns):
            for i, p in col.items():
                columns[i][j] = p
        dual_diffs.append(PolyMatrix(duals[idx + 1], duals[idx], columns))
    return duals, dual_diffs


def ext_dims(module, h_max=None, codegree_max=48):
    """dims[j][m] of Ext^j(M, P) over a polynomial ring P, P as target.

    Only valid over rings without relations and without odd-signed
    generators (which square to zero), where minimal resolutions are
    finite; raises otherwise.
    """
    ring = module.ring
    if not ring.is_polynomial():
        raise LocalCohomologyError("Ext duality needs a polynomial base ring")
    odd = [name for (name, _), is_odd in zip(ring.gens, ring.odd) if is_odd]
    if odd:
        raise LocalCohomologyError(
            f"Ext duality needs a polynomial base ring: generator {odd[0]} has odd "
            f"codegree in characteristic {ring.field.char} and squares to zero")
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
    """Local cohomology at the irrelevant ideal via graded duality, over
    the polynomial rings that ext_dims accepts."""
    ring = module.ring
    if degrees is None:
        degrees = range(-20, 21)
    degrees = list(degrees)
    d = ring.ngens
    sigma = sum(ring.codegrees)
    # the window only probes Ext codegrees -n - sigma; keep the resolution
    # scan just big enough to cover them and witness completion, and never
    # below a generator or relation of the module
    needed = max(-n - sigma for n in degrees)
    top_shift = max(module.gen_shifts) if module.gen_shifts else 0
    codegree_max = max(max(needed, 0) + sigma + max(top_shift, 0) + 4,
                       module.presentation_codegree())
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
