"""Resolutions over a hypersurface R = S/(f).

A finite free resolution of M over the ambient ring S, together with a
system of higher null homotopies for multiplication by f, splices into
an R-free resolution that is eventually periodic of period 2.  For
modules of projective dimension 1 over S the data collapses to a matrix
factorization (A, B) with AB = BA = f * identity.
"""

from __future__ import annotations

from .koszul import KoszulComplex
from .modules import FreeModule, GradedModule, PolyMatrix
from .resolution import BettiTable, minimal_resolution


class HypersurfaceError(ValueError):
    pass


class HypersurfaceData:
    """Ambient polynomial ring S, nonzerodivisor f, quotient R = S/(f)."""

    def __init__(self, base, f, codegree_window=24):
        if not base.is_polynomial():
            raise HypersurfaceError("ambient ring must have no relations")
        if not f:
            raise HypersurfaceError("f must be nonzero")
        self.base = base
        self.f = f
        self.d = base.poly_codegree(f)
        # nonzerodivisor check: first Koszul homology of (f) on S vanishes
        K = KoszulComplex(base, [f])
        for n in range(0, codegree_window + 1):
            h = K.homology_dim(1, n)
            if h:
                raise HypersurfaceError(f"f is a zerodivisor (Koszul H_1 at codegree {n})")
        self.quotient = base.quotient_with([f])

    def transfer_module(self, module):
        """Reinterpret an S-module presentation over R = S/(f)."""
        return GradedModule(self.quotient, module.gen_shifts,
                            [[dict(p) for p in col] for _, col in module.rel_columns])


def _check_kills_module(h, module):
    for j, shift in enumerate(module.gen_shifts):
        col = module.mult_matrix(h.f, shift)
        comp_dim = module.dim(shift)
        if comp_dim == 0:
            continue
        # column of f * e_j inside the target component
        unit = module.free.scalar_columns(module.ring.pconst(1))[j]
        gen_coords = module.component(shift).reduce(module.free.coords_of(unit, shift))
        image = col.apply(gen_coords)
        if any(x != module.ring.field.zero() for x in image):
            raise HypersurfaceError("f does not annihilate the module")


def _solve_chain_map(target_diff, source_free, target_free, rhs, degree_raise):
    """Solve target_diff . X = rhs degreewise, one column per source generator.

    rhs holds the entries of a matrix whose column j is an element of
    target_diff's target free module at codegree source_free.shifts[j] +
    degree_raise.  Returns a PolyMatrix from the shifted source to
    target_free.
    """
    ring = source_free.ring
    shifted = FreeModule(ring, [s + degree_raise for s in source_free.shifts])
    cols = []
    for j, s in enumerate(source_free.shifts):
        n = s + degree_raise
        b = target_diff.target.coords_of([row[j] for row in rhs], n)
        sol = target_diff.matrix_at(n).solve(b)
        if sol is None:
            raise HypersurfaceError("null homotopy system is inconsistent")
        cols.append(target_free.element_of(sol, n))
    entries = [[cols[c][r] for c in range(len(cols))] for r in range(target_free.rank)]
    return PolyMatrix(target_free, shifted, entries)


class HomotopySystem:
    """d and the higher homotopies s_k for multiplication by f.

    s_k maps F_i to F_{i+2k-1} raising codegree by k*d, with
    sum over a+b=k of s_a s_b equal to f*id for k = 1 and 0 for k >= 2
    (s_0 = d).
    """

    def __init__(self, h, resolution):
        self.h = h
        self.res = resolution
        p = len(resolution.frees) - 1
        self.length = p
        # s[k][i]: F_i -> F_{i+2k-1}
        self.s = {}
        for k in range(1, p // 2 + 2):
            level = {}
            for i in range(0, p - 2 * k + 2):
                level[i] = self._solve_level(k, i, level)
            if not level:
                break
            self.s[k] = level

    def _diff(self, i):
        # d_i: F_i -> F_{i-1}
        return self.res.diffs[i - 1]

    def _solve_level(self, k, i, partial):
        ring = self.h.base
        src = self.res.frees[i]
        d_tgt = self._diff(i + 2 * k - 1)
        # d . s_k^{(i)} = f*id (k=1) - s_k^{(i-1)} d - sum_{a+b=k, a,b>=1} s_a s_b,
        # a map F_i -> F_{i+2k-2}; f*id is symmetric, so its columns are its rows
        if k == 1:
            rhs = src.scalar_columns(self.h.f)
        else:
            rhs = [[{} for _ in range(src.rank)] for _ in range(d_tgt.target.rank)]
        products = []
        if i > 0:
            products.append(partial[i - 1].entries_times(self._diff(i)))
        for a in range(1, k):
            b = k - a
            # s_a applied after s_b: F_i -> F_{i+2b-1} -> F_{i+2k-2}
            sb = self.s[b].get(i)
            sa = self.s[a].get(i + 2 * b - 1)
            if sb is not None and sa is not None:
                products.append(sa.entries_times(sb))
        for prod in products:
            rhs = [[ring.psub(x, y) for x, y in zip(row, prod_row)]
                   for row, prod_row in zip(rhs, prod)]
        return _solve_chain_map(d_tgt, src, self.res.frees[i + 2 * k - 1], rhs, k * self.h.d)

    def homotopy(self, k, i):
        """s_k restricted to F_i, or None when the target vanishes."""
        if k == 0:
            return self._diff(i)
        return self.s.get(k, {}).get(i)


def splice_periodic_resolution(h: HypersurfaceData, module, h_max=12,
                               codegree_max=24, check_window=None):
    """R-free resolution of M from its finite S-resolution.

    Returns (terms, diffs, betti): terms[j] is the j-th free R-module,
    built as the direct sum over i of copies of the S-resolution term
    F_{j-2i} shifted up by i*d.  The result is verified to be a complex
    and exact in positive homological degrees on the window.
    """
    _check_kills_module(h, module)
    # Hilbert's syzygy theorem: ngens + 1 stages resolve M over S, whatever h_max is
    res = minimal_resolution(module, h_max=max(h_max, module.ring.ngens + 1),
                             codegree_max=codegree_max)
    if not res.betti.complete:
        raise HypersurfaceError("module has no finite resolution inside the window")
    hs = HomotopySystem(h, res)
    R = h.quotient
    p = hs.length
    frees = res.frees

    def block_sources(j):
        out = []
        i = 0
        while j - 2 * i >= 0:
            if j - 2 * i <= p:
                out.append((i, j - 2 * i))
            i += 1
        return out

    terms = []
    diffs = []
    layouts = []
    for j in range(h_max + 1):
        blocks = block_sources(j)
        shifts = []
        offsets = []
        for (i, m) in blocks:
            offsets.append(len(shifts))
            shifts.extend(s + i * h.d for s in frees[m].shifts)
        terms.append(FreeModule(R, shifts))
        layouts.append((blocks, offsets))
    for j in range(1, h_max + 1):
        src_blocks, src_off = layouts[j]
        tgt_blocks, tgt_off = layouts[j - 1]
        tgt_pos = {blk: off for blk, off in zip(tgt_blocks, tgt_off)}
        entries = [[dict() for _ in range(terms[j].rank)] for _ in range(terms[j - 1].rank)]
        for (i, m), off in zip(src_blocks, src_off):
            for k in range(0, i + 1):
                if k == 0 and m == 0:
                    continue  # no differential out of F_0
                s_k = hs.homotopy(k, m)
                if s_k is None:
                    continue
                tgt_block = (i - k, m + 2 * k - 1)
                if tgt_block not in tgt_pos:
                    continue
                t_off = tgt_pos[tgt_block]
                for r in range(s_k.target.rank):
                    for c in range(s_k.source.rank):
                        e = s_k.entries[r][c]
                        if e:
                            entries[t_off + r][off + c] = dict(e)
        diffs.append(PolyMatrix(terms[j - 1], terms[j], entries))
    betti = BettiTable(h_max, codegree_max)
    for j, term in enumerate(terms):
        for s in term.shifts:
            betti.add(j, s)
    if check_window is None:
        lo = min(terms[0].shifts) if terms[0].shifts else 0
        check_window = range(lo, min(codegree_max, lo + 16) + 1)
    _verify_splice(module, h, terms, diffs, list(check_window))
    return terms, diffs, betti


def _verify_splice(module, h, terms, diffs, degrees):
    # complex: consecutive composites vanish in the quotient ring
    for j in range(len(diffs) - 1):
        comp = diffs[j].compose(diffs[j + 1])
        if not comp.is_zero_on(degrees):
            raise HypersurfaceError(f"spliced complex fails d^2 = 0 at stage {j + 2}")
    # exactness in positive degrees and H_0 = M degreewise
    M_R = h.transfer_module(module)
    for n in degrees:
        dims = [t.dim(n) for t in terms]
        ranks = [d.matrix_at(n).rank() for d in diffs]
        if dims[0] - ranks[0] != M_R.dim(n):
            raise HypersurfaceError(f"H_0 mismatch at codegree {n}")
        for j in range(1, len(terms) - 1):
            hj = dims[j] - ranks[j - 1] - ranks[j]
            if hj:
                raise HypersurfaceError(f"spliced complex not exact at stage {j}, codegree {n}")


class MatrixFactorization:
    def __init__(self, h, A, B):
        self.h = h
        self.A = A  # d_1: F_1 -> F_0
        self.B = B  # homotopy: F_0 -> F_1 (codegree raised by d)
        self.size = A.target.rank

    def verify(self):
        """Both products equal f * identity, as exact polynomial matrices."""
        f = self.h.f
        return all(X.entries_times(Y) == X.target.scalar_columns(f)
                   for X, Y in ((self.A, self.B), (self.B, self.A)))


def matrix_factorization_from_resolution(h: HypersurfaceData, module,
                                         codegree_max=24) -> MatrixFactorization:
    """A = the presentation differential, B = the null homotopy of f."""
    _check_kills_module(h, module)
    res = minimal_resolution(module, h_max=3, codegree_max=codegree_max)
    if not res.betti.complete or res.betti.length != 1:
        raise HypersurfaceError(
            "module must have projective dimension 1 over the ambient ring; "
            "pass a syzygy module instead")
    hs = HomotopySystem(h, res)
    A = res.diffs[0]
    B = hs.homotopy(1, 0)
    mf = MatrixFactorization(h, A, B)
    if not mf.verify():
        raise HypersurfaceError("matrix factorization products do not equal f * identity")
    return mf


def gulliksen_periodicity_check(h: HypersurfaceData, module_over_R, h_max=12,
                                codegree_max=24):
    """Eventual 2-periodicity of Betti numbers over the hypersurface.

    Reports the degree-raising operator bookkeeping (codegree d + 2), the
    onset of periodicity, and the vanishing of the differences
    b[i] - b[i-2] beyond the onset (the finite-difference certificate).
    """
    res = minimal_resolution(module_over_R, h_max=h_max, codegree_max=codegree_max)
    b = res.betti.totals()
    if res.betti.complete:
        b = b + [0] * (h_max + 1 - len(b))
    onset = None
    for o in range(len(b) - 2):
        if all(b[i + 2] == b[i] for i in range(o, len(b) - 2)):
            onset = o
            break
    report = {
        "operator_codegree": h.d + 2,
        "betti": b,
        "onset": onset,
        "period": 2 if onset is not None else None,
        "differences_vanish": onset is not None and
            all(b[i] - b[i - 2] == 0 for i in range(onset + 2, len(b))),
    }
    if onset is None:
        report["inconclusive"] = True
    return report
