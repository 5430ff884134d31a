"""Minimal free resolutions over connected graded rings, Betti tables,
and the Ext-growth classifier.

Every stage runs one generator search on a graded submodule K_i: K_0 is
M itself, then K_i = ker(d_(i-1)) inside F_(i-1).  Elements of K_i are
processed by increasing codegree; one becomes a new generator exactly
when it falls outside (maximal ideal) * K_i.  The augmentation F_0 -> M
and the differentials are all PolyMatrix maps, and the differentials
have all entries in the maximal ideal.  At stage 0 the candidates are
the unit vectors of M_n, up to M's last generator, above which M_n =
(m M)_n; so a free module resolves as itself only when the window
reaches its generators.

Inside the window (codegrees <= codegree_max) the prefix built so far is
exact: F_0 -> M is onto there and every generator of each kernel up to
codegree_max has been added.  So dim K_(i+1),n = dim F_i(n) - dim
K_i,n, and a codegree whose products x_j * (K_i below) already reach
that dimension needs no candidates: only where they fall short are they
read, at stage i >= 1 the kernel basis of d_(i-1)'s matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import RowSpace, combine, unit_vector
from .modules import FreeModule, GradedModule, PolyMatrix


class ResolutionError(ValueError):
    pass


class BettiTable:
    def __init__(self, h_max, codegree_max):
        self.h_max = h_max
        self.codegree_max = codegree_max
        self.entries = {}  # (i, n) -> count
        self.complete = False
        self.length = None  # projective dimension when complete

    def add(self, i, n, count=1):
        if count:
            self.entries[(i, n)] = self.entries.get((i, n), 0) + count

    def total(self, i):
        return sum(c for (j, _), c in self.entries.items() if j == i)

    def totals(self):
        top = self.length if self.complete else self.h_max
        return [self.total(i) for i in range(top + 1)]

    def graded(self, i):
        return {n: c for (j, n), c in self.entries.items() if j == i}

    def __eq__(self, other):
        if isinstance(other, BettiTable):
            return self.entries == other.entries
        if isinstance(other, (list, tuple)):
            return self.totals() == list(other)
        return NotImplemented

    def __repr__(self):
        return f"BettiTable({self.totals()}{' complete' if self.complete else ''})"


class Resolution:
    """A minimal free resolution prefix ... -> F_1 -> F_0 -> M -> 0."""

    def __init__(self, module, frees, diffs, augmentation, betti):
        self.module = module
        self.frees = frees            # [F_0, F_1, ...]
        self.diffs = diffs            # [d_1: F_1->F_0, d_2, ...]
        self.augmentation = augmentation  # F_0 -> M, a PolyMatrix into M
        self.betti = betti

    def check_complex(self, degrees):
        """d_i o d_{i+1} = 0 at the listed codegrees (exact matrix products)."""
        for i in range(len(self.diffs) - 1):
            comp = self.diffs[i].compose(self.diffs[i + 1])
            if not comp.is_zero_on(degrees):
                return False
        # augmentation o d_1
        if self.diffs:
            d1 = self.diffs[0]
            for n in degrees:
                prod = self.augmentation.matrix_at(n).mul(d1.matrix_at(n))
                if not prod.is_zero():
                    return False
        return True


def _kernel_generators(ambient, diff, dims, top):
    """Minimal generators of a graded submodule K of ambient, codegrees up
    to top: K = M itself when ambient is the module M and diff is None,
    else K = ker(diff) inside diff's source, a free module.

    dims[n] is dim K_n.  In each codegree the span of x_j * (basis of K
    at n - |x_j|) is filled until it reaches dims[n]; only where it falls
    short are vectors spanning K_n read (the unit vectors of M_n, or the
    kernel basis of diff.matrix_at(n)), and those that enlarge the span
    become the generators.  Returns them as (codegree, coordinate vector).

    At every stage, on M or a free module, x_j * v is
    combine(F, ambient.generator_columns(j, a), v): x_j acts on the left.
    """
    ring = ambient.ring
    F = ring.field
    gens = []
    bases = {}  # n -> basis of K_n (ambient coords): products, then generators
    for n in range(ambient.min_degree(), top + 1):
        want = dims[n]
        if want == 0:
            continue
        span = RowSpace(F, ambient.dim(n))
        basis = bases[n] = []
        # x_j times K below lies in K_n (K is a submodule), so once these
        # products span `want` dimensions they span K_n and no generator
        # appears here
        for j in range(ring.ngens):
            a = n - ring.codegrees[j]
            lower = bases.get(a)
            if span.dim == want or not lower:
                continue
            products = ambient.generator_columns(j, a)
            for v in lower:
                w = combine(F, products, v)
                if span.insert(w):
                    basis.append(w)
                    if span.dim == want:
                        break
        if span.dim == want:
            continue
        if diff is None:
            spanning = [unit_vector(F, k) for k in range(want)]
        else:
            spanning = diff.matrix_at(n).kernel_basis()
            if len(spanning) != want:
                raise ResolutionError(f"resolution not exact in codegree {n}")
        for v in spanning:
            if span.dim == want:
                break
            if span.insert(v):
                basis.append(v)
                gens.append((n, v))
    return gens


def minimal_resolution(module: GradedModule, h_max=12, codegree_max=24) -> Resolution:
    """Minimal free resolution of M out to homological degree h_max.

    Betti entries are exact for codegrees <= codegree_max; the table's
    `complete` flag is set when some stage finds no generator inside the
    window (finite projective dimension witnessed there, -1 for M = 0),
    and only when the window reaches every generator and relation of M:
    a kernel that vanishes below a relation says nothing about it.
    """
    if h_max < 0:
        raise ResolutionError(f"h_max must be at least 0, got {h_max}")
    ring = module.ring
    betti = BettiTable(h_max, codegree_max)
    covers_presentation = codegree_max >= module.presentation_codegree()
    window = range(module.min_degree(), codegree_max + 1)
    # stage i finds the generators of K_i inside `ambient`: K_0 = M, then
    # K_i = ker(d_(i-1)) in F_(i-1).  Above M's generators M_n = (m M)_n
    # (R is connected), so stage 0 stops at the last of them.
    ambient, diff = module, None
    dims = {n: module.dim(n) for n in window}
    top = min(codegree_max, max(module.gen_shifts, default=0))
    frees, maps = [], []
    for i in range(h_max + 1):
        gens = _kernel_generators(ambient, diff, dims, top)
        if gens or i == 0:  # F_0 stays, empty when M is zero
            Fi = FreeModule(ring, [n for n, _ in gens])
            for n, _ in gens:
                betti.add(i, n)
            diff = PolyMatrix(ambient, Fi, [ambient.element_of(v, n) for n, v in gens])
            if i and not diff.min_entries_positive():
                raise ResolutionError(f"non-minimal differential at stage {i}")
            frees.append(Fi)
            maps.append(diff)
        if not gens:
            # the least codegree of a nonzero K_i would have a generator
            if covers_presentation:
                betti.complete = True
                betti.length = i - 1
            break
        # d_i maps F_i onto K_i inside the window, so K_(i+1) = ker(d_i)
        dims = {n: Fi.dim(n) - dims[n] for n in window}
        ambient, top = Fi, codegree_max
    return Resolution(module, frees, maps[1:], maps[0], betti)


class GrowthClass:
    def __init__(self, kind, degree=None):
        self.kind = kind       # finite | bounded | polynomial | exponential | inconclusive
        self.degree = degree   # only for polynomial

    def __eq__(self, other):
        if isinstance(other, str):
            return self.kind == other and self.degree is None
        if isinstance(other, tuple):
            return (self.kind, self.degree) == other
        return isinstance(other, GrowthClass) and (self.kind, self.degree) == (other.kind, other.degree)

    def __repr__(self):
        if self.kind == "polynomial":
            return f"polynomial({self.degree})"
        return self.kind


def _eventually_periodic(b, period):
    # compare over the second half of the sequence, at least 3 matches
    onset = max(0, len(b) - period - max(3 + period, len(b) // 2))
    if len(b) - period - onset < 3:
        return False
    return all(b[i + period] == b[i] for i in range(onset, len(b) - period))


def ext_growth_class(b) -> GrowthClass:
    """Classify the growth of a Betti sequence.

    finite: eventually zero.  bounded: eventually periodic (so bounded).
    polynomial(d): d-th successive differences stabilize at a nonzero
    constant (degree-d polynomial growth).  exponential: tail ratios all
    >= 1 + 1/4.  Anything else: inconclusive.
    """
    b = list(b)
    if len(b) < 11:
        raise ValueError("growth classification needs the sequence out to degree >= 10")
    tail_len = max(4, len(b) // 3)
    tail = b[-tail_len:]
    if all(x == 0 for x in tail):
        return GrowthClass("finite")
    for period in range(1, 5):
        if _eventually_periodic(b, period):
            return GrowthClass("bounded")
    # polynomial: iterate differences until the tail is identically zero
    seq = [Fraction(x) for x in b[len(b) // 4:]]
    for d in range(1, 7):
        seq = [seq[i + 1] - seq[i] for i in range(len(seq) - 1)]
        if len(seq) < 3:
            break
        check = seq[-max(3, len(seq) // 2):]
        if all(x == 0 for x in check):
            return GrowthClass("polynomial", d - 1)
    eps = Fraction(1, 4)
    ratios_ok = True
    for i in range(len(b) - tail_len, len(b) - 1):
        if b[i] == 0 or Fraction(b[i + 1], b[i]) < 1 + eps:
            ratios_ok = False
            break
    if ratios_ok:
        return GrowthClass("exponential")
    return GrowthClass("inconclusive")
