"""Minimal free resolutions over connected graded rings, Betti tables,
and the Ext-growth classifier.

The resolution is built by iterated degreewise kernels.  At each stage,
kernel elements are processed by increasing codegree; an element becomes
a new generator exactly when it falls outside (maximal ideal) * (kernel
so far).  Differentials therefore have all entries in the maximal ideal.

Inside the window (codegrees <= codegree_max) the prefix built so far is
exact: F_0 -> M is onto there and every generator of each kernel up to
codegree_max has been added.  So dim ker(d_i)_n = dim F_i(n) - dim
ker(d_(i-1))_n, with dim M_n in place of the last at the first stage,
and a codegree whose products x_j * (kernel below) already reach that
dimension needs no matrix of d_i: only where they fall short is d_i's
matrix built and its kernel basis searched for new generators.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix, RowSpace, combine, unit_vector
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


class _MapToModule:
    """The augmentation F_0 -> M; columns are elements of M's ambient free module."""

    def __init__(self, module: GradedModule, source: FreeModule, columns):
        self.module = module
        self.source = source
        self.columns = columns  # one polynomial vector (in module.free slots) per generator
        self._cache = {}

    def matrix_at(self, n) -> Matrix:
        if n in self._cache:
            return self._cache[n]
        module = self.module
        comp = module.component(n)
        cols = module.free.images(self.source.basis(n), self.columns, n)
        m = Matrix.from_columns(module.ring.field, [comp.reduce(v) for v in cols], comp.dim)
        self._cache[n] = m
        return m


class Resolution:
    """A minimal free resolution prefix ... -> F_1 -> F_0 -> M -> 0."""

    def __init__(self, module, frees, diffs, augmentation, betti):
        self.module = module
        self.frees = frees            # [F_0, F_1, ...]
        self.diffs = diffs            # [d_1: F_1->F_0, d_2, ...]
        self.augmentation = augmentation
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


def _minimal_generators_of_module(module: GradedModule, codegree_max):
    """Degrees and representatives of a minimal generating set of M."""
    ring = module.ring
    gens = []  # (degree, polynomial vector in module.free slots)
    lo = module.min_degree()
    for n in range(lo, codegree_max + 1):
        comp = module.component(n)
        if comp.dim == 0:
            continue
        span = RowSpace(ring.field, comp.dim)
        for i in range(ring.ngens):
            dx = ring.codegrees[i]
            if n - dx < lo:
                continue
            for col in module.mult_columns(ring.gen_poly(i), n - dx):
                span.insert(col)
        for k in range(comp.dim):
            e = unit_vector(ring.field, k)
            if span.insert(e):
                gens.append((n, module.free.element_of(comp.lift(e), n)))
    return gens


class _GeneratorProducts(dict):
    """x_i times the basis vectors of a free module at codegree n - |x_i|,
    as coordinates at codegree n, keyed by basis position and each built
    on its first lookup, so combine(field, products, v) is x_i * v.

    The ring's generator table gives b * x_i, and x_i * b is
    (-1)^(|x_i| |b|) b * x_i: an odd generator (in characteristic other
    than 2) negates the images of the odd monomials.
    """

    __slots__ = ("source", "i", "n", "basis", "slots")

    def __init__(self, source: FreeModule, i, n):
        super().__init__()
        self.source, self.i, self.n = source, i, n
        self.basis = source.basis(n - source.ring.codegrees[i])
        self.slots = {}  # slot -> (offset at n, generator table, negate)

    def __missing__(self, k):
        ring = self.source.ring
        s, b = self.basis[k]
        part = self.slots.get(s)
        if part is None:
            a = self.n - ring.codegrees[self.i] - self.source.shifts[s]
            part = self.slots[s] = (self.source.offsets(self.n)[s],
                                    ring.generator_table(self.i, a),
                                    ring.odd[self.i] and a % 2 == 1)
        offset, table, negate = part
        coords = table[b]
        if ring.field.packed:
            w = coords << offset
        elif negate:
            neg = ring.field.neg
            w = {offset + c: neg(x) for c, x in coords.items()}
        else:
            w = {offset + c: x for c, x in coords.items()}
        self[k] = w
        return w


def _kernel_generators(diff, source: FreeModule, codegree_max, image_dims):
    """Minimal generators of ker(diff) where diff maps source -> (module or free).

    image_dims[n] is the dimension of diff's image in codegree n, for
    every n from source.min_degree() to codegree_max, so the kernel's is
    source.dim(n) - image_dims[n].  In each codegree the span of x_j *
    (kernel basis at n - |x_j|) is filled until it reaches that
    dimension; only where it falls short is diff.matrix_at(n) built, and
    the vectors of its kernel basis that enlarge the span become the
    generators.  Returns (gens, kernel_dims): gens a list of (codegree,
    coordinate vector, polynomial vector), kernel_dims[n] the kernel's
    dimension, which is the next differential's image.
    """
    ring = source.ring
    F = ring.field
    gens = []
    kernels = {}  # n -> basis of ker_n (source coords): products, then generators
    kernel_dims = {}
    for n in range(source.min_degree(), codegree_max + 1):
        want = kernel_dims[n] = source.dim(n) - image_dims[n]
        if want == 0:
            continue
        span = RowSpace(F, source.dim(n))
        basis = kernels[n] = []
        # x_j times the kernel below lies in ker_n (diff is a module map),
        # so once these products span `want` dimensions they span ker_n
        # and no generator appears here
        for j in range(ring.ngens):
            lower = kernels.get(n - ring.codegrees[j])
            if span.dim == want or not lower:
                continue
            products = _GeneratorProducts(source, j, n)
            for v in lower:
                w = combine(F, products, v)
                if span.insert(w):
                    basis.append(w)
                    if span.dim == want:
                        break
        if span.dim == want:
            continue
        kb = diff.matrix_at(n).kernel_basis()
        if len(kb) != want:
            raise ResolutionError(f"resolution not exact in codegree {n}")
        for v in kb:
            if span.dim == want:
                break
            if span.insert(v):
                basis.append(v)
                gens.append((n, v, source.element_of(v, n)))
    return gens, kernel_dims


def minimal_resolution(module: GradedModule, h_max=12, codegree_max=24) -> Resolution:
    """Minimal free resolution of M out to homological degree h_max.

    Betti entries are exact for codegrees <= codegree_max; the table's
    `complete` flag is set when some kernel vanished identically inside
    the window (finite projective dimension witnessed there), and only
    when the window reaches every generator and relation of M: a kernel
    that vanishes below a relation says nothing about it.
    """
    ring = module.ring
    betti = BettiTable(h_max, codegree_max)
    covers_presentation = codegree_max >= module.presentation_codegree()
    if not module.rel_columns:
        # already free on its listed generators: the identity resolves it
        F0 = FreeModule(ring, list(module.gen_shifts))
        for d in module.gen_shifts:
            betti.add(0, d)
        betti.complete = True
        betti.length = 0
        return Resolution(module, [F0], [],
                          _MapToModule(module, F0, F0.scalar_columns(ring.pconst(1))), betti)
    gens0 = _minimal_generators_of_module(module, codegree_max)
    if not gens0:
        if covers_presentation:
            betti.complete = True
            betti.length = -1
        F0 = FreeModule(ring, [])
        return Resolution(module, [F0], [], _MapToModule(module, F0, []), betti)
    F0 = FreeModule(ring, [d for d, _ in gens0])
    for d, _ in gens0:
        betti.add(0, d)
    aug = _MapToModule(module, F0, [vec for _, vec in gens0])
    frees = [F0]
    diffs = []
    current = aug
    # F_0 -> M is onto inside the window
    image_dims = {n: module.dim(n) for n in range(F0.min_degree(), codegree_max + 1)}
    for i in range(1, h_max + 1):
        gens, image_dims = _kernel_generators(current, frees[-1], codegree_max, image_dims)
        if not gens:
            # the least codegree of a nonzero kernel would have a generator
            if covers_presentation:
                betti.complete = True
                betti.length = i - 1
            break
        Fi = FreeModule(ring, [d for d, _, _ in gens])
        for d, _, _ in gens:
            betti.add(i, d)
        d_i = PolyMatrix(frees[-1], Fi, [vec for _, _, vec in gens])
        if not d_i.min_entries_positive():
            raise ResolutionError(f"non-minimal differential at stage {i}")
        diffs.append(d_i)
        frees.append(Fi)
        current = d_i
    return Resolution(module, frees, diffs, aug, betti)


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
