import pytest
from hypothesis import given, settings, strategies as st

from conftest import left_action_reference
from gradedalg.fields import ExtensionField, PrimeField, Rationals
from gradedalg.linalg import Matrix, bits
from gradedalg.modules import FreeModule, PolyMatrix, GradedModule
from gradedalg.parsing import parse_poly, ring_with_relations
from gradedalg.rings import GradedRing, PresentationError
from test_koszul import _recipes, _signed_recipes
from test_rings import _mono_times_poly_reference, _reference_component


@pytest.fixture
def kxy():
    return GradedRing(PrimeField(2), [("x", 1), ("y", 1)])


def test_free_module_dims_add_over_shifts(kxy):
    free = FreeModule(kxy, [0, 2])
    assert [free.dim(n) for n in range(5)] == [1, 2, 4, 6, 8]


def test_coords_round_trip(kxy):
    free = FreeModule(kxy, [0, 1])
    element = {0: parse_poly("x^2+x*y", kxy), 1: parse_poly("y", kxy)}
    coords = free.coords_of(element, 2)
    assert free.element_of(coords, 2) == element


def test_residue_field_dims(kxy):
    k = GradedModule.residue_field(kxy)
    assert [k.dim(n) for n in range(4)] == [1, 0, 0, 0]


def test_shifted_cyclic_module(kxy):
    m = GradedModule(kxy, [3])
    assert [m.dim(n) for n in range(6)] == [0, 0, 0, 1, 2, 3]


def test_presentation_with_relation_column(kxy):
    # coker of (x y)^T : R(-1) -> R^2, i.e. two generators glued along a line
    m = GradedModule(kxy, [0, 0],
                     [[parse_poly("x", kxy), parse_poly("y", kxy)]])
    assert [m.dim(n) for n in range(4)] == [2, 3, 4, 5]


def test_inhomogeneous_relation_column_rejected(kxy):
    with pytest.raises(PresentationError):
        GradedModule(kxy, [0, 1],
                     [[parse_poly("x", kxy), parse_poly("x", kxy)]])


def test_polymatrix_enforces_entry_codegrees(kxy):
    src = FreeModule(kxy, [1])
    tgt = FreeModule(kxy, [0])
    PolyMatrix(tgt, src, [{0: parse_poly("x", kxy)}])  # codegree 1 entry fits
    with pytest.raises(PresentationError):
        PolyMatrix(tgt, src, [{0: parse_poly("x^2", kxy)}])


def test_polymatrix_compose_matches_matrix_product(kxy):
    a = FreeModule(kxy, [0])
    b = FreeModule(kxy, [1])
    c = FreeModule(kxy, [2])
    f = PolyMatrix(a, b, [{0: parse_poly("x", kxy)}])
    g = PolyMatrix(b, c, [{0: parse_poly("y", kxy)}])
    fg = f.compose(g)
    for n in range(4):
        assert fg.matrix_at(n) == f.matrix_at(n).mul(g.matrix_at(n))


def test_mult_matrix_respects_relations():
    ring = GradedRing(PrimeField(2), [("x", 1)], [{(2,): 1}])
    m = GradedModule.ring_as_module(ring)
    assert m.mult_matrix(ring.gen_poly(0), 0).rank() == 1
    assert m.mult_matrix(ring.gen_poly(0), 1).rank() == 0  # x*x = 0 here


def test_module_over_rationals():
    ring = GradedRing(Rationals(), [("v", 2)])
    m = GradedModule(ring, [0, 5, 2], [[{}, {}, parse_poly("v", ring)]])
    assert [m.dim(n) for n in range(9)] == [1, 0, 2, 0, 1, 1, 1, 1, 1]


# -- coordinates round trips, over GF(2) as packed ints --------------------

def _poly(draw, ring, d, max_terms=3):
    """A polynomial drawn from the monomials of codegree d, nonzero when
    there are any."""
    monos = ring.monomials(d)
    if not monos:
        return {}
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=max_terms, unique=True))
    top = ring.field.char - 1 if ring.field.char else 5
    return {m: ring.field.from_int(draw(st.integers(1, top))) for m in chosen}


@st.composite
def _presented_modules(draw):
    """A module over GF(2) or GF(3) (where odd generators anticommute):
    one to three generators of codegree 1 to 3, up to two relations, one
    to three module generators and up to three relation columns, a
    codegree n that the columns' codegrees mostly do not pass, and a
    polynomial vector of the free module at n."""
    field = draw(st.sampled_from([PrimeField(2), PrimeField(3)]))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    ring = GradedRing(field, [(f"x{i}", d) for i, d in enumerate(degrees)])
    ring = GradedRing(field, ring.gens, [_poly(draw, ring, draw(st.integers(2, 4)))
                                         for _ in range(draw(st.integers(0, 2)))])
    shifts = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    n = draw(st.integers(0, 6))
    columns = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(max(shifts), max(n, max(shifts)) + 1))
        columns.append([_poly(draw, ring, d - s) for s in shifts])
    module = GradedModule(ring, shifts, columns)
    element = {j: p for j, p in enumerate(_poly(draw, ring, n - s) for s in shifts) if p}
    return module, n, element


@settings(max_examples=150, deadline=None)
@given(_presented_modules())
def test_coordinates_round_trip_through_free_and_quotient(case):
    module, n, element = case
    free, ring = module.free, module.ring
    packed = ring.field == PrimeField(2)
    coords = free.coords_of(element, n)
    assert isinstance(coords, int) == packed
    # element_of gives back e in normal form: the same coordinates, and
    # only basis monomials
    back = free.element_of(coords, n)
    assert free.coords_of(back, n) == coords
    for j, p in back.items():
        assert p and set(p) <= set(ring.component(n - free.shifts[j]).basis)
    # lift(reduce(v)) is v modulo the relations
    comp = module.component(n)
    quotient = comp.reduce(coords)
    lifted = comp.lift(quotient)
    assert comp.reduce(lifted) == quotient
    assert isinstance(quotient, int) == isinstance(lifted, int) == packed
    if packed:
        # dict coordinates name the same vectors as the ints
        as_dict = dict.fromkeys(bits(coords), 1)
        assert free.element_of(as_dict, n) == back
        assert comp.reduce(as_dict) == quotient
        lifted_dict = comp.lift(dict.fromkeys(bits(quotient), 1))
        assert lifted_dict == dict.fromkeys(bits(lifted), 1)
        assert free.element_of(lifted_dict, n) == free.element_of(lifted, n)



# -- sparse columns against the dense route they replaced ------------------

class _DenseMap:
    """The dense layout PolyMatrix's {slot: poly} columns replaced, kept as
    the reference: entries[i][j] maps source generator j into target slot
    i, matrix_at builds each column by visiting every target slot, and
    entries_times multiplies rows by columns, other's entry on the left:
    a module map sends r * e_j to r * column j."""

    def __init__(self, target, source, entries):
        ring = target.ring
        self.ring, self.target, self.source = ring, target, source
        self.entries = [[dict(e) for e in row] for row in entries]
        if len(self.entries) != target.rank or any(len(r) != source.rank for r in self.entries):
            raise PresentationError("polynomial matrix shape mismatch")
        for i in range(target.rank):
            for j in range(source.rank):
                e = self.entries[i][j]
                if e and ring.poly_codegree(e) != source.shifts[j] - target.shifts[i]:
                    raise PresentationError(f"entry ({i},{j}) has the wrong codegree")

    def matrix_at(self, n):
        ring, F = self.ring, self.ring.field
        offsets = self.target.offsets(n)
        cols = []
        for j, mono in self.source.basis(n):
            col = {}
            for i in range(self.target.rank):
                e = self.entries[i][j]
                if e:
                    coords = ring.component(n - self.target.shifts[i]).reduce_poly(
                        ring.pmul({mono: F.one()}, e))
                    if F.packed:
                        coords = dict.fromkeys(bits(coords), 1)
                    col.update((offsets[i] + k, x) for k, x in coords.items())
            cols.append(col)
        return Matrix.from_columns(F, cols, self.target.dim(n))

    def entries_times(self, other):
        ring = self.ring
        out = []
        for row in self.entries:
            out_row = []
            for j in range(other.source.rank):
                acc = {}
                for x, other_row in zip(row, other.entries):
                    if x and other_row[j]:
                        acc = ring.padd(acc, ring.pmul(other_row[j], x))
                out_row.append(acc)
            out.append(out_row)
        return out

    def compose(self, other):
        if other.target is not self.source and other.target.shifts != self.source.shifts:
            raise PresentationError("composition shape mismatch")
        return _DenseMap(self.target, other.source, self.entries_times(other))

    def min_entries_positive(self):
        for i in range(self.target.rank):
            for j in range(self.source.rank):
                if self.source.shifts[j] == self.target.shifts[i] and self.entries[i][j]:
                    return False
        return True


def _columns(entries, ncols):
    """Dense entries -> {slot: poly} columns."""
    return [{i: row[j] for i, row in enumerate(entries) if row[j]} for j in range(ncols)]


@st.composite
def _map_pairs(draw):
    """Composable maps f: B -> A and g: C -> B as dense entries, over GF(2),
    GF(3) with odd generators (which anticommute, so the order of each
    product matters) or QQ, in a ring of two or three generators and up
    to two relations.  Ranks run from 1 to 3, and an entry is zero or a
    polynomial of its codegree, zero when that codegree has no
    monomials."""
    field = draw(st.sampled_from([PrimeField(2), PrimeField(3), Rationals()]))
    # odd codegrees twice as likely, so that odd entries meet in products
    degrees = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=2, max_size=3))
    ring = GradedRing(field, [(f"x{i}", d) for i, d in enumerate(degrees)])
    ring = GradedRing(field, ring.gens, [_poly(draw, ring, draw(st.integers(2, 4)))
                                         for _ in range(draw(st.integers(0, 2)))])
    # shifts rise from A to B to C, so most entries have monomials
    a, b, c = (FreeModule(ring, draw(st.lists(st.integers(lo, lo + 2), min_size=1,
                                              max_size=3)))
               for lo in (0, 2, 4))

    def entries(tgt, src):
        return [[{} if draw(st.booleans()) else _poly(draw, ring, s - t) for s in src.shifts]
                for t in tgt.shifts]

    return ring, (a, b, c), entries(a, b), entries(b, c)


@settings(max_examples=150, deadline=None)
@given(_map_pairs(), st.data())
def test_sparse_columns_match_the_dense_route(case, data):
    ring, (a, b, c), f_entries, g_entries = case
    f, f_ref = PolyMatrix(a, b, _columns(f_entries, b.rank)), _DenseMap(a, b, f_entries)
    g, g_ref = PolyMatrix(b, c, _columns(g_entries, c.rank)), _DenseMap(b, c, g_entries)
    fg, fg_ref = f.compose(g), f_ref.compose(g_ref)
    assert f.columns_times(g) == fg.columns == _columns(fg_ref.entries, c.rank)
    for m, ref in ((f, f_ref), (g, g_ref), (fg, fg_ref)):
        assert m.min_entries_positive() == ref.min_entries_positive()
        for n in range(-1, 8):
            assert m.matrix_at(n) == ref.matrix_at(n)
    for n in range(-1, 8):
        assert fg.matrix_at(n) == f.matrix_at(n).mul(g.matrix_at(n))
    # the shifts of C are above those of A, so g o f is a shape error
    with pytest.raises(PresentationError):
        g_ref.compose(f_ref)
    with pytest.raises(PresentationError):
        g.compose(f)
    # a wrong codegree anywhere is refused by both
    i = data.draw(st.integers(0, a.rank - 1))
    j = data.draw(st.integers(0, b.rank - 1))
    wrong = next(p for p in (ring.pconst(1), ring.gen_poly(0))
                 if ring.poly_codegree(p) != b.shifts[j] - a.shifts[i])
    bad = [list(row) for row in f_entries]
    bad[i][j] = wrong
    with pytest.raises(PresentationError):
        _DenseMap(a, b, bad)
    with pytest.raises(PresentationError):
        PolyMatrix(a, b, _columns(bad, b.rank))
    # one column too few, and an entry below the last target slot
    with pytest.raises(PresentationError):
        _DenseMap(a, b, [row[:-1] for row in f_entries])
    with pytest.raises(PresentationError):
        PolyMatrix(a, b, _columns(f_entries, b.rank)[:-1])
    with pytest.raises(PresentationError):
        _DenseMap(a, b, f_entries + [[ring.pconst(1)] * b.rank])
    with pytest.raises(PresentationError):
        PolyMatrix(a, b, [{a.rank: ring.pconst(1)}] + _columns(f_entries, b.rank)[1:])


def test_composite_induces_the_product_of_the_induced_maps():
    # f = (x): R(-1) -> R and g = (y): R(-2) -> R(-1) over GF(3)[x, y], x and
    # y odd: (f o g)(e) = y * x, which is -x * y
    ring = GradedRing(PrimeField(3), [("x", 1), ("y", 1)])
    r0, r1, r2 = (FreeModule(ring, [s]) for s in (0, 1, 2))
    f = PolyMatrix(r0, r1, [{0: ring.gen_poly(0)}])
    g = PolyMatrix(r1, r2, [{0: ring.gen_poly(1)}])
    assert f.compose(g).matrix_at(2) == f.matrix_at(2).mul(g.matrix_at(2))


# -- the batched product kernel against the per-pair loop it replaced -------

class _ReferenceTable(dict):
    """b -> coordinates in R_(a+|p|) of b * p by the tuple route of
    test_rings (reference Macaulay rows, reference monomial products),
    filled on lookup."""

    def __init__(self, ring, p, a):
        super().__init__()
        self.ring, self.p = ring, p
        self.reduce = _reference_component(ring, a + ring.poly_codegree(p))[1]

    def __missing__(self, b):
        coords = self[b] = self.reduce(_mono_times_poly_reference(self.ring, b, self.p))
        return coords


def _per_pair_images(free, pairs, columns, n):
    """The FreeModule.images loop that RingComponent.products replaced, kept
    as the reference: one table per (polynomial, codegree) and call, one
    lookup per pair and slot, each ORed or merged in at its slot's offset."""
    ring = free.ring
    offsets = free.offsets(n)
    packed = ring.field.packed
    tables = {}   # (id of polynomial, codegree) -> _ReferenceTable
    parts = {}    # j -> [(slot offset, table)]
    out = []
    for j, mono in pairs:
        if j not in parts:
            parts[j] = []
            a = ring.mono_codegree(mono)
            for i, p in columns[j].items():
                if (id(p), a) not in tables:
                    tables[id(p), a] = _ReferenceTable(ring, p, a)
                parts[j].append((offsets[i], tables[id(p), a]))
        if packed:
            v = 0
            for off, table in parts[j]:
                v |= table[mono] << off
        else:
            v = {}
            for off, table in parts[j]:
                for k, x in table[mono].items():
                    v[off + k] = x
        out.append(v)
    return out


GF4 = ExtensionField(2, 2)
_kernel_recipes = st.one_of(_recipes, _signed_recipes, st.sampled_from([
    (GF4, [("x", 1), ("y", 1)], ["x*y"]),
    (GF4, [("x", 1), ("y", 2)], []),
]))


def _scalar_poly(draw, ring, d, max_terms=3):
    """A polynomial of codegree d with coefficients from the whole field
    (GF(4)'s generator included), nonzero when codegree d has monomials."""
    monos = ring.monomials(d)
    if not monos:
        return {}
    field = ring.field
    scalars = (field.elements()[1:] if field.char
               else [field.from_int(k) for k in (1, -1, 2, -3)])
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=max_terms, unique=True))
    return {m: draw(st.sampled_from(scalars)) for m in chosen}


@st.composite
def _kernel_cases(draw):
    """A module M over a ring of the Koszul recipes (GF(2), QQ, GF(3),
    odd generators over GF(3) and QQ) or over GF(4): one to three
    generators whose shifts may repeat and up to two relation columns.
    Also a source free module, its shifts repeating too, with columns
    into M's generators (zero ones among them), and a polynomial p."""
    field, gens, rels = draw(_kernel_recipes)
    ring = ring_with_relations(field, gens, rels)
    shifts = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    relation_columns = []
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.integers(max(shifts), max(shifts) + 3))
        relation_columns.append([_scalar_poly(draw, ring, d - s) for s in shifts])
    module = GradedModule(ring, shifts, relation_columns)
    source = FreeModule(ring, draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    columns = []
    for t in source.shifts:
        column = {i: _scalar_poly(draw, ring, t - s) for i, s in enumerate(shifts)
                  if draw(st.booleans())}
        columns.append({i: q for i, q in column.items() if q})
    p = _scalar_poly(draw, ring, draw(st.integers(1, 3)))
    return module, source, columns, p


@settings(max_examples=200, deadline=None)
@given(_kernel_cases(), st.data())
def test_batched_images_match_the_per_pair_loop(case, data):
    module, source, columns, p = case
    free, ring = module.free, module.ring
    for n in range(0, 7):
        pairs = source.basis(n)
        # the basis in order, and pairs in any order with repeats, so that
        # runs of one column are split and interleaved
        shuffled = data.draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
        comp = module.component(n)
        for ps in (pairs, shuffled):
            reference = _per_pair_images(free, ps, columns, n)
            assert free.images(ps, columns, n) == reference
            assert module.images(ps, columns, n) == [comp.reduce(v) for v in reference]
    if not p:
        return
    # p acts on the left: p * (b e_s), not the images of b * p
    for m in range(-1, 5):
        assert module.mult_columns(p, m) == left_action_reference(module, p, m)


@st.composite
def _mixed_parity_modules(draw):
    """A module over a signed GF(3) or QQ ring whose generators have both
    parities, up to two relation columns, and a polynomial p of odd or
    even codegree."""
    field, gens, rels = draw(st.one_of(_signed_recipes, st.sampled_from([
        (PrimeField(3), [("x", 1), ("y", 1), ("z", 2)], ["z^2"]),
        (Rationals(), [("x", 1), ("y", 3), ("z", 2)], ["x*z"]),
    ])))
    ring = ring_with_relations(field, gens, rels)
    shifts = [2 * draw(st.integers(0, 1)), 2 * draw(st.integers(0, 1)) + 1]
    shifts += draw(st.lists(st.integers(0, 3), max_size=1))
    shifts = draw(st.permutations(shifts))
    relation_columns = []
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.integers(max(shifts), max(shifts) + 3))
        relation_columns.append([_scalar_poly(draw, ring, d - s) for s in shifts])
    p = _scalar_poly(draw, ring, draw(st.integers(1, 3)))
    return GradedModule(ring, shifts, relation_columns), p


@settings(max_examples=150, deadline=None)
@given(_mixed_parity_modules())
def test_mult_columns_act_on_the_left_over_mixed_parities(case):
    # in slots of opposite parity b * p and p * b differ by opposite signs
    # when p is odd, so the b * p columns would span another submodule
    module, p = case
    ring = module.ring
    for m in range(-1, 6):
        if p:
            assert module.mult_columns(p, m) == left_action_reference(module, p, m)
        for j in range(ring.ngens):
            assert module.generator_columns(j, m) == left_action_reference(
                module, ring.gen_poly(j), m)
