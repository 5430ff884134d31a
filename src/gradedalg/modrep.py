"""Modules over group algebras kG for groups with a normal Sylow
p-subgroup and p'-quotient, and Benson's squeezed-resolution recursion.

The radical of kG is kG times the augmentation ideal of the Sylow
subgroup; the semisimple quotient is the group algebra of the p'
quotient, whose characters give the principal indecomposables by
idempotent lifting.

Spans, restrictions, coradical steps and module-map checks act through
the group's generators only (GroupTable.generators, computed once per
GroupAlgebra), as the Meat-Axe spins a vector: in a finite group every
element is a positive word in the generators, so whatever each
generator preserves or commutes with, every element does.

What depends on the algebra alone is built once per GroupAlgebra, on
first use, and kept on it: the radical basis of kG, which every radical
submodule reads, and the principal indecomposables, which every
projective cover shares.
"""

from __future__ import annotations

from .groups import GroupTable
from .linalg import Matrix, RowSpace


class RepresentationError(ValueError):
    pass


class GroupAlgebra:
    """kG with elements as coefficient vectors indexed by group elements."""

    def __init__(self, group: GroupTable, field):
        if group.sylow is None:
            raise RepresentationError(
                "supported class needs a designated normal Sylow p-subgroup")
        if field.char != group.p:
            raise RepresentationError("field characteristic must match the Sylow prime")
        self.group = group
        self.field = field
        self.n = group.n
        # the generating set every module loop acts through
        self.generators = group.generators()
        self._pims = None  # principal_indecomposables, built on first use
        self._radical = None  # radical_basis, built on first use

    def zero(self):
        return [self.field.zero()] * self.n

    def basis_element(self, g):
        v = self.zero()
        v[g] = self.field.one()
        return v

    def one(self):
        return self.basis_element(self.group.identity)

    def add(self, a, b):
        F = self.field
        return [F.add(x, y) for x, y in zip(a, b)]

    def scale(self, c, a):
        F = self.field
        return [F.mul(c, x) for x in a]

    def mul(self, a, b):
        F = self.field
        z = F.zero()
        out = self.zero()
        for g, cg in enumerate(a):
            if cg == z:
                continue
            row = self.group.table[g]
            for h, ch in enumerate(b):
                if ch == z:
                    continue
                t = row[h]
                out[t] = F.add(out[t], F.mul(cg, ch))
        return out

    def sub(self, a, b):
        F = self.field
        return [F.sub(x, y) for x, y in zip(a, b)]

    def regular_module(self):
        F = self.field
        mats = []
        for g in range(self.n):
            cols = [self.basis_element(self.group.table[g][h]) for h in range(self.n)]
            mats.append(Matrix.from_columns(F, cols, self.n))
        return GroupModule(self, mats)

    def radical_basis(self):
        """Basis of rad(kG) = kG * (augmentation ideal of the Sylow subgroup).

        Built on first use and kept, as a tuple of tuples, so that no
        caller can change the copy every later call returns.
        """
        if self._radical is None:
            self._radical = tuple(tuple(v) for v in self._build_radical_basis())
        return self._radical

    def _build_radical_basis(self):
        """Independent products g(s - 1), g in G and s in the Sylow subgroup."""
        span = RowSpace(self.field, self.n)
        out = []
        e = self.group.identity
        for g in range(self.n):
            for s in self.group.sylow:
                if s == e:
                    continue
                v = self.sub(self.basis_element(self.group.table[g][s]),
                             self.basis_element(g))
                if span.insert(v):
                    out.append(v)
        return out

    def semisimple_quotient_certificate(self):
        """Nondegeneracy of the trace form on k(G/P), the quotient by the radical."""
        cosets, reps, Q = self.group.quotient_by_sylow()
        F = self.field
        m = Q.n
        # trace of left multiplication by q1*q2 on the quotient group algebra
        rows = []
        for a in range(m):
            row = []
            for b in range(m):
                prod = Q.table[a][b]
                trace = F.from_int(m) if prod == Q.identity else F.zero()
                row.append(trace)
            rows.append(row)
        gram = Matrix(F, rows)
        return gram.rank() == m

    def characters_of_quotient(self):
        """All homomorphisms from G/P to the multiplicative group of k.

        Returns (Q, reps, list of value tuples indexed by quotient element).
        """
        cosets, reps, Q = self.group.quotient_by_sylow()
        F = self.field
        units = [x for x in F.elements() if x != F.zero()]
        chars = []

        def consistent(trial, i):
            for a in range(i + 1):
                for b in range(i + 1):
                    c = Q.table[a][b]
                    if c <= i and F.mul(trial[a], trial[b]) != trial[c]:
                        return False
            return True

        def extend(values):
            i = len(values)
            if i == Q.n:
                chars.append(tuple(values))
                return
            candidates = [F.one()] if i == Q.identity else units
            for u in candidates:
                trial = values + [u]
                if consistent(trial, i):
                    extend(trial)

        extend([])
        if len(chars) != Q.n:
            raise RepresentationError(
                "field lacks the roots of unity needed to split the quotient")
        return Q, reps, chars

    def lifted_idempotents(self):
        """Primitive idempotents of kG lifted from the p'-quotient characters."""
        Q, reps, chars = self.characters_of_quotient()
        F = self.field
        inv_order = F.inv(F.from_int(Q.n))
        out = []
        for chi in chars:
            e = self.zero()
            for q in range(Q.n):
                qi = Q.inverse[q]
                e = self.add(e, self.scale(F.mul(inv_order, chi[qi]),
                                           self.basis_element(reps[q])))
            e = self._lift_idempotent(e)
            out.append((chi, e))
        return out

    def _lift_idempotent(self, e):
        # Newton iteration e <- 3e^2 - 2e^3; converges since the error is nilpotent
        F = self.field
        three = F.from_int(3)
        minus_two = F.from_int(-2)
        for _ in range(2 * self.n):
            sq = self.mul(e, e)
            if sq == e:
                return e
            cube = self.mul(sq, e)
            e = self.add(self.scale(three, sq), self.scale(minus_two, cube))
        raise RepresentationError("idempotent lifting did not converge")


class GroupModule:
    """A kG-module: one action matrix per group element."""

    def __init__(self, algebra: GroupAlgebra, mats, check=True):
        self.algebra = algebra
        self.field = algebra.field
        self.mats = mats
        self.dim = mats[0].nrows if mats else 0
        if check:
            self._check_action()

    def _check_action(self):
        # s*h for the generators s and every h: by induction on the word
        # length of g, that gives g*h for every g
        G = self.algebra.group
        ident = Matrix.identity(self.field, self.dim)
        if self.mats[G.identity] != ident:
            raise RepresentationError("identity must act as the identity matrix")
        for s in self.algebra.generators:
            for h in range(G.n):
                if self.mats[s].mul(self.mats[h]) != self.mats[G.table[s][h]]:
                    raise RepresentationError("action matrices violate the group table")

    @classmethod
    def trivial(cls, algebra):
        one = Matrix.identity(algebra.field, 1)
        return cls(algebra, [one] * algebra.n, check=False)

    @classmethod
    def zero(cls, algebra):
        z = Matrix(algebra.field, [], ncols=0)
        return cls(algebra, [z] * algebra.n, check=False)

    def act_algebra(self, vec, v):
        """Action of an algebra element (coefficient vector) on v."""
        F = self.field
        z = F.zero()
        out = [z] * self.dim
        for g, c in enumerate(vec):
            if c == z:
                continue
            gv = self.mats[g].apply(v)
            out = [F.add(x, F.mul(c, y)) for x, y in zip(out, gv)]
        return out

    def submodule_span(self, vectors):
        """Basis of the smallest submodule containing the vectors (lists or
        vectors in the field's format, as they come).

        The span is closed under the generators only: every group element
        is a positive word in them, so a space each generator maps into
        itself is a submodule.
        """
        gens = [self.mats[s] for s in self.algebra.generators]
        span = RowSpace(self.field, self.dim)
        basis = []
        queue = list(vectors)
        while queue:
            v = queue.pop()
            if not span.insert(v):
                continue
            basis.append(v)
            queue.extend(m.apply(v) for m in gens)
        return basis

    def restrict_to(self, basis):
        """The submodule spanned by the independent vectors `basis` as a
        module in its own right, with its inclusion matrix.

        Only the generators' images are solved against incl, which is
        eliminated once, by its first solve: a space the generators keep
        is a submodule, so their solvability alone decides whether basis
        spans one.  The other matrices are products along the group
        table, M'_(sh) = M'_s M'_h, reached from the identity.
        """
        if not basis:
            return GroupModule.zero(self.algebra), Matrix(self.field, [], ncols=0)
        F = self.field
        G = self.algebra.group
        incl = Matrix.from_columns(F, basis, self.dim)
        gen_mats = []
        for s in self.algebra.generators:
            cols = []
            for b in basis:
                coords = incl.solve(self.mats[s].apply(b))
                if coords is None:
                    raise RepresentationError("basis does not span a submodule")
                cols.append(coords)
            gen_mats.append((s, Matrix.from_columns(F, cols, len(basis))))
        mats = [None] * G.n
        mats[G.identity] = Matrix.identity(F, len(basis))
        queue = [G.identity]
        for h in queue:
            for s, m in gen_mats:
                sh = G.table[s][h]
                if mats[sh] is None:
                    mats[sh] = m.mul(mats[h])
                    queue.append(sh)
        return GroupModule(self.algebra, mats, check=False), incl

    def radical_submodule(self):
        rad = self.algebra.radical_basis()
        units = Matrix.identity(self.field, self.dim).rows
        vecs = [self.act_algebra(r, e) for r in rad for e in units]
        span = RowSpace(self.field, self.dim)
        basis = [v for v in vecs if span.insert(v)]
        return basis

    def direct_sum(self, other):
        mats = [a.direct_sum(b) for a, b in zip(self.mats, other.mats)]
        return GroupModule(self.algebra, mats, check=False)


def radical(algebra: GroupAlgebra):
    """The algebra's radical basis (its kept tuple), once the semisimplicity
    certificate of the quotient holds."""
    basis = algebra.radical_basis()
    if not algebra.semisimple_quotient_certificate():
        raise RepresentationError("semisimple quotient certificate failed")
    return basis


def principal_indecomposables(algebra: GroupAlgebra):
    """PIMs as submodules of the regular module, one per quotient character.

    Built once per algebra and kept on it: every projective cover over
    the algebra shares them.
    """
    if algebra._pims is None:
        reg = algebra.regular_module()
        out = []
        for chi, e in algebra.lifted_idempotents():
            basis = reg.submodule_span([e])
            mod, incl = reg.restrict_to(basis)
            out.append({"character": chi, "idempotent": e, "module": mod,
                        "inclusion": incl, "dim": mod.dim})
        algebra._pims = out
    return algebra._pims


def projective_cover(module: GroupModule):
    """(P, surjection matrix P -> M) with P a sum of PIMs matching the head.

    The module-map property is checked on the generators: if the map
    commutes with s and with w, it commutes with s*w.
    """
    algebra = module.algebra
    F = module.field
    if module.dim == 0:
        return GroupModule.zero(algebra), Matrix(F, [], ncols=0)
    rad_basis = module.radical_submodule()
    pims = principal_indecomposables(algebra)
    summands = []
    generators = []
    covered = RowSpace(F, module.dim)
    covered.extend(rad_basis)
    for pim in pims:
        e = pim["idempotent"]
        # head vectors lying in the chi-isotypic part: images of the lifted
        # idempotent, taken modulo the radical
        for unit in Matrix.identity(F, module.dim).rows:
            w = module.act_algebra(e, unit)
            if covered.insert(w):
                summands.append(pim)
                generators.append(w)
    if not summands:
        raise RepresentationError("no projective cover generators found")
    P = summands[0]["module"]
    for s in summands[1:]:
        P = P.direct_sum(s["module"])
    cols = []
    for s, gen in zip(summands, generators):
        incl = s["inclusion"]
        for j in range(s["module"].dim):
            a = incl.column(j)  # an element of kG
            cols.append(module.act_algebra(a, gen))
    surj = Matrix.from_columns(F, cols, module.dim)
    # surjectivity, module-map property, and minimality
    if surj.rank() != module.dim:
        raise RepresentationError("cover map is not surjective")
    for s in algebra.generators:
        if module.mats[s].mul(surj) != surj.mul(P.mats[s]):
            raise RepresentationError("cover map is not a module map")
    P_rad = RowSpace(F, P.dim)
    P_rad.extend(P.radical_submodule())
    for v in surj.kernel_basis():
        if not P_rad.contains(v):
            raise RepresentationError("cover is not minimal: kernel escapes the radical")
    return P, surj


def k_coradical_tower(module: GroupModule):
    """Smallest submodule with quotient an iterated extension of k.

    U(Y) = I(G)Y is spanned by s*y - y for the generators s: since
    (s*w - 1)y = (s - 1)(w*y) + (w - 1)y and Y is a submodule, induction
    on the word length of g gives every (g - 1)y.  Iterate until stable.
    Returns the basis of the stable submodule inside `module`.

    The loop leaves only through its break, where U(Y) has the dimension
    of Y and so equals it, or at once when U(M) = M: either way the
    returned Y has U(Y) = Y, which is the certificate, with nothing left
    to recompute.
    """
    F = module.field
    dim_prev = module.dim
    gens = [module.mats[s] for s in module.algebra.generators]

    def u_of(basis_vectors):
        vecs = []
        for v in basis_vectors:
            for m in gens:
                sv = m.apply(v)
                vecs.append([F.sub(x, y) for x, y in zip(sv, v)])
        span = RowSpace(F, module.dim)
        return [w for w in vecs if span.insert(w)]

    current = u_of(Matrix.identity(F, module.dim).rows)
    while len(current) < dim_prev:
        dim_prev = len(current)
        nxt = u_of(current)
        if len(nxt) == dim_prev:
            break
        current = nxt
    return current


def squeezed_resolution(group: GroupTable, field, steps):
    """Benson's recursion; returns (projective dims, homology dims HΩ_n for n <= steps)."""
    if steps < 0:
        raise RepresentationError(f"steps must be at least 0, got {steps}")
    algebra = GroupAlgebra(group, field)
    k = GroupModule.trivial(algebra)
    P0, d0 = projective_cover(k)
    projectives = [P0]
    diffs = [d0]  # diffs[i]: P_i -> P_{i-1} (with P_{-1} = k)
    for i in range(steps + 1):
        Pi = projectives[i]
        di = diffs[i]
        if Pi.dim == 0:
            projectives.append(GroupModule.zero(algebra))
            diffs.append(Matrix(field, [], ncols=0))
            continue
        # the kernel of a module map is a submodule already
        Ni, incl_N = Pi.restrict_to(di.kernel_basis())
        if Ni.dim == 0:
            projectives.append(GroupModule.zero(algebra))
            diffs.append(Matrix.zero(field, Pi.dim, 0))
            continue
        Mi_basis = k_coradical_tower(Ni)
        Mi, incl_M = Ni.restrict_to(Mi_basis)
        if Mi.dim == 0:
            projectives.append(GroupModule.zero(algebra))
            diffs.append(Matrix.zero(field, Pi.dim, 0))
            continue
        Pnext, cover = projective_cover(Mi)
        # P_{i+1} -> M_i -> N_i -> P_i
        d_next = incl_N.mul(incl_M.mul(cover))
        projectives.append(Pnext)
        diffs.append(d_next)
    homology = []
    for i in range(steps + 1):
        Pi = projectives[i]
        if Pi.dim == 0:
            homology.append(0)
            continue
        rank_out = diffs[i].rank() if i > 0 else 0  # degree 0 is not augmented
        ker_dim = Pi.dim - rank_out if i > 0 else Pi.dim
        rank_in = diffs[i + 1].rank()
        homology.append(ker_dim - rank_in)
    return [p.dim for p in projectives[:steps + 2]], homology
