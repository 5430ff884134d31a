from fractions import Fraction

import pytest

from gradedalg import fields
from gradedalg.fields import (PrimeField, ExtensionField, Rationals, FieldSpec,
                              FieldError, is_prime)

BUILT_IN = sorted(fields._MODULI)


def test_rationals_arithmetic():
    F = Rationals()
    a, b = Fraction(3, 4), Fraction(-2, 5)
    assert F.add(a, b) == Fraction(7, 20)
    assert F.mul(a, F.inv(a)) == F.one()
    assert F.sub(a, a) == F.zero()
    assert F.from_int(-7) == Fraction(-7)
    assert F.char == 0


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.from_int(10) == 3
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert len(list(F.elements())) == 7


def test_prime_field_rejects_composite_characteristic():
    with pytest.raises(FieldError):
        PrimeField(6)


def test_inverse_of_zero_rejected():
    for F in (Rationals(), PrimeField(5), ExtensionField(2, 2)):
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero())


@pytest.mark.parametrize("p,k", BUILT_IN)
def test_extension_field_is_a_field(p, k):
    F = ExtensionField(p, k)
    elems = list(F.elements())
    assert len(elems) == p ** k
    nonzero = [x for x in elems if x != F.zero()]
    # every nonzero element has a two-sided inverse
    for x in nonzero:
        assert F.mul(x, F.inv(x)) == F.one()
        assert F.mul(F.inv(x), x) == F.one()
    assert FieldSpec(p, k).build() == F


# Reference arithmetic on residue polynomials: tuples of coefficients,
# constant term first, reduced modulo the field's monic modulus.

def _ref_mul(a, b, mod, p):
    k = len(mod) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i]
        for j in range(k + 1):
            prod[i - k + j] -= c * mod[j]
    return tuple(c % p for c in prod[:k])


def _ref_elements(p, k):
    out = [()]
    for _ in range(k):
        out = [e + (c,) for e in out for c in range(p)]
    return out


def _ref_format(a):
    return str(a[0]) if not any(a[1:]) else "(" + ",".join(map(str, a)) + ")"


@pytest.mark.parametrize("p,k", BUILT_IN)
def test_extension_field_matches_residue_polynomial_arithmetic(p, k):
    F = ExtensionField(p, k)
    mod = F.modulus
    elems = _ref_elements(p, k)
    enc = {a: F.validate(a) for a in elems}
    assert sorted(enc.values()) == list(range(p ** k))
    one = (1,) + (0,) * (k - 1)
    for a in elems:
        x = enc[a]
        assert F.neg(x) == enc[tuple(-c % p for c in a)]
        assert F.format(x) == _ref_format(a)
        if any(a):
            inverse = next(b for b in elems if _ref_mul(a, b, mod, p) == one)
            assert F.inv(x) == enc[inverse]
        for b in elems:
            y = enc[b]
            assert F.add(x, y) == enc[tuple((c + d) % p for c, d in zip(a, b))]
            assert F.sub(x, y) == enc[tuple((c - d) % p for c, d in zip(a, b))]
            assert F.mul(x, y) == enc[_ref_mul(a, b, mod, p)]
    assert F.generator() == enc[(0, 1) + (0,) * (k - 2)]


def test_extension_field_validate_takes_ints_in_range_and_k_tuples():
    F = ExtensionField(3, 2)
    assert F.validate(0) == 0 and F.validate(8) == 8
    assert F.validate((2, 1)) == 5
    assert F.validate((4, -1)) == 7  # tuple coefficients are taken mod p
    for bad in (9, -1, (1, 0, 0), (1,), (1.0, 0), 1.5, Fraction(1, 2), "1"):
        with pytest.raises(FieldError):
            F.validate(bad)


def test_a_reducible_modulus_fails_the_table_certificate(monkeypatch):
    # u^3 + u + 2 has the root u = 4 over GF(5), so the residues have zero divisors
    monkeypatch.setitem(fields._MODULI, (5, 3), (2, 1, 0, 1))
    with pytest.raises(FieldError, match="reducible"):
        ExtensionField(5, 3)


# The tables as ExtensionField built them term by term before it built
# them by lookup: every sum and product encoded afresh from its digits.

def _term_by_term_tables(p, k, modulus):
    q = p ** k
    digits = [tuple(a // p ** i % p for i in range(k)) for a in range(q)]

    def enc(coeffs):
        return sum(c % p * p ** i for i, c in enumerate(coeffs))

    add = [[enc(x + y for x, y in zip(da, db)) for db in digits] for da in digits]
    neg = [enc(-x for x in da) for da in digits]
    sub = [[row[b] for b in neg] for row in add]
    mul = []
    for da in digits:
        # a*u^i for i < k: shift up, and replace u^k by minus the lower terms
        shifts = [da]
        for _ in range(k - 1):
            s = shifts[-1]
            shifts.append(tuple(lo - s[-1] * m for lo, m in zip((0,) + s[:-1], modulus)))
        mul.append([enc(sum(c * s[j] for c, s in zip(db, shifts)) for j in range(k))
                    for db in digits])
    inv = [0] * q
    for a in range(1, q):
        if 1 not in mul[a]:
            raise FieldError("reducible")
        inv[a] = mul[a].index(1)
    return {"_add": add, "_sub": sub, "_neg": neg, "_mul": mul, "_inv": inv}


@pytest.mark.parametrize("p,k", BUILT_IN)
def test_lookup_built_tables_match_the_term_by_term_construction(p, k):
    F = ExtensionField(p, k)
    for name, table in _term_by_term_tables(p, k, fields._MODULI[(p, k)]).items():
        assert getattr(F, name) == table, name


@pytest.mark.parametrize("p,k,modulus", [
    (2, 2, (1, 0, 1)),      # u^2 + 1 = (u + 1)^2
    (3, 2, (2, 0, 1)),      # u^2 + 2 = (u + 1)(u + 2)
    (2, 4, (1, 0, 0, 0, 1)),  # u^4 + 1 = (u + 1)^4
])
def test_a_reducible_modulus_fails_both_constructions(monkeypatch, p, k, modulus):
    with pytest.raises(FieldError):
        _term_by_term_tables(p, k, modulus)
    monkeypatch.setitem(fields._MODULI, (p, k), modulus)
    with pytest.raises(FieldError, match="reducible"):
        ExtensionField(p, k)


def test_only_built_in_extensions_exist():
    for p, k in [(2, 1), (2, 5), (11, 2), (4, 2)]:
        with pytest.raises(FieldError):
            ExtensionField(p, k)


def test_extension_field_generator_has_full_order():
    F = ExtensionField(2, 2)
    g = F.generator()
    powers = {F.one()}
    x = g
    for _ in range(3):
        powers.add(x)
        x = F.mul(x, g)
    assert len(powers) == 3  # the multiplicative group of GF(4) is cyclic of order 3


def test_field_spec_round_trip():
    assert FieldSpec(0).build() == Rationals()
    assert FieldSpec(5).build() == PrimeField(5)
    assert FieldSpec(2, 2).build() == ExtensionField(2, 2)


def test_is_prime_small_cases():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
