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
