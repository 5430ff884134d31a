"""Exact field arithmetic over QQ, GF(p) and small extensions GF(p^k).

Every field object exposes the same small protocol (zero, one, add, sub,
mul, neg, inv, from_int, validate, format, and `packed`, true for GF(2)
alone, whose vectors linalg stores as ints with one bit per column).
Elements are Fraction for the rationals and plain ints for every finite
field: [0, p) for GF(p) and [0, p^k) for GF(p^k), whose int a stands for
the residue polynomial with the base-p digits of a as coefficients.
Tuples of those coefficients appear only at the boundary: `format` prints
them and `validate` accepts them.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    """Invalid field specification or element."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


_ZERO, _ONE = Fraction(0), Fraction(1)


class Rationals:
    """The field QQ with Fraction elements."""

    char = 0
    name = "QQ"
    packed = False

    # Fractions are immutable, so every caller can share these two
    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def validate(self, a):
        if not isinstance(a, (Fraction, int)):
            raise FieldError(f"not a rational scalar: {a!r}")
        return Fraction(a)

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p), elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.name = f"GF({p})"
        self.packed = p == 2

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def validate(self, a):
        if not isinstance(a, int):
            raise FieldError(f"not a GF({self.p}) scalar: {a!r}")
        return a % self.p

    def format(self, a):
        return str(a % self.p)

    def elements(self):
        return list(range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GFp", self.p))

    def __repr__(self):
        return self.name


# The modulus of each built-in GF(p^k): a monic irreducible polynomial of
# degree k over GF(p), coefficients low-to-high.
_MODULI = {
    (2, 2): (1, 1, 1),            # u^2 + u + 1
    (2, 3): (1, 1, 0, 1),         # u^3 + u + 1
    (2, 4): (1, 1, 0, 0, 1),      # u^4 + u + 1
    (3, 2): (1, 0, 1),            # u^2 + 1
    (3, 3): (1, 2, 0, 1),         # u^3 + 2u + 1
    (5, 2): (2, 0, 1),            # u^2 + 2
    (5, 3): (1, 1, 0, 1),         # u^3 + u + 1
    (7, 2): (1, 0, 1),            # u^2 + 1
}


class ExtensionField:
    """GF(p^k) for a built-in (p, k), k >= 2, with int elements in [0, p^k).

    The int a stands for the residue polynomial whose coefficients are the
    base-p digits of a, constant term first: 0..p-1 is the prime field and
    p is the class of u, a root of the modulus.  add, sub, neg, mul and inv
    are lookups in tables built once; building them certifies the field,
    since every nonzero element must have an inverse.
    """

    def __init__(self, p: int, k: int):
        try:
            modulus = _MODULI[(p, k)]
        except KeyError:
            raise FieldError(f"no built-in GF({p}^{k}); built in: " +
                             ", ".join(f"GF({a}^{b})" for a, b in _MODULI))
        self.p = p
        self.k = k
        self.q = q = p ** k
        self.modulus = modulus
        self.char = p
        self.name = f"GF({p}^{k})"
        self.packed = False
        self._digits = digits = [tuple(a // p ** i % p for i in range(k)) for a in range(q)]
        enc = self._encode
        self._add = [[enc(x + y for x, y in zip(da, db)) for db in digits] for da in digits]
        self._neg = [enc(-x for x in da) for da in digits]
        self._sub = [[row[b] for b in self._neg] for row in self._add]
        self._mul = []
        for da in digits:
            # a*u^i for i < k: shift up, and replace u^k by minus the lower terms
            shifts = [da]
            for _ in range(k - 1):
                s = shifts[-1]
                shifts.append(tuple(lo - s[-1] * m for lo, m in zip((0,) + s[:-1], modulus)))
            self._mul.append([enc(sum(c * s[j] for c, s in zip(db, shifts)) for j in range(k))
                              for db in digits])
        self._inv = [0] * q
        for a in range(1, q):
            try:
                self._inv[a] = self._mul[a].index(1)
            except ValueError:
                raise FieldError(f"{self.format(a)} has no inverse: "
                                 f"the modulus {modulus} is reducible over GF({p})")

    def _encode(self, coeffs):
        """The element with these residue-polynomial coefficients (taken mod p)."""
        p = self.p
        return sum(c % p * p ** i for i, c in enumerate(coeffs))

    def zero(self):
        return 0

    def one(self):
        return 1

    def generator(self):
        """The class of u, a root of the modulus."""
        return self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._sub[a][b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def validate(self, a):
        """An int in [0, q), or a k-tuple of residue-polynomial coefficients."""
        if isinstance(a, int) and 0 <= a < self.q:
            return a
        if isinstance(a, tuple) and len(a) == self.k and all(isinstance(c, int) for c in a):
            return self._encode(a)
        raise FieldError(f"not a {self.name} scalar: {a!r}")

    def format(self, a):
        if a < self.p:
            return str(a)
        return "(" + ",".join(str(c) for c in self._digits[a]) + ")"

    def elements(self):
        return list(range(self.q))

    def __eq__(self, other):
        return isinstance(other, ExtensionField) and (other.p, other.k) == (self.p, self.k)

    def __hash__(self):
        return hash(("GFq", self.p, self.k))

    def __repr__(self):
        return self.name


class FieldSpec:
    """Declarative field description: QQ, GF(p) or GF(p^k)."""

    def __init__(self, char: int = 0, degree: int = 1):
        if char == 0:
            if degree != 1:
                raise FieldError("characteristic 0 admits no extension degree")
        elif not is_prime(char):
            raise FieldError(f"characteristic {char} is not prime")
        self.char = char
        self.degree = degree

    def build(self):
        if self.char == 0:
            return Rationals()
        if self.degree == 1:
            return PrimeField(self.char)
        return ExtensionField(self.char, self.degree)

    def __repr__(self):
        if self.char == 0:
            return "FieldSpec(QQ)"
        return f"FieldSpec(GF({self.char}^{self.degree}))"
