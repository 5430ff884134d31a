"""Exact field arithmetic over QQ, GF(p) and small extensions GF(p^k).

Every field object exposes the same small protocol (zero, one, add, sub,
mul, neg, inv, from_int, validate).  Elements are plain hashable Python
values: Fraction for the rationals, int in [0, p) for prime fields, and a
tuple of ints (coefficients of the residue polynomial, low degree first)
for extensions.  No floating point anywhere.
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


class Rationals:
    """The field QQ with Fraction elements."""

    char = 0
    name = "QQ"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

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


# Built-in irreducible polynomials (coefficients low-to-high, monic),
# enough for the extensions the examples need (k <= 4).
_DEFAULT_MIN_POLY = {
    (2, 2): (1, 1, 1),            # u^2 + u + 1
    (2, 3): (1, 1, 0, 1),         # u^3 + u + 1
    (2, 4): (1, 1, 0, 0, 1),      # u^4 + u + 1
    (3, 2): (1, 0, 1),            # u^2 + 1
    (3, 3): (1, 2, 0, 1),         # u^3 + 2u + 1
    (5, 2): (2, 0, 1),            # u^2 + 2
    (5, 3): (2, 1, 0, 1),
    (7, 2): (1, 0, 1),
}


def _poly_mod_mul(a, b, mod, p):
    """Multiply residue polynomials (tuples) modulo `mod` over GF(p)."""
    k = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
    out = prod[:k]
    out += [0] * (k - len(out))
    return tuple(out)


def _is_irreducible(coeffs, p):
    """Brute-force irreducibility over GF(p) for degree <= 4."""
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] % p == 0:
        return False
    if deg == 1:
        return True
    for r in range(p):
        v = 0
        for c in reversed(coeffs):
            v = (v * r + c) % p
        if v == 0:
            return False
    if deg <= 3:
        return True
    # degree 4: also rule out irreducible quadratic factors
    for b in range(p):
        for c in range(p):
            quad = (c, b, 1)
            if not _is_irreducible(quad, p):
                continue
            if _poly_divides(quad, coeffs, p):
                return False
    return True


def _poly_divides(d, f, p):
    f = [c % p for c in f]
    dd = len(d) - 1
    inv_lead = pow(d[-1], p - 2, p)
    for i in range(len(f) - 1, dd - 1, -1):
        c = f[i]
        if c:
            q = c * inv_lead % p
            for j in range(dd + 1):
                f[i - dd + j] = (f[i - dd + j] - q * d[j]) % p
    return all(c == 0 for c in f)


class ExtensionField:
    """GF(p^k) as residues modulo an irreducible polynomial.

    Elements are k-tuples of ints (coefficients, constant term first).
    """

    def __init__(self, p: int, k: int, min_poly=None):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if k < 1 or k > 4:
            raise FieldError("extension degree must be in 1..4")
        if min_poly is None:
            if k == 1:
                min_poly = (0, 1)
            else:
                try:
                    min_poly = _DEFAULT_MIN_POLY[(p, k)]
                except KeyError:
                    raise FieldError(f"no built-in minimal polynomial for GF({p}^{k})")
        min_poly = tuple(c % p for c in min_poly)
        if len(min_poly) != k + 1:
            raise FieldError("minimal polynomial degree must equal the extension degree")
        if min_poly[-1] != 1:
            raise FieldError("minimal polynomial must be monic")
        if not _is_irreducible(min_poly, p):
            raise FieldError(f"minimal polynomial {min_poly} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.min_poly = min_poly
        self.char = p
        self.name = f"GF({p}^{k})"

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def generator(self):
        """The residue class of the variable (a root of the minimal polynomial)."""
        if self.k == 1:
            return self.from_int(1)
        return (0, 1) + (0,) * (self.k - 2)

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        return _poly_mod_mul(a, b, self.min_poly, self.p)

    def inv(self, a):
        if all(c == 0 for c in a):
            raise ZeroDivisionError("inverse of 0")
        # a^(q-2) with q = p^k
        q = self.p ** self.k
        result = self.one()
        base = a
        e = q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def validate(self, a):
        if isinstance(a, int):
            return self.from_int(a)
        if not (isinstance(a, tuple) and len(a) == self.k):
            raise FieldError(f"not a {self.name} scalar: {a!r}")
        return tuple(c % self.p for c in a)

    def format(self, a):
        if all(c == 0 for c in a[1:]):
            return str(a[0])
        return "(" + ",".join(str(c) for c in a) + ")"

    def elements(self):
        out = [()]
        for _ in range(self.k):
            out = [e + (c,) for e in out for c in range(self.p)]
        return out

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.k == self.k and other.min_poly == self.min_poly)

    def __hash__(self):
        return hash(("GFq", self.p, self.k, self.min_poly))

    def __repr__(self):
        return self.name


class FieldSpec:
    """Declarative field description: QQ, GF(p) or GF(p^k)."""

    def __init__(self, char: int = 0, degree: int = 1, min_poly=None):
        if char == 0:
            if degree != 1:
                raise FieldError("characteristic 0 admits no extension degree")
        elif not is_prime(char):
            raise FieldError(f"characteristic {char} is not prime")
        self.char = char
        self.degree = degree
        self.min_poly = tuple(min_poly) if min_poly is not None else None

    def build(self):
        if self.char == 0:
            return Rationals()
        if self.degree == 1 and self.min_poly is None:
            return PrimeField(self.char)
        return ExtensionField(self.char, self.degree, self.min_poly)

    def __repr__(self):
        if self.char == 0:
            return "FieldSpec(QQ)"
        return f"FieldSpec(GF({self.char}^{self.degree}))"
