"""Exact rational functions in one variable t, with Laurent support.

t counts codegree.  A SeriesExpr is a quotient of Laurent polynomials with
rational coefficients; equality is decided by cross-multiplication.  The
Gorenstein / almost-Gorenstein functional-equation checks live here, in
the codegree convention

    CM:        p(1/t) = (-1)^r t^(r+a) p(t)
    almost-CM: p(1/t) - (-1)^r t^(r+a) p(t) = (-1)^(r-1) (1+t) q(t)
               q(1/t) = (-1)^(r-1) t^(-(r-1)-a) q(t)

which matches the classical degree-variable form under a -> -a.
"""

from __future__ import annotations

from fractions import Fraction


class SeriesError(ValueError):
    pass


class LaurentPoly:
    """Laurent polynomial over QQ as a sparse exponent -> coefficient map."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = Fraction(v)
                if v != 0:
                    c[int(e)] = v
        self.coeffs = c

    @classmethod
    def const(cls, v):
        return cls({0: Fraction(v)})

    @classmethod
    def t_power(cls, e, v=1):
        return cls({e: Fraction(v)})

    def is_zero(self):
        return not self.coeffs

    def min_exp(self):
        if not self.coeffs:
            raise SeriesError("zero polynomial has no least exponent")
        return min(self.coeffs)

    def max_exp(self):
        if not self.coeffs:
            raise SeriesError("zero polynomial has no greatest exponent")
        return max(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + v
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + v1 * v2
        return LaurentPoly(out)

    def scale(self, v):
        v = Fraction(v)
        return LaurentPoly({e: c * v for e, c in self.coeffs.items()})

    def shift(self, k):
        return LaurentPoly({e + k: v for e, v in self.coeffs.items()})

    def pow(self, n):
        if n < 0:
            raise SeriesError("negative power of a polynomial")
        out = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def subs_inv(self):
        """Substitute t -> 1/t."""
        return LaurentPoly({-e: v for e, v in self.coeffs.items()})

    def evaluate(self, t0):
        t0 = Fraction(t0)
        acc = Fraction(0)
        for e, v in self.coeffs.items():
            if e >= 0:
                acc += v * t0 ** e
            else:
                if t0 == 0:
                    raise ZeroDivisionError("negative exponent at t=0")
                acc += v / t0 ** (-e)
        return acc

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def to_str(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            v = self.coeffs[e]
            if e == 0:
                term = str(v)
            else:
                tp = "t" if e == 1 else f"t^{e}"
                if v == 1:
                    term = tp
                elif v == -1:
                    term = f"-{tp}"
                else:
                    term = f"{v}*{tp}"
            parts.append(term)
        s = parts[0]
        for term in parts[1:]:
            s += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return s

    def __repr__(self):
        return f"LaurentPoly({self.to_str()})"


def _poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Division with remainder for ordinary polynomials (min exp >= 0)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = {}
    rem = dict(a.coeffs)
    db = b.max_exp()
    lb = b.coeffs[db]
    while rem:
        da = max(rem)
        if da < db:
            break
        c = rem[da] / lb
        q[da - db] = c
        for e, v in b.coeffs.items():
            e2 = e + da - db
            nv = rem.get(e2, Fraction(0)) - c * v
            if nv == 0:
                rem.pop(e2, None)
            else:
                rem[e2] = nv
    return LaurentPoly(q), LaurentPoly(rem)


def _poly_gcd(a: LaurentPoly, b: LaurentPoly):
    while not b.is_zero():
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    lead = a.coeffs[a.max_exp()]
    return a.scale(1 / lead)


class SeriesExpr:
    """Rational function num/den in t; normalized on construction.

    Canonical form: num and den are ordinary polynomials times a single
    t^shift carried on the numerator side (shift may be negative), den has
    nonzero constant term and its lowest coefficient equals 1, and
    gcd(num, den) = 1.
    """

    __slots__ = ("num", "den", "shift")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero():
            raise SeriesError("zero denominator")
        if num.is_zero():
            self.num = LaurentPoly()
            self.den = LaurentPoly.const(1)
            self.shift = 0
            return
        sn = num.min_exp()
        sd = den.min_exp()
        num = num.shift(-sn)
        den = den.shift(-sd)
        g = _poly_gcd(num, den)
        if not (g.max_exp() == 0 and g.coeffs.get(0) == 1):
            num, _ = _poly_divmod(num, g)
            den, _ = _poly_divmod(den, g)
        c = den.coeffs[den.min_exp()]  # den.min_exp() == 0 after shifting
        if c != 1:
            num = num.scale(1 / c)
            den = den.scale(1 / c)
        self.num = num
        self.den = den
        self.shift = sn - sd

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(LaurentPoly(), LaurentPoly.const(1))

    @classmethod
    def const(cls, v):
        return cls(LaurentPoly.const(v), LaurentPoly.const(1))

    @classmethod
    def t_power(cls, e, v=1):
        return cls(LaurentPoly.t_power(e, v), LaurentPoly.const(1))

    @classmethod
    def from_poly(cls, p: LaurentPoly):
        return cls(p, LaurentPoly.const(1))

    # -- arithmetic ------------------------------------------------------

    def _num_shifted(self):
        return self.num.shift(self.shift)

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        return SeriesExpr(self._num_shifted() * other.den + other._num_shifted() * self.den,
                          self.den * other.den)

    def __neg__(self):
        return SeriesExpr(-self._num_shifted(), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return SeriesExpr(self._num_shifted() * other._num_shifted(),
                          self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division of series by zero")
        return SeriesExpr(self._num_shifted() * other.den,
                          other._num_shifted() * self.den)

    def pow(self, n):
        if n >= 0:
            return SeriesExpr(self._num_shifted().pow(n), self.den.pow(n))
        inv = SeriesExpr.const(1) / self
        return inv.pow(-n)

    def subs_inv(self):
        """The rational function p(1/t)."""
        return SeriesExpr(self._num_shifted().subs_inv(), self.den.subs_inv())

    def __eq__(self, other):
        if not isinstance(other, SeriesExpr):
            return NotImplemented
        return (self._num_shifted() * other.den) == (other._num_shifted() * self.den)

    def __hash__(self):
        return hash((self.num, self.den, self.shift))

    # -- expansion -------------------------------------------------------

    def least_exponent(self):
        if self.is_zero():
            return None
        return self.shift + self.num.min_exp()  # num.min_exp() == 0

    def expand(self, n_min: int, n_max: int):
        """Exact coefficients of t^n for n in [n_min, n_max]."""
        if n_min > n_max:
            raise SeriesError("empty expansion window")
        if self.is_zero():
            return [Fraction(0)] * (n_max - n_min + 1)
        least = self.least_exponent()
        if n_min < least:
            raise SeriesError(
                f"window starts at {n_min}, below the series' least exponent {least}")
        # series = t^shift * num/den with den(0) = 1
        need = n_max - self.shift
        coeffs = [Fraction(0)] * (need + 1)
        den = self.den
        num = self.num
        for n in range(need + 1):
            c = num.coeffs.get(n, Fraction(0))
            for e, v in den.coeffs.items():
                if 1 <= e <= n:
                    c -= v * coeffs[n - e]
            coeffs[n] = c  # den constant term is 1
        return [coeffs[n - self.shift] if 0 <= n - self.shift <= need else Fraction(0)
                for n in range(n_min, n_max + 1)]

    def evaluate(self, t0):
        t0 = Fraction(t0)
        d = self.den.evaluate(t0)
        if d == 0:
            raise ZeroDivisionError(f"pole at t={t0}")
        v = self.num.evaluate(t0) / d
        if self.shift:
            if t0 == 0:
                raise ZeroDivisionError("t^negative at 0")
            v *= Fraction(t0) ** self.shift if self.shift > 0 else 1 / Fraction(t0) ** (-self.shift)
        return v

    def to_str(self):
        num = self._num_shifted()
        if num.is_zero():
            return "0"
        ns = num.to_str()
        if self.den == LaurentPoly.const(1):
            return ns
        ds = self.den.to_str()
        if len(num.coeffs) > 1:
            ns = f"({ns})"
        return f"{ns}/({ds})"

    def __repr__(self):
        return f"SeriesExpr({self.to_str()})"


class DualityParams:
    """Krull dimension r >= 0 and Gorenstein shift a (codegree convention)."""

    def __init__(self, krull_dim: int, shift: int = 0):
        if krull_dim < 0:
            raise SeriesError("Krull dimension must be >= 0")
        self.r = int(krull_dim)
        self.a = int(shift)

    def __repr__(self):
        return f"DualityParams(r={self.r}, a={self.a})"


def _sign(k):
    return SeriesExpr.const(1 if k % 2 == 0 else -1)


def check_cm_functional_equation(p: SeriesExpr, params: DualityParams) -> bool:
    """p(1/t) == (-1)^r t^(r+a) p(t), as an exact identity."""
    lhs = p.subs_inv()
    rhs = _sign(params.r) * SeriesExpr.t_power(params.r + params.a) * p
    return lhs == rhs


class NotAlmostCM(Exception):
    """The defect series is not almost-CM-shaped."""


def solve_almost_cm(p: SeriesExpr, params: DualityParams) -> SeriesExpr:
    """Solve the pair of almost-CM functional equations for q.

    Returns q when both equations hold; raises NotAlmostCM otherwise.
    A CM series yields q = 0.
    """
    r, a = params.r, params.a
    diff = p.subs_inv() - _sign(r) * SeriesExpr.t_power(r + a) * p
    q = _sign(r - 1) * diff / SeriesExpr.from_poly(LaurentPoly({0: 1, 1: 1}))
    # q must have no pole at t = -1 (the (1+t) division must be clean)
    if q.den.evaluate(Fraction(-1)) == 0:
        raise NotAlmostCM("defect series has a pole at t=-1 (not almost-CM-shaped)")
    lhs = q.subs_inv()
    rhs = _sign(r - 1) * SeriesExpr.t_power(-(r - 1) - a) * q
    if lhs != rhs:
        raise NotAlmostCM("second almost-CM functional equation fails")
    return q
