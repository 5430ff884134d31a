"""Recursive-descent parser for polynomial and series expressions.

Grammar (implicit multiplication is not allowed):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' | '/' factor)*
    factor := atom ('^' int)?
    atom   := int | ident | '(' expr ')'

'^' accepts an optional leading '-' on its integer exponent.  Division is
only legal in series expressions; polynomial contexts reject it.
"""

from __future__ import annotations

from .series import SeriesExpr


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_OPERATORS = set("+-*/^()")


def tokenize(src: str):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("int", int(src[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Parses onto an abstract value algebra supplied by the caller."""

    def __init__(self, src, ops):
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0
        self.ops = ops

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[0]}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        v = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[0]} token", tok[2])
        return v

    def expr(self):
        if self.peek()[0] == "-":  # unary minus: -x parses as 0 - x
            self.take()
            v = self.ops["sub"](self.ops["const"](0), self.term())
        else:
            v = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            w = self.term()
            v = self.ops["add"](v, w) if op == "+" else self.ops["sub"](v, w)
        return v

    def term(self):
        v = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            w = self.factor()
            if op == "*":
                v = self.ops["mul"](v, w)
            else:
                if "div" not in self.ops:
                    raise ParseError("division is not allowed here", pos)
                v = self.ops["div"](v, w)
        return v

    def factor(self):
        v = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.take()
            neg = False
            if self.peek()[0] == "-":
                self.take()
                neg = True
            tok = self.take("int")
            e = -tok[1] if neg else tok[1]
            v = self.ops["pow"](v, e, pos)
        return v

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.take()
            return self.ops["const"](value)
        if kind == "ident":
            self.take()
            return self.ops["var"](value, pos)
        if kind == "(":
            self.take()
            v = self.expr()
            tok = self.peek()
            if tok[0] != ")":
                raise ParseError("expected ')'", tok[2])
            self.take()
            return v
        raise ParseError(f"expected a value, found {kind}", pos)


def parse_series(src: str) -> SeriesExpr:
    """Parse a rational series expression in the variable t."""

    def var(name, pos):
        if name != "t":
            raise ParseError(f"unknown variable {name!r} in a series (only 't')", pos)
        return SeriesExpr.t_power(1)

    def power(v, e, pos):
        if e < 0 and v.is_zero():
            raise ParseError("negative power of zero", pos)
        return v.pow(e)

    ops = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "pow": power,
        "const": SeriesExpr.const,
        "var": var,
    }
    return _Parser(src, ops).parse()


def parse_poly(src: str, ring):
    """Parse a polynomial in the generators of `ring`.

    Returns a ring polynomial (monomial dict).  Homogeneity is NOT checked
    here; ring constructors enforce it where required.
    """

    def var(name, pos):
        try:
            idx = ring.gen_index[name]
        except KeyError:
            raise ParseError(f"unknown generator {name!r}", pos)
        return ring.gen_poly(idx)

    def power(v, e, pos):
        if e < 0:
            raise ParseError("negative exponents are not allowed in polynomials", pos)
        return ring.ppow(v, e)

    ops = {
        "add": ring.padd,
        "sub": ring.psub,
        "mul": ring.pmul,
        "pow": power,
        "const": lambda n: ring.pconst(n),
        "var": var,
    }
    return _Parser(src, ops).parse()


def parse_homogeneous(src: str, ring):
    """Parse and require a homogeneous polynomial; returns (poly, codegree)."""
    p = parse_poly(src, ring)
    d = ring.poly_codegree(p)  # raises if inhomogeneous
    return p, d

def ring_with_relations(field, generators, relations):
    """A graded ring from (name, codegree) pairs and relation strings."""
    from .rings import GradedRing
    free = GradedRing(field, generators, [])
    parsed = [parse_homogeneous(src, free)[0] for src in relations]
    return GradedRing(field, generators, parsed)
