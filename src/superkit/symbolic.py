"""Exact polynomials, one expression grammar, and zero tests modulo an ideal.

Group-level conditions are polynomial identities in formal matrix entries,
reduced modulo the relations of a generic element (e.g. alpha*alpha_i - 1).
A `Poly` has its coefficients in the pair's own field; `Reducer` decides
ideal membership by division through a lex Groebner basis (Buchberger's
algorithm; Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 2).
`parse` reads text by recursive descent, running none of it as code, into
any ring: Polys, or a superalgebra for the command line.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import add, mul, sub


class ParseError(ValueError):
    """Text that is not a polynomial in the grammar of `parse`."""


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(r"[0-9]+(?:/[0-9]+)?|%s|\*\*|\S" % _NAME.pattern)

# bounds that keep hostile text from exhausting the stack or the memory
_MAX_DEPTH = 64
_MAX_EXPONENT = 64


def is_name(text):
    """Whether text is one name token of the grammar of `parse`."""
    return _NAME.fullmatch(text) is not None


def parse(text, const, var):
    """The value of polynomial text in a commutative ring.

    Grammar: a sum of terms, the first of which may carry a sign; a term
    is a product of factors; a factor is a number (n or n/d), a name or a
    parenthesised sum, raised optionally to a power 0..64 with ^ or **.
    const(numeral) and var(name) give the ring's values; the ring's own
    +, -, unary - and * do the rest.  Any other text raises ParseError."""
    toks = _TOKEN.findall(text) + [None]
    pos = 0

    def accept(*ops):
        nonlocal pos
        if toks[pos] not in ops:
            return None
        pos += 1
        return toks[pos - 1]

    def fail(what):
        found = "the end" if toks[pos] is None else repr(toks[pos])
        raise ParseError("expected %s, found %s in %r" % (what, found, text))

    def expr(depth):
        if depth > _MAX_DEPTH:
            raise ParseError("parentheses nested too deep in %r" % text)
        value = -term(depth) if accept("+", "-") == "-" else term(depth)
        while True:
            op = accept("+", "-")
            if op is None:
                return value
            value = value + term(depth) if op == "+" else value - term(depth)

    def term(depth):
        value = factor(depth)
        while accept("*"):
            value = value * factor(depth)
        return value

    def factor(depth):
        tok = toks[pos]
        if accept("("):
            value = expr(depth + 1)
            if not accept(")"):
                fail("')'")
        elif tok and tok[0].isascii() and (tok[0].isalnum() or tok[0] == "_"):
            value = const(tok) if tok[0].isdigit() else var(tok)
            accept(tok)
        else:
            fail("a number, a name or '('")
        if accept("^", "**"):
            n = toks[pos]
            if not (n and n.isascii() and n.isdigit() and int(n) <= _MAX_EXPONENT):
                fail("an exponent in 0..%d" % _MAX_EXPONENT)
            accept(n)
            value = reduce(mul, [value] * int(n), const("1"))
        return value

    value = expr(0)
    if toks[pos] is not None:
        fail("an operator")
    return value


def _merge(a, b, op):
    """The monomial with exponent op(a's, b's) at each name.  A monomial
    is a tuple of (name, exponent) pairs sorted by name, () for 1."""
    exps = dict(a)
    for v, e in b:
        exps[v] = op(exps.get(v, 0), e)
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _lex_key(mono):
    """Ascending keys are descending monomials in lex order (earlier names
    are larger variables): at the first name where two monomials differ the
    larger exponent wins, and one without it meets a later name or "~"."""
    return tuple((v, -e) for v, e in mono) + (("~",),)


class Poly:
    """A polynomial over a field: terms maps monomials to nonzero scalars."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {} if terms is None else terms

    @classmethod
    def const(cls, field, c):
        return cls(field, {(): c} if c else {})

    @classmethod
    def read(cls, field, text, names=None):
        """The polynomial str(text) over field (see parse); with `names`,
        any other name raises ParseError."""
        text = str(text)

        def var(name):
            if names is not None and name not in names:
                raise ParseError("unknown name %r in %r" % (name, text))
            return cls(field, {((name, 1),): field.one})

        return parse(text, lambda s: cls.const(field, field.parse(s)), var)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and self.terms == other.terms

    def __neg__(self):
        return Poly(self.field, {m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms[m] + c if m in terms else c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return Poly(self.field, terms)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        """Product with a Poly or with a field scalar."""
        if not isinstance(other, Poly):
            return Poly(self.field, {m: c * other for m, c in self.terms.items()} if other else {})
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _merge(m1, m2, add)
                terms[m] = terms[m] + c1 * c2 if m in terms else c1 * c2
        return Poly(self.field, {m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    def __str__(self):
        """Terms in descending lex order, in the grammar of `parse`."""
        parts = []
        for m in sorted(self.terms, key=_lex_key):
            c = self.field.render(self.terms[m])
            factors = [] if m and c.lstrip("-") == "1" else [c.lstrip("-")]
            factors += [v if e == 1 else "%s^%d" % (v, e) for v, e in m]
            parts.append(("- " if c.startswith("-") else "+ ") + "*".join(factors))
        text = " ".join(parts) or "+ 0"
        return text[2:] if text[0] == "+" else "-" + text[2:]

    __repr__ = __str__


def eval_at(poly, assignment, one):
    """poly at the values assignment[name] in the ring whose unit is `one`:
    the field, Polys, or a superalgebra at even (commuting) elements.

    The values commute, so each monomial multiplies its factors first and
    is scaled by its coefficient once, and the sum starts at the first
    term: `one` enters only a constant term or the zero polynomial."""
    out = None
    for mono, c in poly.terms.items():
        term = None
        for name, e in mono:
            x = assignment[name]
            for _ in range(e):
                term = x if term is None else term * x
        term = one * c if term is None else term * c
        out = term if out is None else out + term
    return one * poly.field.zero if out is None else out


def _remainder(poly, basis):
    """The terms of the remainder of poly on division by basis, a list of
    (leading monomial, tail) pairs of monic polynomials."""
    p = dict(poly.terms)
    rem = {}
    while p:
        m = min(p, key=_lex_key)
        c = p.pop(m)
        for lm, tail in basis:
            q = _merge(m, lm, sub)
            if all(e > 0 for _, e in q):
                for tm, tc in tail.terms.items():
                    mm = _merge(q, tm, add)
                    s = p[mm] - c * tc if mm in p else -c * tc
                    if s:
                        p[mm] = s
                    else:
                        del p[mm]
                break
        else:
            rem[m] = c
    return rem


class Reducer:
    """Zero test modulo the ideal of a list of relations over one field: a
    lex Groebner basis built once by Buchberger's algorithm, each element
    monic and kept as its leading monomial and its tail, then division."""

    def __init__(self, relations):
        self.basis = []
        for r in filter(None, relations):
            self._add(r)
        pairs = [(i, j) for j in range(len(self.basis)) for i in range(j)]
        while pairs:
            i, j = pairs.pop()
            (lf, f), (lg, g) = self.basis[i], self.basis[j]
            lcm = _merge(lf, lg, max)
            if len(lcm) == len(lf) + len(lg):
                continue  # coprime leading monomials: the S-polynomial reduces to 0
            # S-polynomial: the leading terms cancel, so only the tails enter
            one = f.field.one
            s = f * Poly(f.field, {_merge(lcm, lf, sub): one}) - g * Poly(g.field, {_merge(lcm, lg, sub): one})
            h = _remainder(s, self.basis)
            if h:
                pairs.extend((k, len(self.basis)) for k in range(len(self.basis)))
                self._add(Poly(f.field, h))

    def _add(self, poly):
        lm = min(poly.terms, key=_lex_key)
        inv = poly.field.inv(poly.terms[lm])
        tail = {m: c * inv for m, c in poly.terms.items() if m != lm}
        self.basis.append((lm, Poly(poly.field, tail)))

    def is_zero(self, poly):
        return not _remainder(poly, self.basis)
