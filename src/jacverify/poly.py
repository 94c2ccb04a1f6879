"""Exact sparse multivariate polynomials over the rationals.

The ambient ring for a fixed dimension ``n`` has variables

    t,  x[1], ..., x[n],  a[1,1], a[1,2], ..., a[n,n]

in that order.  A monomial is stored as a dense exponent tuple over this
variable list (length ``1 + n + n*n``), and a polynomial is a dict mapping
exponent tuples to nonzero ``Fraction`` coefficients.  The zero polynomial
has an empty term dict.  All values are immutable by convention: no
operation mutates its inputs, so polynomials are safe to share across
threads or processes.

The canonical term order is graded lexicographic with t the least
significant variable and a[n,n] the most significant.  Text output lists
terms in ascending canonical order, which makes every printed polynomial
byte-reproducible; ``parse_poly`` reads the same grammar back.

Signed products of a-variables (fern paths, state and generator weights,
tree weights) are built by ``a_monomial``, which writes the whole product
into one exponent vector instead of multiplying one-variable polynomials.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping


class StructuralError(ValueError):
    """Malformed or incompatible inputs (wrong ambient n, missing variable)."""


class DomainError(ValueError):
    """Inputs outside an operation's stated domain."""


class VerificationError(AssertionError):
    """An exact check that the toolkit expected to pass did not."""


@dataclass(frozen=True, order=True)
class VarId:
    """One ambient variable: kind 'a' (matrix entry), 'x' (coordinate) or 't'."""

    kind: str
    i: int = 0
    j: int = 0

    def __post_init__(self):
        if self.kind not in ("a", "x", "t"):
            raise StructuralError(f"unknown variable kind {self.kind!r}")

    def __str__(self):
        if self.kind == "t":
            return "t"
        if self.kind == "x":
            return f"x[{self.i}]"
        return f"a[{self.i},{self.j}]"


def n_vars(n: int) -> int:
    return 1 + n + n * n


def var_index(n: int, v: VarId) -> int:
    """Position of a variable in the dense exponent tuple for dimension n."""
    if v.kind == "t":
        return 0
    if v.kind == "x":
        if not 1 <= v.i <= n:
            raise StructuralError(f"x index {v.i} outside [1,{n}]")
        return v.i
    if not (1 <= v.i <= n and 1 <= v.j <= n):
        raise StructuralError(f"a index ({v.i},{v.j}) outside [1,{n}]^2")
    return 1 + n + (v.i - 1) * n + (v.j - 1)


def var_of_index(n: int, pos: int) -> VarId:
    if pos == 0:
        return VarId("t")
    if pos <= n:
        return VarId("x", pos)
    k = pos - 1 - n
    return VarId("a", k // n + 1, k % n + 1)


def monomial_key(exps: tuple) -> tuple:
    """Sort key realizing the canonical graded-lex order (ascending)."""
    return (sum(exps), tuple(reversed(exps)))


class Poly:
    """A canonical sparse polynomial tied to a fixed ambient dimension n.

    ``terms`` maps exponent tuples to nonzero Fraction coefficients; the
    constructor drops zeros so equality of polynomials is dict equality.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, Fraction] | None = None):
        self.n = n
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Poly":
        return Poly(n)

    @staticmethod
    def const(n: int, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly(n)
        return Poly(n, {(0,) * n_vars(n): c})

    @staticmethod
    def one(n: int) -> "Poly":
        return Poly.const(n, 1)

    @staticmethod
    def var(n: int, v: VarId) -> "Poly":
        e = [0] * n_vars(n)
        e[var_index(n, v)] = 1
        return Poly(n, {tuple(e): Fraction(1)})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise StructuralError(f"expected Poly, got {type(other).__name__}")
        if self.n != other.n:
            raise StructuralError(f"mismatched ambient n: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Poly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(self.n, other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Poly(self.n)
            return Poly(self.n, {m: k * c for m, k in self.terms.items()})
        self._check(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Poly(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative power")
        result = Poly.one(self.n)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Poly({self.n}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def a_degree_of(self, m: tuple) -> int:
        return sum(m[1 + self.n:])

    def is_homogeneous_in_a(self) -> bool:
        """True iff zero, or all terms share one total a-degree and use no x,t."""
        degs = set()
        for m in self.terms:
            if any(m[: 1 + self.n]):
                return False
            degs.add(self.a_degree_of(m))
        return len(degs) <= 1

    def sorted_terms(self) -> list:
        """Terms as (exponents, coeff) in ascending canonical order."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=monomial_key)]


def coefficient_of(p: Poly, xt_monomial: Poly) -> Poly:
    """Extract the a-variable polynomial multiplying a monic x,t-monomial.

    ``xt_monomial`` must be a single monomial with coefficient 1 involving
    only the t and x variables.  An absent monomial yields zero.
    """
    if len(xt_monomial.terms) != 1:
        raise StructuralError("selector must be a single monomial")
    (sel, c), = xt_monomial.terms.items()
    if c != 1:
        raise StructuralError("selector must be monic")
    n = p.n
    if any(sel[1 + n:]):
        raise StructuralError("selector may involve only x and t")
    head = sel[: 1 + n]
    tail0 = (0,) * (1 + n)
    out = {}
    for m, coeff in p.terms.items():
        if m[: 1 + n] == head:
            out[tail0 + m[1 + n:]] = coeff
    return Poly(n, out)


def substitute_numeric(p: Poly, assignment: Mapping[VarId, Fraction]) -> Fraction:
    """Exactly evaluate p at a full rational assignment of its variables."""
    n = p.n
    values: dict = {}
    for v, val in assignment.items():
        values[var_index(n, v)] = Fraction(val)
    total = Fraction(0)
    for m, c in p.terms.items():
        term = c
        for pos, e in enumerate(m):
            if e:
                if pos not in values:
                    raise StructuralError(f"no value for {var_of_index(n, pos)}")
                term *= values[pos] ** e
        total += term
    return total


@dataclass
class PolyMatrix:
    """A square grid of polynomials over one ambient ring.

    The grid size is independent of the ambient dimension; an empty matrix
    needs ``ambient_n`` spelled out so its determinant (1) has a home.
    """

    size: int
    entries: list
    ambient_n: int = 0

    def __post_init__(self):
        if len(self.entries) != self.size or any(len(r) != self.size for r in self.entries):
            raise StructuralError("matrix entries do not form a size x size grid")
        ns = {p.n for row in self.entries for p in row}
        if len(ns) > 1:
            raise StructuralError("entries with mismatched ambient n")
        if ns:
            if self.ambient_n and self.ambient_n not in ns:
                raise StructuralError("ambient_n contradicts the entries")
            self.ambient_n = ns.pop()
        elif not self.ambient_n:
            raise StructuralError("empty matrix needs an explicit ambient_n")


def poly_determinant(mat: PolyMatrix) -> Poly:
    """Exact determinant by first-column cofactor expansion."""
    return _det(mat.entries, mat.ambient_n)


def _det(rows, n):
    k = len(rows)
    if k == 0:
        return Poly.one(n)
    if k == 1:
        return rows[0][0]
    total = Poly.zero(n)
    for i in range(k):
        if rows[i][0].is_zero():
            continue
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        cof = rows[i][0] * _det(minor, n)
        total = total + cof if i % 2 == 0 else total - cof
    return total


# -- text grammar ------------------------------------------------------
#
# poly   := '0' | ['-'] term (('+'|'-') term)*
# term   := coeff | [coeff '*'] factor ('*' factor)*
# coeff  := INT | INT '/' INT        (positive; sign comes from the separator)
# factor := ('a[i,j]' | 'x[i]' | 't') ['^' INT]
#
# A coefficient of exactly 1 on a proper term is omitted.  Terms appear in
# ascending canonical order and factors in ascending variable order.


def format_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        factors = []
        for pos, e in enumerate(m):
            if e:
                v = str(var_of_index(p.n, pos))
                factors.append(v if e == 1 else f"{v}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1 and c > 0:
            body = "*".join(factors)
        else:
            body = f"{mag} * " + "*".join(factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


_TOKEN = re.compile(
    r"\s*(?:(?P<var>a\[(?P<i>\d+),(?P<j>\d+)\]|x\[(?P<xi>\d+)\]|t)(?:\^(?P<exp>\d+))?"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<op>[*+-]))"
)


def parse_poly(text: str, n: int) -> Poly:
    """Parse exactly the text grammar above; anything else is a StructuralError.

    Terms may come in any order and repeat; like terms are combined.
    """
    tokens = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if not m:
            raise StructuralError(f"cannot parse polynomial at {text[pos:]!r}")
        tokens.append(m)
        pos = m.end()
    if len(tokens) == 1 and tokens[0].group("num") == "0":
        return Poly.zero(n)

    def op_at(k):
        return tokens[k].group("op") if k < len(tokens) else None

    def fail(k, expected):
        where = repr(text[tokens[k].start():].strip()) if k < len(tokens) else "the end"
        raise StructuralError(f"polynomial text: expected {expected} at {where}")

    terms: dict = {}
    k = 0
    sign = 1
    if op_at(k) == "-":
        sign, k = -1, 1
    while True:
        coeff = Fraction(1)
        exps = [0] * n_vars(n)
        if k < len(tokens) and tokens[k].group("num") is not None:
            try:
                coeff = Fraction(tokens[k].group("num"))
            except ZeroDivisionError:
                raise StructuralError(f"zero denominator in {tokens[k].group('num')!r}")
            if coeff == 0:
                fail(k, "a positive coefficient")
            k += 1
            has_factors = op_at(k) == "*"
            if has_factors:
                k += 1
        else:
            has_factors = True
        while has_factors:
            if k == len(tokens) or tokens[k].group("var") is None:
                fail(k, "a variable")
            tok = tokens[k]
            if tok.group("i") is not None:
                v = VarId("a", int(tok.group("i")), int(tok.group("j")))
            elif tok.group("xi") is not None:
                v = VarId("x", int(tok.group("xi")))
            else:
                v = VarId("t")
            exps[var_index(n, v)] += int(tok.group("exp") or 1)
            k += 1
            if op_at(k) != "*":
                break
            k += 1
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + sign * coeff
        if k == len(tokens):
            return Poly(n, terms)
        if op_at(k) not in ("+", "-"):
            fail(k, "'+' or '-'")
        sign = 1 if op_at(k) == "+" else -1
        k += 1


# convenience builders used throughout the package

def t_(n: int) -> Poly:
    return Poly.var(n, VarId("t"))


def x_(n: int, i: int) -> Poly:
    return Poly.var(n, VarId("x", i))


def a_(n: int, i: int, j: int) -> Poly:
    return Poly.var(n, VarId("a", i, j))


def a_monomial(n: int, entries, sign=1) -> Poly:
    """sign * prod a[i,j] over the (i, j) pairs, built as one exponent vector.

    Equal to multiplying ``a_(n, i, j)`` factors onto ``Poly.const(n, sign)``
    but with no intermediate polynomial; indices are checked as in
    ``var_index``.
    """
    e = [0] * n_vars(n)
    for i, j in entries:
        if not (1 <= i <= n and 1 <= j <= n):
            raise StructuralError(f"a index ({i},{j}) outside [1,{n}]^2")
        e[n + (i - 1) * n + j] += 1
    return Poly(n, {tuple(e): Fraction(sign)})
