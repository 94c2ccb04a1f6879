"""The text form of a polynomial: ``format_poly`` writes it, ``parse_poly`` reads it.

The grammar:

    poly   := '0' | ['-'] term (('+'|'-') term)*
    term   := coeff | [coeff '*'] factor ('*' factor)*
    coeff  := INT | INT '/' INT        (positive; sign comes from the separator)
    factor := ('a[i,j]' | 'x[i]' | 't') ['^' INT]

Blanks may separate the tokens but not split a factor or a coefficient.
``format_poly`` omits a coefficient of exactly 1 on a proper term and
writes terms in ascending canonical order (so every printed polynomial is
byte-reproducible) and factors in ascending variable order; ``parse_poly``
takes terms in any order.

The grammar has no nesting, so the regular expressions below state it
once, rule by rule.  A term tries its product form before a bare
coefficient, so that ``2 * a[1,1]`` is never read as two terms.  The
numbers of coeff and factor are captured, so the atom pattern reads one
coefficient or factor of an accepted term.

The ring and its kernel are in ``poly``, which this module imports and
``Poly.__str__`` calls back.  Keeping the text form apart keeps ``poly.py``
small to compile, which every command does when no bytecode is cached.
"""

import re
from fractions import Fraction
from functools import cache
from operator import getitem

from .poly import Poly, StructuralError, VarId, n_vars, var_index, var_of_index

_COEFF = r"(\d+)(?:/(\d+))?"
_FACTOR = r"(?:a\[(\d+),(\d+)\]|x\[(\d+)\]|t)(?:\^(\d+))?"
_TERM = rf"(?:(?:{_COEFF}\s*\*\s*)?{_FACTOR}(?:\s*\*\s*{_FACTOR})*|{_COEFF})"


@cache
def _patterns() -> tuple:
    """The whole text, one signed term and one atom, compiled on the first
    parse: most commands only print."""
    return (re.compile(rf"\s*(?:0|(?P<terms>(?:-\s*)?{_TERM}(?:\s*[+-]\s*{_TERM})*))\s*"),
            re.compile(rf"\s*(?P<sign>[+-]?)\s*(?P<term>{_TERM})"),
            re.compile(f"{_COEFF}|{_FACTOR}"))


@cache
def _factor_table(n: int) -> tuple:
    """Per exponent position, the printed factor for exponents 0 to 15."""
    names = (str(var_of_index(n, pos)) for pos in range(n_vars(n)))
    return tuple(("", name) + tuple(f"{name}^{e}" for e in range(2, 16)) for name in names)


def format_poly(p) -> str:
    """The text of p: a Poly, or anything else with ``n`` and ``sorted_terms()``,
    such as a ``poly.PackedPart``."""
    table = _factor_table(p.n)
    parts = []
    for m, c in p.sorted_terms():
        try:
            factors = "*".join(filter(None, map(getitem, table, m)))
        except IndexError:  # an exponent past the table
            factors = "*".join(row[1] if e == 1 else f"{row[1]}^{e}"
                               for row, e in zip(table, m) if e)
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1 and c > 0:
            body = factors
        else:
            body = f"{mag} * {factors}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts) or "0"


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise StructuralError(f"a number of {len(digits)} digits is too long to read") from None


def parse_poly(text: str, n: int) -> Poly:
    """Parse exactly the text grammar above; anything else is a StructuralError.

    Terms may come in any order and repeat; like terms are combined.
    """
    whole, signed_term, atom = _patterns()
    m = whole.fullmatch(text)
    if m is None:
        raise StructuralError(f"polynomial text outside the grammar: {text!r}")
    if m["terms"] is None:
        return Poly.zero(n)
    terms: dict = {}
    for signed in signed_term.finditer(m["terms"]):
        term = signed["term"]
        coeff = 1
        exps = [0] * n_vars(n)
        for num, den, i, j, xi, exp in atom.findall(term):
            if num:
                if den and not _int(den):
                    raise StructuralError(f"zero denominator in {term!r}")
                coeff = Fraction(_int(num), _int(den or "1"))
                if not coeff:
                    raise StructuralError(f"zero coefficient in {term!r}")
                continue
            v = VarId("a", _int(i), _int(j)) if i else VarId("x", _int(xi)) if xi else VarId("t")
            exps[var_index(n, v)] += _int(exp or "1")
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + (-coeff if signed["sign"] == "-" else coeff)
    return Poly(n, terms)
