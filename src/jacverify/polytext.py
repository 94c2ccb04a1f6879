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

``format_poly`` prints by rows, as ``sorted_rows`` gives them: a term's
factors are the texts of its (t, x) head and of each row a[i,1..n],
joined.  The text of a row is made once, on its first use at its
dimension, position and kind, and kept, so the per-term work is C-level
``map`` and ``join``; each coefficient's prefix is made once a call.

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
from itertools import chain
from operator import add, itemgetter

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


class _RowTexts(dict):
    """The factors of each row of exponents met at one position, each led by
    '*', made from the row on its first lookup."""

    __slots__ = ("names", "split")

    def __init__(self, names: list, split):
        self.names, self.split = names, split

    def __missing__(self, row):
        text = self[row] = "".join(f"*{name}" if e == 1 else f"*{name}^{e}"
                                   for name, e in zip(self.names, self.split(row)) if e)
        return text


@cache
def _row_texts(n: int, rows: tuple) -> tuple:
    """(cut, text) for each row that ``rows``, the ``(split, cuts)`` of a
    ``sorted_rows``, cuts out: text looks up a ``_RowTexts`` of the row's
    position, which keeps one entry per distinct row."""
    split, cuts = rows
    names = [str(var_of_index(n, k)) for k in range(n_vars(n))]
    return tuple((cut, _RowTexts(names[pos:], split).__getitem__) for pos, cut in cuts)


_after_star = itemgetter(slice(1, None))


def format_poly(p) -> str:
    """The text of p: a Poly or a ``poly.PackedPart``, read by ``sorted_rows()``.

    A term's factors are its rows' texts joined, less the first '*'; only
    the first term can be a constant, as it sorts first.
    """
    rows, data, coeffs = p.sorted_rows()
    if not coeffs:
        return "0"
    texts = [map(text, map(cut, data)) for cut, text in _row_texts(p.n, rows)]
    factors = map(_after_star, map("".join, zip(*texts)))
    signs = {c: (" - " if c < 0 else " + ") + ("" if c == 1 else f"{abs(c)} * ")
             for c in set(coeffs)}  # " + ", " - 1 * ", " + 3/2 * " and so on
    terms = map(add, map(signs.__getitem__, coeffs), factors)
    first, c = next(terms), coeffs[0]
    body = str(abs(c)) if first == signs[c] else first[3:]  # a constant has no factors
    return "".join(chain((("-" if c < 0 else "") + body,), terms))


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
