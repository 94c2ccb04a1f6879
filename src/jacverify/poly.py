"""Exact sparse multivariate polynomials over the rationals.

The ambient ring for a fixed dimension ``n`` has variables

    t,  x[1], ..., x[n],  a[1,1], a[1,2], ..., a[n,n]

in that order.  A monomial is stored as a dense exponent tuple over this
variable list (length ``1 + n + n*n``), and a polynomial is a dict mapping
exponent tuples to nonzero exact coefficients.  A coefficient is an ``int``
whenever its value is integral and a ``Fraction`` (denominator > 1) only
otherwise, so the integer polynomials that make up nearly all of the
toolkit's work never build a ``Fraction``; floats are refused.  The zero
polynomial has an empty term dict.  All values are immutable by
convention: no operation mutates its inputs, so polynomials are safe to
share across threads or processes.

The canonical term order is graded lexicographic with t the least
significant variable and a[n,n] the most significant.  Text output lists
terms in ascending canonical order, which makes every printed polynomial
byte-reproducible.  That text form, written by ``format_poly`` and read
back by ``parse_poly``, lives in ``polytext``.

The kernel has one loop that multiplies (``_packed_dot``), one that sums
(``poly_sum``) and one normalization (``_canonical_terms``: zeros dropped,
integral Fractions stored as int, floats refused), which the constructor
also uses.  ``sum_of_products`` (the sum of x * y over pairs) accumulates
every product into one dict and normalizes it once (Monagan & Pearce's
accumulate-then-normalize kernel); ``Poly * Poly`` is its one-pair case.
One codec (``_codec``) packs each exponent tuple into an int key of
fixed-width fields, t the lowest, at a width read off the inputs, so a
monomial product is one int add.  ``poly_sum`` keeps its dict canonical
as each term is folded in; ``+`` and ``-`` are its two-summand cases.
Only this module touches the canonical form, and packed keys leave it
only as ``monomial_keys`` makes them, opaque ints that add.  ``t_layers``
splits a polynomial by t-degree, so that truncated products pair only the
layers below a cutoff.

Products of a-variables are written straight into one exponent tuple by
``combinatorics.level_exponents``, not multiplied here.
``split_xt`` reads off the a-coefficient of each (t, x) monomial, and
``determinant`` is the one cofactor expansion, over ``Poly``, ``Fraction``
or packed entries: it sums each level through the ring's ``dot``, with no
running total.  ``determinant_by_head`` expands plain rows of polynomials
with every entry packed once, at a width read off the rows' degrees, and
sums its top level one (t, x) head at a time, so the whole determinant
is never one dict.  It unpacks no part: each stays packed in a read-only
``PackedPart``, whose keys also carry the total degree, so that one sort of
ints orders it.  The printer reads a part and a ``Poly`` alike by rows
(``sorted_rows``): the part cuts each sorted key's bytes into its a-rows,
the Poly each sorted exponent tuple into its (t, x) head and a-rows.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, repeat, starmap
from operator import itemgetter, or_


class StructuralError(ValueError):
    """Malformed or incompatible inputs (wrong ambient n, missing variable)."""


class DomainError(ValueError):
    """Inputs outside an operation's stated domain."""


class VerificationError(AssertionError):
    """An exact check that the toolkit expected to pass did not."""


class VarId(namedtuple("VarId", "kind i j", defaults=(0, 0))):
    """One ambient variable: kind 'a' (matrix entry), 'x' (coordinate) or 't'."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("a", "x", "t"):
            raise StructuralError(f"unknown variable kind {self.kind!r}")
        return self

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


@cache
def _reversed_exponents(n: int) -> itemgetter:
    return itemgetter(*range(n_vars(n) - 1, -1, -1))


def canonical_order(n: int, monomials) -> list:
    """Dimension-n monomials sorted ascending by ``monomial_key``.

    Two stable sorts with C-level keys, by the reversed exponents and then
    by total degree, give the order of ``monomial_key`` at less cost.
    """
    out = sorted(monomials, key=_reversed_exponents(n))
    out.sort(key=sum)
    return out


def _exact(c):
    """c as a stored coefficient: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise StructuralError(f"coefficient {c!r} is neither an int nor a Fraction")


def exact_quotient(a, b):
    """a / b for exact a and nonzero b: an int when integral, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _exact(Fraction(a, b))


def _canonical_terms(terms: Mapping) -> dict:
    """terms without zeros, integral Fractions as int; a float, even 0.0, raises."""
    return {m: c if type(c) is int else _exact(c) for m, c in terms.items()
            if c or type(c) is not int and _exact(c)}  # a non-int zero meets _exact too


class Poly:
    """A canonical sparse polynomial tied to a fixed ambient dimension n.

    ``terms`` maps exponent tuples to nonzero coefficients, each an int or
    a non-integral Fraction; the constructor checks and normalizes its
    input (dropping zeros) so equality of polynomials is dict equality.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, int | Fraction] | None = None):
        self.n = n
        self.terms = _canonical_terms(terms or {})

    @classmethod
    def _of(cls, n: int, terms: dict) -> "Poly":
        """Wrap a term dict that is already canonical, without checking it."""
        p = object.__new__(cls)
        p.n = n
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Poly":
        return Poly._of(n, {})

    @staticmethod
    def const(n: int, c) -> "Poly":
        return Poly(n, {(0,) * n_vars(n): c})

    @staticmethod
    def one(n: int) -> "Poly":
        return Poly._of(n, {(0,) * n_vars(n): 1})

    @staticmethod
    def var(n: int, v: VarId) -> "Poly":
        e = [0] * n_vars(n)
        e[var_index(n, v)] = 1
        return Poly._of(n, {tuple(e): 1})

    # -- ring operations ----------------------------------------------

    def _operand(self, other) -> "Poly":
        """other as a polynomial of this ring: a scalar becomes a constant."""
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.n, other)
        if not isinstance(other, Poly):
            raise StructuralError(f"expected Poly, got {type(other).__name__}")
        if self.n != other.n:
            raise StructuralError(f"mismatched ambient n: {self.n} vs {other.n}")
        return other

    def __add__(self, other):
        return poly_sum(self.n, (self, self._operand(other)))

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return poly_sum(self.n, (self, -self._operand(other)))

    def __rsub__(self, other):
        return poly_sum(self.n, (self._operand(other), -self))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            return Poly._of(self.n, _canonical_terms({m: k * c for m, k in self.terms.items()}))
        return sum_of_products(self.n, ((self, self._operand(other)),))

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
        return f"Poly({self.n}, {str(self)!r})"

    def __str__(self):
        from .polytext import format_poly  # polytext imports this module

        return format_poly(self)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def is_homogeneous_in_a(self) -> bool:
        """True iff zero, or all terms share one total a-degree and use no x,t."""
        degs = set()
        for m in self.terms:
            if any(m[: 1 + self.n]):
                return False
            degs.add(sum(m[1 + self.n:]))
        return len(degs) <= 1

    def sorted_rows(self) -> tuple:
        """(rows, monomials, coeffs), the terms in ascending canonical order as
        the printer reads them: ``rows`` (``_tuple_rows``) cuts each monomial
        into its (t, x) head and its a-rows."""
        monos = canonical_order(self.n, self.terms)
        return _tuple_rows(self.n), monos, list(map(self.terms.__getitem__, monos))


# -- the product-and-sum kernel -----------------------------------------


@cache
def _codec(n: int, width: int) -> tuple:
    """(pack, monomials, tops, key): ``pack`` rekeys a dimension-n term dict by
    ints of ``width``-byte little-endian fields, t the lowest, ``monomials`` maps
    such keys back to exponent tuples, ``tops`` sets each field's top bit and
    ``key`` packs one exponent tuple.  A field too narrow for its exponent raises."""
    nv = n_vars(n)
    size = nv * width
    fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(width)  # struct's fields reach 8 bytes
    if fmt:
        fields = struct.Struct(f"<{nv}{fmt}")
        join, split = fields.pack, fields.unpack
    else:
        join = lambda *m: b"".join([e.to_bytes(width, "little") for e in m])
        split = lambda b: tuple(int.from_bytes(b[i:i + width], "little")
                                for i in range(0, size, width))

    def pack(terms):
        keys = map(int.from_bytes, starmap(join, terms), repeat("little"))
        return dict(zip(keys, terms.values()))

    def monomials(keys):
        return map(split, map(int.to_bytes, keys, repeat(size), repeat("little")))

    tops = int.from_bytes((bytes(width - 1) + b"\x80") * nv, "little")
    return pack, monomials, tops, lambda m: int.from_bytes(join(*m), "little")


def monomial_keys(n: int, degree: int) -> tuple:
    """(key, monomials) in ``_codec``'s keys for dimension-n monomials of total
    degree at most ``degree``, at the narrowest width whose fields hold it: the
    key of a product within that degree is the sum of its factors' keys."""
    width = 1
    while degree >> 8 * width:
        width *= 2
    _, monomials, _, key = _codec(n, width)
    return key, monomials


def _packed_dot(pairs) -> dict:
    """The canonical sum of p * q over pairs of packed term dicts: each
    monomial product is one int add."""
    out: dict = {}
    get = out.get
    for p, q in pairs:
        q_terms = list(q.items())
        for k1, c1 in p.items():
            for k2, c2 in q_terms:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return _canonical_terms(out)


def sum_of_products(n: int, pairs) -> Poly:
    """sum x * y over an iterable of (x, y) pairs of dimension-n polynomials,
    in keys of the narrowest width at which no factor's field has its top bit
    set, so that no sum of two keys carries."""
    live = []
    for x, y in pairs:
        if x.n != n or y.n != n:
            raise StructuralError(f"mismatched ambient n: {x.n}, {y.n} in a sum over {n}")
        if x.terms and y.terms:
            live.append((x.terms, y.terms))
    width = 1
    while True:
        pack, monomials, tops, _ = _codec(n, width)
        width *= 2
        try:
            packed = [(pack(p), pack(q)) for p, q in live]
        except (struct.error, OverflowError):  # an exponent wider than its field
            continue
        if not reduce(or_, chain.from_iterable(chain(*packed)), 0) & tops:
            out = _packed_dot(packed)
            return Poly._of(n, dict(zip(monomials(out), out.values())))


def poly_sum(n: int, polys) -> Poly:
    """The sum of an iterable of dimension-n polynomials.

    A summand that meets an empty sum is copied whole and each later term is
    folded in, so p + q costs a copy of p plus one step per term of q.
    """
    out: dict = {}
    get = out.get
    for p in polys:
        if p.n != n:
            raise StructuralError(f"mismatched ambient n: {p.n} in a sum over {n}")
        if not out:
            out.update(p.terms)
            continue
        for m, c in p.terms.items():
            s = get(m, 0) + c
            if not s:
                del out[m]
            else:
                out[m] = s if type(s) is int else _exact(s)
    return Poly._of(n, out)


def t_layers(p: Poly) -> dict:
    """p split by t-degree: maps each t exponent to the part of p carrying it."""
    out: dict = {}
    for m, c in p.terms.items():
        out.setdefault(m[0], {})[m] = c
    return {e: Poly._of(p.n, terms) for e, terms in out.items()}


def split_xt(p: Poly) -> dict:
    """Group p's terms by their (t, x) exponent head.

    Maps each head (the first 1 + n exponents) to the term dict of its
    a-variable coefficient, with the head zeroed.  The values are plain
    dicts; wrap the one you need in ``Poly(p.n, ...)``.
    """
    cut = 1 + p.n
    zero_head = (0,) * cut
    out: dict = {}
    for m, c in p.terms.items():
        out.setdefault(m[:cut], {})[zero_head + m[cut:]] = c
    return out


def substitute_numeric(p: Poly, assignment: Mapping[VarId, Fraction]) -> Fraction:
    """Exactly evaluate p at a full rational assignment of its variables."""
    n = p.n
    values: dict = {}
    for v, val in assignment.items():
        values[var_index(n, v)] = Fraction(val)

    def term(m, c):
        for pos, e in enumerate(m):
            if e:
                if pos not in values:
                    raise StructuralError(f"no value for {var_of_index(n, pos)}")
                c *= values[pos] ** e
        return c

    return sum((term(m, c) for m, c in p.terms.items()), Fraction(0))


class _Packed(dict):
    """A packed term dict that negates, as ``determinant`` needs of an entry."""

    __slots__ = ()

    def __neg__(self):
        return _Packed({k: -c for k, c in self.items()})


@cache
def _tuple_rows(n: int) -> tuple:
    """(split, cuts) for dimension-n exponent tuples: cuts pairs the first
    position of the (t, x) head and of each a-row a[i,1..n] with a getter
    that slices that row out of a monomial, and split reads a row's exponents."""
    bounds = (0, *range(1 + n, n_vars(n) + 1, n))
    return tuple, tuple((lo, itemgetter(slice(lo, hi))) for lo, hi in zip(bounds, bounds[1:]))


@cache
def _byte_rows(n: int, width: int) -> tuple:
    """``_tuple_rows`` for the bytes of keys of ``width``-byte fields, without
    the head."""
    def split(row):
        return tuple(int.from_bytes(row[i:i + width], "little") for i in range(0, len(row), width))

    return split, tuple((lo, itemgetter(slice(lo * width, (lo + n) * width)))
                        for lo in range(1 + n, n_vars(n), n))


class PackedPart:
    """One part of ``determinant_by_head``, read-only, still in packed keys.

    Each key holds its whole monomial, with the total degree in a field
    above a[n,n].  A part's keys share one head, so one sort of the ints is
    the canonical order of their a-parts.  ``sorted_rows`` cuts each sorted
    key's bytes into its a-rows and never unpacks an exponent tuple, and
    ``poly`` builds the part as a Poly.
    """

    __slots__ = ("n", "_terms", "_width")

    def __init__(self, n: int, terms: dict, width: int):
        self.n, self._terms, self._width = n, terms, width

    def sorted_rows(self) -> tuple:
        """``Poly.sorted_rows`` with the bytes of each sorted key in place of
        its monomial, cut by ``_byte_rows`` into its a-rows alone."""
        n, w = self.n, self._width
        keys = sorted(self._terms)
        # The degree, above a[n,n], is below the bound the width was chosen for: one field more.
        data = list(map(int.to_bytes, keys, repeat((n_vars(n) + 1) * w), repeat("little")))
        return _byte_rows(n, w), data, list(map(self._terms.__getitem__, keys))

    def poly(self) -> Poly:
        n, w = self.n, self._width
        a_fields = (1 << 8 * w * n_vars(n)) - (1 << 8 * w * (1 + n))  # head and degree dropped
        monomials = _codec(n, w)[1](map(a_fields.__and__, self._terms))
        return Poly._of(n, dict(zip(monomials, self._terms.values())))


def determinant_by_head(rows, n: int, scale) -> dict:
    """``split_xt`` of the determinant of a square grid of dimension-n
    polynomials, each part summed by itself and divided exactly.

    Maps each (t, x) head, in the order the expansion first meets it, to a
    ``PackedPart`` of its a-parts divided by ``scale(head)`` (a generator
    head's d^k), which is called once per head whose sum is nonzero and may
    raise; a coefficient that it does not divide raises VerificationError.
    Every level stays packed, in fields that hold the rows' largest total
    degrees summed, below one that holds the total degree; a mask reads each
    head.  The top level files each run of a first-column entry's terms that
    share a head, with each block of its minor's terms by head, under the head
    of their products, and one ``_packed_dot`` per head sums them in the order
    of the whole expansion's products; no dict holds the whole determinant.
    """
    bound = sum(max(p.total_degree() for p in row) for row in rows)
    cut, width = 1 + n, 1
    while bound >> 8 * width:
        width *= 2
    pack, monomials, _, _ = _codec(n, width)
    top = 8 * width * n_vars(n)  # the degree field: the top one, so it has no width to overflow
    mask = (1 << 8 * width * cut) - 1

    def graded(terms):
        return _Packed(zip(map(or_, pack(terms), (sum(m) << top for m in terms)),
                           terms.values()))

    one = {0: 1}
    grid = [[graded(p.terms) for p in row] for row in rows] or [[one]]  # 0 x 0 as [[1]]
    groups: dict = {}  # product head: the (run, block) pairs whose products have it
    for entry, minor in _cofactors(grid, one, _packed_dot):
        blocks: dict = {}
        for m, c in minor.items():
            blocks.setdefault(m & mask, {})[m] = c
        last = None
        for m, c in entry.items():  # runs, not blocks, keep the whole expansion's order
            if m & mask != last:
                last, run = m & mask, {}
                for h, block in blocks.items():
                    groups.setdefault(last + h, []).append((run, block))
            run[m] = c
    parts = {}
    for h, pairs in groups.items():
        part = _packed_dot(pairs)
        if not part:
            continue
        head = next(monomials((h,)))[:cut]
        s = scale(head)
        for m, c in part.items():
            q, r = divmod(c, s)
            if r:
                raise VerificationError(
                    f"coefficient {c} at t^{head[0]} x^{head[1:]} is not divisible by d^k = {s}")
            part[m] = q  # in place: no key is added, and a part's keys share their order
        parts[head] = PackedPart(n, part, width)
    return parts


def _cofactors(rows, one, dot):
    """The signed (entry, minor) pairs of the first-column cofactor expansion
    of a nonempty grid, each zero entry skipped."""
    return ((-rows[i][0] if i % 2 else rows[i][0],
             determinant([r[1:] for j, r in enumerate(rows) if j != i], one, dot))
            for i in range(len(rows)) if rows[i][0])


def determinant(rows, one, dot):
    """First-column cofactor expansion over any commutative ring.

    Entries need negation and a falsy zero (``Poly``, ``Fraction``, int).
    ``one`` is the ring's unit and ``dot`` its sum of x * y over (x, y)
    pairs, called once per expansion on its signed (entry, minor) pairs.
    """
    k = len(rows)
    if k == 0:
        return one
    if k == 1:
        return rows[0][0]
    return dot(_cofactors(rows, one, dot))


# convenience builders used throughout the package

def t_(n: int) -> Poly:
    return Poly.var(n, VarId("t"))


def x_(n: int, i: int) -> Poly:
    return Poly.var(n, VarId("x", i))


def a_(n: int, i: int, j: int) -> Poly:
    return Poly.var(n, VarId("a", i, j))

