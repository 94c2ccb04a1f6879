"""Truncated formal inverse of a d-linear map, two independent ways.

The map sends x_i to x_i - (t * sum_j a[i,j] x_j)^d, so its inverse
series satisfies the fixed point equation

    g_i = x_i + (t * sum_j a[i,j] g_j)^d.

``inverse_series`` solves that equation one t-layer at a time.  With
L_i = sum_j a[i,j] g_j, layer m of g_i is layer m of (t L_i)^d, and layer
m of every power (t L_i)^k is built from strictly lower layers only, so
each layer is exact as soon as it exists and no truncated iterate is ever
recomputed (the tree recursion of Bass, Connell & Wright, run as dynamic
programming).  ``tree_oracle_coefficient`` recomputes any single
coefficient by brute enumeration of labeled plane trees in which every
vertex has d children or none, one tree at a time, with one
a[parent, child] factor per edge; ``verify_inverse`` substitutes the
finished series back into the map and the map into the series.  These
checks must agree, and every nonzero coefficient of t^N x^alpha obeys
N = 0 mod d and sum(alpha) = 1 + (d-1) N / d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import add

from .combinatorics import enumerate_compositions
from .generators import DLinearSpec, map_components
from .poly import (
    DomainError, Poly, _canonical_terms, a_, a_monomial, monomial_key, split_xt, t_, x_,
)


def mul_trunc(p: Poly, q: Poly, n_max: int) -> Poly:
    """Product with every term above the t-degree cutoff discarded early."""
    p._check(q)
    out: dict = {}
    get = out.get
    q_terms = list(q.terms.items())
    for m1, c1 in p.terms.items():
        room = n_max - m1[0]
        if room < 0:
            continue
        for m2, c2 in q_terms:
            if m2[0] > room:
                continue
            m = tuple(map(add, m1, m2))
            out[m] = get(m, 0) + c1 * c2
    return Poly._of(p.n, _canonical_terms(out))


@dataclass
class TruncatedSeries:
    """Inverse series components g_1..g_n, exact up to t-degree N_max."""

    spec: DLinearSpec
    n_max: int
    components: list
    _heads: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def component(self, i: int) -> Poly:
        if not 1 <= i <= self.spec.n:
            raise DomainError(f"component {i} outside [1,{self.spec.n}]")
        return self.components[i - 1]

    def heads(self, i: int) -> dict:
        """``split_xt`` of component i, computed once per series."""
        if i not in self._heads:
            self._heads[i] = split_xt(self.component(i))
        return self._heads[i]


def inverse_series(spec: DLinearSpec, n_max: int) -> TruncatedSeries:
    """The inverse series up to t-degree n_max, one exact layer at a time.

    Write [m] for the t^m layer and P_i^k for (t L_i)^k.  Then

        g_i[0] = x_i,   g_i[m] = P_i^d[m]                  (m >= 1),
        P_i^1[m] = t * sum_j a[i,j] * g_j[m-1],
        P_i^k[m] = sum_s P_i^1[s] * P_i^(k-1)[m-s]          (k >= 2).

    P_i^k[m] vanishes for m < k, so the last sum reads P_i^1 and P_i^(k-1)
    below layer m only.  Layers are term dicts, and empty ones are absent.
    """
    if n_max < 0:
        raise DomainError("truncation degree must be nonnegative")
    d, n = spec.d, spec.n
    g = [{0: x_(n, i).terms} for i in range(1, n + 1)]
    t_a = [[(t_(n) * a_(n, i, j)).terms for j in range(1, n + 1)]
           for i in range(1, n + 1)]
    powers = [[{} for _ in range(d)] for _ in range(n)]  # powers[i][k-1][m]
    for m in range(1, n_max + 1):
        for i in range(n):
            first = powers[i][0]
            layer: dict = {}
            for j in range(n):
                if m - 1 in g[j]:
                    _mul_into(layer, t_a[i][j], g[j][m - 1])
            _store(first, m, layer)
            for k in range(1, d):
                layer = {}
                lower = powers[i][k - 1]
                for s, p_s in first.items():
                    if m - s in lower:
                        _mul_into(layer, p_s, lower[m - s])
                _store(powers[i][k], m, layer)
            # g_i[m] is read from layer m + 1 on, so it may be set now.
            if m in powers[i][d - 1]:
                g[i][m] = powers[i][d - 1][m]
    components = []
    for layers in g:
        terms: dict = {}
        for layer in layers.values():
            terms.update(layer)
        components.append(Poly._of(n, terms))
    return TruncatedSeries(spec, n_max, components)


def _mul_into(out: dict, p: dict, q: dict) -> None:
    """Accumulate the product of two term dicts into out."""
    get = out.get
    q_terms = list(q.items())
    for m1, c1 in p.items():
        for m2, c2 in q_terms:
            m = tuple(map(add, m1, m2))
            out[m] = get(m, 0) + c1 * c2


def _store(layers: dict, m: int, terms: dict) -> None:
    """Keep layer m of a power in canonical form, if it is not zero."""
    terms = _canonical_terms(terms)
    if terms:
        layers[m] = terms


@dataclass
class InverseReport:
    spec: DLinearSpec
    n_max: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_inverse(spec: DLinearSpec, n_max: int) -> InverseReport:
    """Check f(g(x)) = x and g(f(x)) = x exactly up to the t cutoff."""
    d, n = spec.d, spec.n
    series = inverse_series(spec, n_max)
    failures = []

    # f(g) is recomputed from the finished components, independently of
    # the layer recursion that built them.
    t = t_(n)
    for i in range(1, n + 1):
        form = Poly.zero(n)
        for j in range(1, n + 1):
            form = form + a_(n, i, j) * series.components[j - 1]
        form = t * form
        power = Poly.one(n)
        for _ in range(d):
            power = mul_trunc(power, form, n_max)
        fi_of_g = series.components[i - 1] - power
        residual = fi_of_g - x_(n, i)
        if not residual.is_zero():
            failures.append(("f(g)", i, _first_monomial(residual)))

    f = map_components(spec)
    for i in range(1, n + 1):
        gi_of_f = _substitute_x(series.components[i - 1], f, n_max)
        residual = gi_of_f - x_(n, i)
        if not residual.is_zero():
            failures.append(("g(f)", i, _first_monomial(residual)))
    return InverseReport(spec, n_max, failures)


def _first_monomial(p: Poly) -> str:
    m = min(p.terms, key=monomial_key)
    return str(Poly(p.n, {m: p.terms[m]}))


def _substitute_x(p: Poly, replacements: list, n_max: int) -> Poly:
    """Substitute x_j -> replacements[j-1], truncating by t-degree."""
    n = p.n
    max_e = [0] * n
    for m in p.terms:
        for j in range(n):
            max_e[j] = max(max_e[j], m[1 + j])
    powers = []
    for j in range(n):
        pj = [Poly.one(n)]
        for _ in range(max_e[j]):
            pj.append(mul_trunc(pj[-1], replacements[j], n_max))
        powers.append(pj)
    total = Poly.zero(n)
    for m, c in p.terms.items():
        if m[0] > n_max:
            continue
        term = Poly(n, {(m[0],) + (0,) * n + m[1 + n:]: c})
        for j in range(n):
            if m[1 + j]:
                term = mul_trunc(term, powers[j][m[1 + j]], n_max)
        total = total + term
    return total


def coefficient_c(spec: DLinearSpec, i: int, alpha: tuple, N: int,
                  series: TruncatedSeries | None = None) -> Poly:
    """The a-variable coefficient of t^N x^alpha in component i."""
    if len(alpha) != spec.n or any(p < 0 for p in alpha):
        raise DomainError("alpha must have n nonnegative parts")
    if N < 0:
        raise DomainError("N must be nonnegative")
    if series is None or series.n_max < N:
        series = inverse_series(spec, N)
    return Poly(spec.n, series.heads(i).get((N,) + tuple(alpha), {}))


# -- labeled tree oracle -------------------------------------------------


def enumerate_trees(d: int, n: int, root_label: int, n_edges: int) -> list:
    """All labeled plane trees with the given root label and edge count.

    Every vertex has exactly d children or is a leaf; labels run over
    [1,n].  A tree is a nested tuple (label, children).
    """
    if n_edges == 0:
        return [(root_label, ())]
    if n_edges < d:
        return []
    out = []
    for split in enumerate_compositions(n_edges - d, d):
        child_lists = [
            [tree for lab in range(1, n + 1) for tree in enumerate_trees(d, n, lab, e)]
            for e in split
        ]
        out.extend((root_label, kids) for kids in itertools.product(*child_lists))
    return out


def _tree_weight(tree, n: int) -> Poly:
    """One a[parent, child] factor per edge."""
    entries = []
    stack = [tree]
    while stack:
        label, kids = stack.pop()
        for kid in kids:
            entries.append((label, kid[0]))
            stack.append(kid)
    return a_monomial(n, entries)


def _leaf_content(tree, n: int) -> tuple:
    counts = [0] * n
    stack = [tree]
    while stack:
        label, kids = stack.pop()
        if not kids:
            counts[label - 1] += 1
        else:
            stack.extend(kids)
    return tuple(counts)


def tree_oracle_coefficient(spec: DLinearSpec, i: int, alpha: tuple, N: int) -> Poly:
    """Brute-force coefficient: sum edge-product weights over explicit trees."""
    d, n = spec.d, spec.n
    if N == 0:
        return Poly.one(n) if tuple(alpha) == _unit(n, i) else Poly.zero(n)
    if N % d != 0:
        return Poly.zero(n)
    total = Poly.zero(n)
    for tree in enumerate_trees(d, n, i, N):
        if _leaf_content(tree, n) == tuple(alpha):
            total = total + _tree_weight(tree, n)
    return total


def _unit(n: int, i: int) -> tuple:
    e = [0] * n
    e[i - 1] = 1
    return tuple(e)


def degree_law_holds(spec: DLinearSpec, series: TruncatedSeries) -> bool:
    """Every nonzero coefficient satisfies the leaf-count degree law."""
    d, n = spec.d, spec.n
    for i in range(1, n + 1):
        g = series.component(i)
        for m in g.terms:
            N = m[0]
            alpha_sum = sum(m[1: 1 + n])
            a_deg = sum(m[1 + n:])
            if N == 0:
                if alpha_sum != 1 or a_deg != 0:
                    return False
                continue
            if N % d != 0:
                return False
            if alpha_sum != 1 + (d - 1) * N // d:
                return False
            if a_deg != N:
                return False
    return True
