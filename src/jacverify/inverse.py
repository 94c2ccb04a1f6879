"""Truncated formal inverse of a d-linear map, two independent ways.

The map sends x_i to x_i - (t * sum_j a[i,j] x_j)^d, so its inverse
series satisfies the fixed point equation

    g_i = x_i + (t * sum_j a[i,j] g_j)^d.

``inverse_series`` solves that equation one t-layer at a time.  With
L_i = sum_j a[i,j] g_j, layer m of g_i is layer m of (t L_i)^d, and layer
m of every power (t L_i)^k is built from strictly lower layers only, so
each layer is exact as soon as it exists and no truncated iterate is ever
recomputed (the tree recursion of Bass, Connell & Wright, run as dynamic
programming).  Each layer is a ``Poly`` and one ``poly.sum_of_products``;
``mul_trunc`` is the same kernel over the pairs of t-layers whose degrees
sum to at most the cutoff.  ``tree_oracle_coefficient`` recomputes any single
coefficient by brute enumeration of labeled plane trees in which every
vertex has d children or none, one tree at a time, with one
a[parent, child] factor per edge; ``verify_inverse`` substitutes the
finished series back into the map and the map into the series.  These
checks must agree, and every nonzero coefficient of t^N x^alpha obeys
N = 0 mod d and sum(alpha) = 1 + (d-1) N / d, which ``degree_law_holds``
checks.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .combinatorics import enumerate_compositions, labeling_content, level_exponents
from .generators import DLinearSpec, map_components
from .poly import (
    DomainError, Poly, a_, monomial_key, poly_sum, split_xt, sum_of_products,
    t_, t_layers, x_,
)


def mul_trunc(p: Poly, q: Poly, n_max: int) -> Poly:
    """Product with every term above the t-degree cutoff discarded early.

    Only pairs of t-layers whose degrees sum to at most n_max are multiplied.
    """
    q_layers = t_layers(p._operand(q))
    return sum_of_products(p.n, ((x, y) for a, x in t_layers(p).items()
                                 for b, y in q_layers.items() if a + b <= n_max))


class TruncatedSeries:
    """Inverse series components g_1..g_n, exact up to t-degree N_max."""

    def __init__(self, spec: DLinearSpec, n_max: int, components: list):
        self.spec, self.n_max, self.components = spec, n_max, components
        self._heads = {}

    def component(self, i: int) -> Poly:
        _check_component(self.spec.n, i)
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

    P_i^k[0] = 0 for k >= 1, so the last sum reads P_i^1 and P_i^(k-1)
    below layer m only.  Layers are ``Poly`` values in lists indexed by m,
    and each is one ``sum_of_products``.
    """
    if n_max < 0:
        raise DomainError("truncation degree must be nonnegative")
    d, n = spec.d, spec.n
    g = [[x_(n, i)] for i in range(1, n + 1)]
    if d > n_max:  # layer m of (t L_i)^d is zero for m < d, so g_i = x_i
        return TruncatedSeries(spec, n_max, [layers[0] for layers in g])
    t_a = [[t_(n) * a_(n, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    zero = Poly.zero(n)
    powers = [[[zero] for _ in range(d)] for _ in range(n)]  # powers[i][k-1][m]
    for m in range(1, n_max + 1):
        for i in range(n):
            first = powers[i][0]
            first.append(sum_of_products(n, zip(t_a[i], (g_j[m - 1] for g_j in g))))
            for k in range(1, d):
                lower = powers[i][k - 1]
                powers[i][k].append(
                    sum_of_products(n, ((first[s], lower[m - s]) for s in range(1, m))))
            # g_i[m] is read from layer m + 1 on, so it may be set now.
            g[i].append(powers[i][d - 1][m])
    return TruncatedSeries(spec, n_max, [poly_sum(n, layers) for layers in g])


# Each failure is (side, component i, its first nonzero residual monomial).
InverseReport = namedtuple("InverseReport", "failures ok")


def verify_inverse(spec: DLinearSpec, n_max: int) -> InverseReport:
    """Check f(g(x)) = x and g(f(x)) = x exactly up to the t cutoff."""
    d, n = spec.d, spec.n
    series = inverse_series(spec, n_max)
    failures = []

    # f(g) is recomputed from the finished components, independently of
    # the layer recursion that built them.
    t = t_(n)
    for i in range(1, n + 1):
        form = sum_of_products(n, ((t * a_(n, i, j), series.components[j - 1])
                                   for j in range(1, n + 1)))
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
    return InverseReport(failures, not failures)


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
    terms = []
    for m, c in p.terms.items():
        if m[0] > n_max:
            continue
        term = Poly(n, {(m[0],) + (0,) * n + m[1 + n:]: c})
        for j in range(n):
            if m[1 + j]:
                term = mul_trunc(term, powers[j][m[1 + j]], n_max)
        terms.append(term)
    return poly_sum(n, terms)


def _check_component(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise DomainError(f"component {i} outside [1,{n}]")


def _check_coefficient(spec: DLinearSpec, i: int, alpha: tuple, N: int) -> None:
    """A DomainError unless t^N x^alpha in component i names a coefficient."""
    if len(alpha) != spec.n or any(p < 0 for p in alpha):
        raise DomainError("alpha must have n nonnegative parts")
    if N < 0:
        raise DomainError("N must be nonnegative")
    _check_component(spec.n, i)


def coefficient_c(spec: DLinearSpec, i: int, alpha: tuple, N: int,
                  series: TruncatedSeries | None = None) -> Poly:
    """The a-variable coefficient of t^N x^alpha in component i."""
    _check_coefficient(spec, i, alpha, N)
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
    """One a[parent, child] factor per edge: each edge a level with an empty row."""
    heads, tails, stack = [], [], [tree]
    while stack:
        label, kids = stack.pop()
        heads += [label] * len(kids)
        tails += [kid[0] for kid in kids]
        stack += kids
    return Poly(n, {level_exponents(n, (heads, tails, itertools.repeat(()))): 1})


def _leaf_content(tree, n: int) -> tuple:
    leaves, stack = [], [tree]
    while stack:
        label, kids = stack.pop()
        stack += kids
        if not kids:
            leaves.append(label)
    return labeling_content((leaves,), n)


def tree_oracle_coefficient(spec: DLinearSpec, i: int, alpha: tuple, N: int) -> Poly:
    """Brute-force coefficient: sum edge-product weights over explicit trees.

    It rejects the inputs that ``coefficient_c`` rejects, with the same DomainError.
    """
    _check_coefficient(spec, i, alpha, N)
    d, n = spec.d, spec.n
    if N % d != 0:
        return Poly.zero(n)
    return poly_sum(n, (_tree_weight(tree, n) for tree in enumerate_trees(d, n, i, N)
                        if _leaf_content(tree, n) == tuple(alpha)))


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
