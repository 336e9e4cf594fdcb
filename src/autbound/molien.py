"""Molien series, Reynolds-operator invariant bases, and smallest
(semi-)invariant degrees for fully enumerable matrix groups.

The degree-k coefficient of the Molien series (1/|G|) sum_g 1/det(I - t g)
is the dimension of the space of degree-k invariants, an integer in
[0, C(n+k-1, k)].  Prefixes are computed multi-modularly: the group is
enumerated mod a prime p = 1 (mod m) above that bound, det(I - t g) is
taken mod p for each element, and the average mod p is the coefficient
itself.  Two primes must give the same order, which certifies both
reductions as injective, and the same coefficients.

Reynolds bases are exact polynomials, so they are averaged exactly, but
over row orbits rather than group elements: x^a(g x) depends on g only
through the rows S = supp(a) of g, which run over the orbit of the rows S
of the identity under right multiplication, each point |Stab| times.  So
R(x^a) = (1/|orbit|) sum over orbit points P of prod_i (P_i . x)^(a_i), the
element average term for term, at one expansion per orbit point: never
more than |G|, and |G|/|Stab| in general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .cyclo import Cyc, QQ, ReductionMap
from .groups import FaithfulnessSuspect, GeneratedGroup, derived_subgroup, modp_elements, row_orbit
from .matrix import CycloMatrix, charpoly_mod
from .poly import HomogPoly, substitute

__all__ = [
    "MolienPrefix",
    "NoInvariantBelowCap",
    "molien_prefix",
    "invariant_dimension",
    "reynolds_basis",
    "smallest_invariant_degree",
    "smallest_semiinvariant_degree",
]

DEFAULT_DEGREE_CAP = 24


class NoInvariantBelowCap(RuntimeError):
    """No nonzero invariant exists up to the requested degree cap."""


@dataclass(frozen=True)
class MolienPrefix:
    group_order: int
    coefficients: tuple[int, ...]  # index k = dim of degree-k invariants
    primes: tuple[int, ...]  # the two reduction primes that certified them

    def dimension(self, k: int) -> int:
        return self.coefficients[k]


def _molien_sums(group: GeneratedGroup, rmap: ReductionMap, max_degree: int) -> tuple[int, list[int]]:
    """The order of the image mod p and, for k <= max_degree, the sum over
    it of [t^k] 1/det(I - t g) mod p."""
    n, p = group.dimension, rmap.prime
    # distinct denominators only: conjugate elements share det(I - tg)
    buckets: dict[tuple[int, ...], int] = {}
    for g in modp_elements(group, rmap):
        denom = charpoly_mod(g, n, p)  # ascending coefficients of det(I - tg)
        buckets[denom] = buckets.get(denom, 0) + 1
    sums = [0] * (max_degree + 1)
    for denom, mult in buckets.items():
        series = [1]  # 1/denom(t) modulo t^(max_degree+1)
        for k in range(1, max_degree + 1):
            series.append(-sum(denom[j] * series[k - j] for j in range(1, min(k, n) + 1)) % p)
        for k, c in enumerate(series):
            sums[k] = (sums[k] + mult * c) % p
    return sum(buckets.values()), sums


def molien_prefix(group: GeneratedGroup, max_degree: int = DEFAULT_DEGREE_CAP,
                  elements: list[CycloMatrix] | None = None) -> MolienPrefix:
    """Molien coefficients for degrees 0..max_degree, certified at two primes.

    Each prime exceeds n, for the divisions of Faddeev-LeVerrier, and the
    largest possible coefficient C(n+max_degree-1, max_degree), so a
    coefficient is its own residue.  A prime dividing the enumerated order
    is skipped, since the average needs |G| inverted mod p.  The prefix
    stands only if both primes give the same order and the same
    coefficients, each within [0, C(n+k-1, k)] and c_0 = 1.  `elements`,
    if given, must number the certified order.
    """
    n = group.dimension
    bounds = [math.comb(n + k - 1, k) for k in range(max_degree + 1)]
    lower = max(max(bounds), n) + 1
    found = []
    while len(found) < 2:
        rmap = group.reduction_maps(1, lower_bound=lower)[0]
        p = rmap.prime
        lower = p + 1
        order, sums = _molien_sums(group, rmap, max_degree)
        if order % p:
            inv_order = pow(order, p - 2, p)
            found.append((p, order, tuple(s * inv_order % p for s in sums)))
    (p1, order, coeffs), (p2, order2, coeffs2) = found
    if order != order2:
        raise FaithfulnessSuspect(f"orders at p={p1} and p={p2} disagree: {order} and {order2}")
    if coeffs != coeffs2:
        raise FaithfulnessSuspect(f"Molien coefficients at p={p1} and p={p2} disagree")
    for k, (c, bound) in enumerate(zip(coeffs, bounds)):
        if c > bound:
            raise ArithmeticError(f"Molien coefficient {k} = {c} exceeds its bound {bound}")
    if coeffs[0] != 1:
        raise ArithmeticError("Molien series must start with 1")
    if elements is not None and len(elements) != order:
        raise FaithfulnessSuspect(f"{len(elements)} elements given for a group of order {order}")
    return MolienPrefix(group_order=order, coefficients=coeffs, primes=(p1, p2))


def invariant_dimension(group: GeneratedGroup, k: int,
                        elements: list[CycloMatrix] | None = None) -> int:
    """Dimension of the degree-k invariant space."""
    return molien_prefix(group, k, elements=elements).coefficients[k]


def _monomials_of_degree(nvars: int, k: int):
    """Exponent tuples of total degree k, graded-lex descending."""
    out = []
    for bars in combinations(range(k + nvars - 1), nvars - 1):
        prev = -1
        expo = []
        for b in bars:
            expo.append(b - prev - 1)
            prev = b
        expo.append(k + nvars - 1 - prev - 1)
        out.append(tuple(expo))
    return sorted(out, reverse=True)


def reynolds_basis(group: GeneratedGroup, k: int, exhaustive: bool = False,
                   dimension: int | None = None) -> list[HomogPoly]:
    """Basis of the degree-k invariants by averaging monomials over the group.

    Monomials are taken in graded-lex order, and each average that is
    independent of the earlier ones joins the basis.  An average is taken
    over the row orbit of the monomial's support (module docstring): one
    exact orbit per support, shared by the monomials with that support and
    projected off the whole group once that has been enumerated, and one
    expansion per orbit point, so the cost is at most |G| expansions per
    monomial and no exact group element is built.

    The Reynolds operator projects onto the invariant space, so once
    invariant_dimension(G, k) independent averages are found the space is
    spanned; pass exhaustive=True to keep averaging every monomial anyway
    (used by the Molien-vs-Reynolds consistency checks).  `dimension`, if
    given, is that certified Molien coefficient, read off a prefix the
    caller already has.
    """
    dim = dimension if dimension is not None else invariant_dimension(group, k)
    n = group.dimension
    m = group.conductor
    whole = tuple(range(n))
    orbits: dict[tuple[int, ...], list] = {}
    basis: list[tuple[dict, HomogPoly]] = []

    def orbit_of(support: tuple[int, ...]) -> list:
        if support not in orbits:
            if whole in orbits:
                # the rows `support` of every element, deduplicated
                points = {}
                for point in orbits[whole]:
                    rows = tuple(point[j] for j in support)
                    points.setdefault(tuple(x.c for row in rows for x in row), rows)
                orbits[support] = list(points.values())
            else:
                orbits[support] = row_orbit(group, support)
        return orbits[support]

    def reduce_terms(terms: dict) -> dict:
        for pivots, _poly in basis:
            lead = max(pivots)
            if lead in terms:
                f = terms[lead] * pivots[lead].inverse()
                terms = {
                    e: c
                    for e in set(terms) | set(pivots)
                    if not (c := terms.get(e, Cyc.zero(m)) - f * pivots.get(e, Cyc.zero(m))).is_zero()
                }
        return terms

    if exhaustive and k >= n:
        # the full-support monomials need the whole group; enumerate it
        # first so that every other support is projected off it
        orbit_of(whole)
    forms: list = [None] * n
    for expo in _monomials_of_degree(n, k):
        if not exhaustive and len(basis) == dim:
            break
        support = tuple(j for j, e in enumerate(expo) if e)
        orbit = orbit_of(support)
        mono = HomogPoly(n, k, {expo: Cyc.one(m)})
        acc: dict[tuple, Cyc] = {}
        for point in orbit:
            for j, row in zip(support, point):
                forms[j] = row
            for expo2, c in substitute(mono, forms, n).items():
                prev = acc.get(expo2)
                acc[expo2] = c if prev is None else prev + c
        inv_size = QQ(1, len(orbit))
        acc = {e: c * inv_size for e, c in acc.items() if not c.is_zero()}
        if not acc:
            continue
        reduced = reduce_terms(acc)
        if reduced:
            basis.append((reduced, HomogPoly(n, k, acc)))
    polys = [p for _, p in basis]
    if len(polys) != dim:
        raise ArithmeticError(
            f"Reynolds basis size {len(polys)} disagrees with Molien dimension {dim}"
        )
    return polys


def smallest_invariant_degree(group: GeneratedGroup, cap: int = DEFAULT_DEGREE_CAP,
                              elements: list[CycloMatrix] | None = None) -> int:
    prefix = molien_prefix(group, cap, elements=elements)
    for k in range(1, cap + 1):
        if prefix.coefficients[k]:
            return k
    raise NoInvariantBelowCap(f"no invariant of positive degree <= {cap}")


def smallest_semiinvariant_degree(group: GeneratedGroup, cap: int = DEFAULT_DEGREE_CAP) -> int:
    """Minimum positive degree of a semi-invariant of the group.

    A polynomial scaled by a linear character is exactly an invariant of
    the derived subgroup, and conversely any invariant of the derived
    subgroup spans, inside its finite orbit span, an eigenvector for the
    abelian quotient; so the answer is the smallest positive degree with a
    derived-subgroup invariant.
    """
    return smallest_invariant_degree(derived_subgroup(group), cap)
