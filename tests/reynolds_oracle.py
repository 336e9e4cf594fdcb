"""Reference Reynolds operator for the tests: the plain average of a
monomial over every exact group element, with the same graded-lex order
and independence test as `molien.reynolds_basis`, so the two must return
the same polynomials in the same order."""

from itertools import product

from autbound.cyclo import QQ, Cyc
from autbound.poly import HomogPoly, act_by_inverse_of


def element_average_basis(group, k, elements):
    """Every independent element average of a degree-k monomial."""
    n, m = group.dimension, group.conductor
    inv_order = QQ(1, len(elements))
    basis = []

    def reduce_terms(terms):
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

    monomials = sorted((e for e in product(range(k + 1), repeat=n) if sum(e) == k), reverse=True)
    for expo in monomials:
        mono = HomogPoly(n, k, {expo: Cyc.one(m)})
        acc = {}
        for g in elements:
            # summing f(g x) over the group equals summing f(g^-1 x)
            for expo2, c in act_by_inverse_of(g, mono).terms.items():
                prev = acc.get(expo2)
                acc[expo2] = c if prev is None else prev + c
        acc = {e: c * inv_order for e, c in acc.items() if not c.is_zero()}
        reduced = reduce_terms(acc) if acc else {}
        if reduced:
            basis.append((reduced, HomogPoly(n, k, acc)))
    return [poly for _, poly in basis]
