"""Sparse homogeneous polynomials with cyclotomic coefficients and the
left action (g . f)(x) = f(g^-1 x) of matrix groups on them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .cyclo import Cyc, QQ, format_literal, parse_literal
from .matrix import CycloMatrix

__all__ = [
    "HomogPoly",
    "act",
    "act_by_inverse_of",
    "substitute",
    "is_invariant",
    "semi_invariant_character",
    "SmoothnessReport",
    "smoothness_necessary",
    "avoids_variables",
    "collapse_blocks",
]


class HomogPoly:
    """Homogeneous polynomial: map from exponent tuples to nonzero Cyc."""

    __slots__ = ("nvars", "degree", "terms", "conductor")

    def __init__(self, nvars: int, degree: int, terms: dict):
        clean = {}
        m = 1
        for expo, coeff in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo}")
            if sum(expo) != degree:
                raise ValueError(f"monomial {expo} does not have degree {degree}")
            if not isinstance(coeff, Cyc):
                coeff = Cyc.from_rational(QQ(coeff))
            if coeff.is_zero():
                continue
            clean[expo] = coeff
            m = m * coeff.m // math.gcd(m, coeff.m)
        if not clean:
            raise ValueError("polynomial must have at least one term")
        self.nvars = nvars
        self.degree = degree
        self.conductor = m
        self.terms = {e: c.to_conductor(m) for e, c in clean.items()}

    def monomials(self):
        """Graded-lexicographic order (degree is constant, so plain lex)."""
        return sorted(self.terms, reverse=True)

    def __eq__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.nvars != other.nvars or self.degree != other.degree:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    __hash__ = None

    def scaled(self, c: Cyc) -> "HomogPoly":
        return HomogPoly(self.nvars, self.degree, {e: x * c for e, x in self.terms.items()})

    def to_json(self) -> dict:
        m = self.conductor
        return {
            "conductor": m,
            "nvars": self.nvars,
            "degree": self.degree,
            "terms": [
                {"exponents": list(e), "coeff": format_literal(self.terms[e])}
                for e in self.monomials()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "HomogPoly":
        m = int(data["conductor"])
        terms = {
            tuple(t["exponents"]): parse_literal(t["coeff"], m) for t in data["terms"]
        }
        return HomogPoly(int(data["nvars"]), int(data["degree"]), terms)

    def __repr__(self):
        return f"HomogPoly(nvars={self.nvars}, degree={self.degree}, {len(self.terms)} terms)"


def _power(form, e: int, nvars_out: int) -> dict:
    """The terms of (sum_k form[k] x_k)^e by the multinomial theorem: one
    product of powers per term, each a multinomial coefficient times
    prod_k form[k]^(a_k), rather than one product per term and factor."""
    base = [(k, c) for k, c in enumerate(form) if not c.is_zero()]
    # (exponents, product of powers so far or None, degree left)
    partial = [(tuple([0] * nvars_out), None, e)]
    for i, (k, c) in enumerate(base):
        powers = [None, c]
        for _ in range(e - 1):
            powers.append(powers[-1] * c)
        nxt = []
        for expo, prod, left in partial:
            # the last variable takes whatever degree is left
            for a in (range(left + 1) if i < len(base) - 1 else (left,)):
                if a:
                    expo2 = expo[:k] + (expo[k] + a,) + expo[k + 1:]
                    nxt.append((expo2, powers[a] if prod is None else prod * powers[a], left - a))
                else:
                    nxt.append((expo, prod, left))
        partial = nxt
    top = math.factorial(e)
    out = {}
    for expo, prod, left in partial:
        if left == 0:
            mult = top // math.prod(math.factorial(a) for a in expo)
            out[expo] = prod if mult == 1 else prod * mult
    return out


def substitute(f: HomogPoly, forms: list, nvars_out: int) -> dict:
    """The terms of f(l_0, ..., l_{n-1}), where l_j = sum_k forms[j][k] x_k
    in nvars_out variables; forms[j] is read only for variables x_j that
    occur in f.  Each power l_j^e is expanded once per call."""
    out: dict[tuple, Cyc] = {}
    powers: dict[tuple[int, int], dict] = {}
    zero_out = tuple([0] * nvars_out)
    for expo, coeff in f.terms.items():
        # product over variables of (linear form)^e_j, accumulated sparsely
        acc = {zero_out: coeff}
        for j, e in enumerate(expo):
            if e == 0:
                continue
            power = powers.get((j, e))
            if power is None:
                power = powers[(j, e)] = _power(forms[j], e, nvars_out)
            nxt: dict[tuple, Cyc] = {}
            for mono, c in acc.items():
                for mono2, c2 in power.items():
                    key = tuple(a + b for a, b in zip(mono, mono2))
                    prev = nxt.get(key)
                    nxt[key] = c * c2 if prev is None else prev + c * c2
            acc = nxt
        for mono, c in acc.items():
            prev = out.get(mono)
            out[mono] = c if prev is None else prev + c
    return {e: c for e, c in out.items() if not c.is_zero()}


def act_by_inverse_of(ginv: CycloMatrix, f: HomogPoly) -> HomogPoly:
    """f(ginv . x), with ginv already inverted by the caller."""
    if ginv.n != f.nvars:
        raise ValueError("dimension mismatch between matrix and polynomial")
    m = ginv.m * f.conductor // math.gcd(ginv.m, f.conductor)
    gi = ginv.to_conductor(m)
    forms = [list(gi.rows[j]) for j in range(gi.n)]
    fm = HomogPoly(f.nvars, f.degree, {e: c.to_conductor(m) for e, c in f.terms.items()})
    return HomogPoly(f.nvars, f.degree, substitute(fm, forms, f.nvars))


def act(g: CycloMatrix, f: HomogPoly) -> HomogPoly:
    """(g . f)(x) = f(g^-1 x); a left action."""
    return act_by_inverse_of(g.inverse(), f)


def is_invariant(gens: list[CycloMatrix], f: HomogPoly) -> bool:
    """True iff g . f = f for every generator (hence for the whole group)."""
    return all(act(g, f) == f for g in gens)


def semi_invariant_character(gens: list[CycloMatrix], f: HomogPoly):
    """Per-generator scalars chi(g) with g . f = chi(g) f, or None if some
    image is not proportional to f."""
    lead = max(f.terms)
    chars = []
    for g in gens:
        h = act(g, f)
        if set(h.terms) != set(f.terms):
            return None
        chi = h.terms[lead] * f.terms[lead].inverse()
        if any(not h.terms[e] == f.terms[e] * chi for e in f.terms):
            return None
        chars.append(chi)
    return chars


@dataclass(frozen=True)
class SmoothnessReport:
    """Presence of the per-variable monomials x_j^d or x_j^(d-1) x_k whose
    absence would make the coordinate point of x_j a singular point."""

    witnesses: tuple  # per variable: exponent tuple or None
    ok: bool

    def witness(self, j: int):
        return self.witnesses[j]


def smoothness_necessary(f: HomogPoly) -> SmoothnessReport:
    d = f.degree
    witnesses = []
    for j in range(f.nvars):
        pure = tuple(d if k == j else 0 for k in range(f.nvars))
        found = pure if pure in f.terms else None
        if found is None:
            for k in range(f.nvars):
                if k == j:
                    continue
                expo = tuple(
                    (d - 1) if t == j else (1 if t == k else 0) for t in range(f.nvars)
                )
                if expo in f.terms:
                    found = expo
                    break
        witnesses.append(found)
    return SmoothnessReport(tuple(witnesses), all(w is not None for w in witnesses))


def avoids_variables(f: HomogPoly, k: int) -> bool:
    """True iff for every k-subset S of the variables some monomial of f
    avoids all of S.  Guaranteed for smooth hypersurfaces when k < nvars/2."""
    if not 0 < k < f.nvars:
        raise ValueError("need 0 < k < nvars")
    supports = [frozenset(i for i, e in enumerate(expo) if e) for expo in f.terms]
    for subset in combinations(range(f.nvars), k):
        s = set(subset)
        if not any(s.isdisjoint(sup) for sup in supports):
            return False
    return True


def collapse_blocks(f: HomogPoly, blocks: list[list[int]], constants: list[Cyc]) -> HomogPoly:
    """Substitute x_j -> beta_j * y_b for each variable j in block b.

    Terms may merge or cancel; a zero result raises (the collapse constants
    were degenerate)."""
    if sorted(j for b in blocks for j in b) != list(range(f.nvars)):
        raise ValueError("blocks must partition the variables")
    if len(constants) != f.nvars:
        raise ValueError("one constant per variable required")
    var_block = {}
    for b, block in enumerate(blocks):
        for j in block:
            var_block[j] = b
    m = f.conductor
    for c in constants:
        m = m * c.m // math.gcd(m, c.m)
    out: dict[tuple, Cyc] = {}
    for expo, coeff in f.terms.items():
        c = coeff.to_conductor(m)
        key = [0] * len(blocks)
        for j, e in enumerate(expo):
            if e:
                key[var_block[j]] += e
                c = c * (constants[j].to_conductor(m) ** e)
        key = tuple(key)
        prev = out.get(key)
        out[key] = c if prev is None else prev + c
    out = {e: c for e, c in out.items() if not c.is_zero()}
    if not out:
        raise ValueError("collapse produced the zero polynomial")
    return HomogPoly(len(blocks), f.degree, out)
