"""Randomized property suites: field axioms, reduction homomorphism,
action composition, Molien/Reynolds agreement, concatenation inequality.
Each suite runs at least 100 seeded instances."""

import math
import random

from autbound.bounds import Partition, bound_B
from autbound.catalog import get_example
from autbound.cyclo import Cyc, QQ, euler_phi, find_reduction_prime, rational, reduce_mod, zeta
from autbound.groups import GeneratedGroup, closure_order, exact_elements
from autbound.lattice import block_scalar_stabilizer, diagonal_stabilizer
from autbound.matrix import CycloMatrix
from autbound.molien import invariant_dimension, reynolds_basis
from autbound.poly import HomogPoly, act, collapse_blocks, is_invariant, smoothness_necessary
from reynolds_oracle import element_average_basis

SEED = 20260810


def _random_cyc(rng, m):
    return Cyc(m, [QQ(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(euler_phi(m))])


def test_field_axioms_100():
    rng = random.Random(SEED)
    for _ in range(120):
        m = rng.choice([3, 4, 5, 7, 8, 9, 12, 15])
        a, b, c = (_random_cyc(rng, m) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        if not a.is_zero():
            assert a * a.inverse() == rational(1)


def test_reduction_homomorphism_100():
    rng = random.Random(SEED + 1)
    maps = {m: find_reduction_prime(m, 3) for m in (3, 4, 5, 8, 12)}
    done = 0
    while done < 110:
        m = rng.choice([3, 4, 5, 8, 12])
        rmap = maps[m]
        p = rmap.prime
        a, b = _random_cyc(rng, m), _random_cyc(rng, m)
        if any(int(x.denominator) % p == 0 for x in a.c + b.c):
            continue
        assert reduce_mod(a + b, rmap) == (reduce_mod(a, rmap) + reduce_mod(b, rmap)) % p
        assert reduce_mod(a * b, rmap) == (reduce_mod(a, rmap) * reduce_mod(b, rmap)) % p
        done += 1


def _random_monomial_matrix(rng, n, m):
    perm = list(range(n))
    rng.shuffle(perm)
    entries = [[Cyc.zero(m) for _ in range(n)] for _ in range(n)]
    for j, i in enumerate(perm):
        entries[i][j] = zeta(m, rng.randrange(m))
    return CycloMatrix(entries, conductor=m)


def test_action_composition_100():
    rng = random.Random(SEED + 2)
    klein = get_example("ex-1-4")
    pool3 = klein.group.generators + [_random_monomial_matrix(rng, 3, 4) for _ in range(4)]
    done = 0
    while done < 110:
        n = rng.choice([2, 3])
        m = rng.choice([3, 4, 6])
        if n == 3 and rng.random() < 0.4:
            g, h = rng.choice(pool3), rng.choice(pool3)
        else:
            g = _random_monomial_matrix(rng, n, m)
            h = _random_monomial_matrix(rng, n, m)
            pass
        if g.n != h.n:
            continue
        nv = g.n
        d = rng.randint(2, 5)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            cuts = sorted(rng.randint(0, d) for _ in range(nv - 1))
            expo = []
            prev = 0
            for c in list(cuts) + [d]:
                expo.append(c - prev)
                prev = c
            terms[tuple(expo)] = rng.randint(1, 5)
        f = HomogPoly(nv, d, terms)
        assert act(g, act(h, f)) == act(g @ h, f)
        done += 1


def test_molien_reynolds_agreement_100():
    rng = random.Random(SEED + 3)
    done = 0
    while done < 100:
        n = rng.choice([2, 2, 3])
        m = rng.choice([2, 3, 4])
        gens = [_random_monomial_matrix(rng, n, m) for _ in range(rng.randint(1, 2))]
        group = GeneratedGroup(gens, max_elements=500)
        try:
            elems = exact_elements(group, max_elements=500)
        except Exception:
            continue
        k = rng.randint(1, 4)
        basis = reynolds_basis(group, k, exhaustive=True)
        assert basis == element_average_basis(group, k, elems)
        assert len(basis) == invariant_dimension(group, k, elements=elems)
        for f in basis:
            assert is_invariant(group.generators, f)
        done += 1


def test_concatenation_inequality_100():
    rng = random.Random(SEED + 4)
    for _ in range(140):
        a = Partition([rng.randint(1, 8) for _ in range(rng.randint(1, 5))])
        b = Partition([rng.randint(1, 8) for _ in range(rng.randint(1, 5))])
        d = rng.randint(3, 9)
        lhs = bound_B(a, d) * bound_B(b, d)
        rhs = bound_B(a.concat(b), d)
        assert lhs <= rhs
        if set(a.blocks).isdisjoint(b.blocks):
            assert lhs == rhs
    # forced disjoint-equality cases
    for _ in range(40):
        sizes = rng.sample(range(1, 9), 4)
        a = Partition([sizes[0]] * rng.randint(1, 3) + [sizes[1]])
        b = Partition([sizes[2]] * rng.randint(1, 3) + [sizes[3]])
        d = rng.randint(3, 6)
        assert bound_B(a, d) * bound_B(b, d) == bound_B(a.concat(b), d)


def test_block_collapse_preserves_special_monomials():
    rng = random.Random(SEED + 5)
    for eid, blocks in [("ex-2-6", [[0, 1], [2, 3]]),
                        ("ex-2-12", [[0, 1], [2, 3]]),
                        ("ex-4-12", [[0, 1], [2, 3], [4, 5]])]:
        rec = get_example(eid)
        hits = 0
        for _ in range(8):
            constants = [Cyc.from_rational(QQ(rng.randint(1, 19))) for _ in range(rec.polynomial.nvars)]
            try:
                collapsed = collapse_blocks(rec.polynomial, blocks, constants)
            except ValueError:
                continue
            if smoothness_necessary(collapsed).ok:
                hits += 1
        assert hits >= 1, eid
        stab = block_scalar_stabilizer(rec.polynomial, blocks)
        assert stab.order <= rec.d ** len(blocks)


def test_block_stabilizer_matches_scalar_count():
    # two-block sextic: the block scalar stabilizer has order d^2 / gcd
    # structure; cross-check against the defining condition on a sample of
    # root-of-unity pairs
    rec = get_example("ex-2-6")
    stab = block_scalar_stabilizer(rec.polynomial, [[0, 1], [2, 3]])
    L = 1
    for dv in stab.elementary_divisors:
        L = L * dv // math.gcd(L, dv)
    count = 0
    for a in range(L):
        for b in range(L):
            c0, c1 = zeta(L, a), zeta(L, b)
            if all(
                (c0 ** (e[0] + e[1])) * (c1 ** (e[2] + e[3])) == rational(1)
                for e in rec.polynomial.terms
            ):
                count += 1
    assert count == stab.order
