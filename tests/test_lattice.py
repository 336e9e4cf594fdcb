import itertools
import random

import pytest

from autbound.cyclo import Cyc, zeta
from autbound.lattice import (
    RankDeficientError,
    block_scalar_stabilizer,
    diagonal_stabilizer,
    exponent_minor_bound,
    smith_normal_form,
)
from autbound.poly import HomogPoly

from test_poly import fermat, klein_quartic


def test_snf_basics():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 0], [0, 0]]) == [1, 0]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


def test_snf_against_sympy():
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(11)
    for _ in range(60):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        mine = smith_normal_form(rows)
        theirs = sympy_snf(Matrix(rows), domain=ZZ)
        ref = [abs(int(theirs[i, i])) for i in range(min(nr, nc))]
        assert mine == ref, (rows, mine, ref)


def test_snf_divisibility_chain():
    rng = random.Random(12)
    for _ in range(40):
        rows = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(rng.randint(2, 6))]
        diag = smith_normal_form(rows)
        nz = [d for d in diag if d]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def test_fermat_diagonal_stabilizer():
    for nvars in (2, 3, 4):
        for d in (3, 4, 5):
            stab = diagonal_stabilizer(fermat(nvars, d))
            assert stab.order == d**nvars
            assert stab.elementary_divisors == tuple([d] * nvars)


def test_klein_diagonal_stabilizer():
    stab = diagonal_stabilizer(klein_quartic())
    assert stab.order == 28
    assert stab.order <= 4**3


def test_diagonal_stabilizer_brute_force_oracle():
    # f = x0^3 + x0 x1^2: enumerate root-of-unity pairs directly
    f = HomogPoly(2, 3, {(3, 0): 1, (1, 2): 1})
    stab = diagonal_stabilizer(f)
    L = 1
    for d in stab.elementary_divisors:
        L = L * d // __import__("math").gcd(L, d)
    count = 0
    for a, b in itertools.product(range(L), repeat=2):
        c = (zeta(L, a), zeta(L, b))
        if all(
            c[0] ** e0 * c[1] ** e1 == Cyc.one(L) for (e0, e1) in f.terms
        ):
            count += 1
    assert count == stab.order == 6


def test_diagonal_stabilizer_rank_deficient():
    f = HomogPoly(2, 2, {(1, 1): 1})
    with pytest.raises(RankDeficientError):
        diagonal_stabilizer(f)


def test_exponent_minor_bound():
    rep = exponent_minor_bound(fermat(3, 5))
    assert rep.determinant == 125 and rep.ok
    rep = exponent_minor_bound(klein_quartic())
    assert rep.determinant == 28 and rep.bound == 64 and rep.ok
    f = HomogPoly(4, 6, {(5, 1, 0, 0): 1, (1, 5, 0, 0): -1, (0, 0, 5, 1): 1, (0, 0, 1, 5): -1})
    rep = exponent_minor_bound(f)
    assert rep.determinant == 576 and rep.ok


def test_minor_divides_full_lattice_order():
    for f in (fermat(3, 4), klein_quartic()):
        det = exponent_minor_bound(f).determinant
        order = diagonal_stabilizer(f).order
        assert det % order == 0


def test_block_scalar_stabilizer():
    f = HomogPoly(4, 6, {(5, 1, 0, 0): 1, (1, 5, 0, 0): -1, (0, 0, 5, 1): 1, (0, 0, 1, 5): -1})
    stab = block_scalar_stabilizer(f, [[0, 1], [2, 3]])
    assert stab.order <= 6**2
    full = diagonal_stabilizer(fermat(3, 4))
    collapsed = block_scalar_stabilizer(fermat(3, 4), [[0], [1], [2]])
    assert collapsed == full


def test_block_scalar_stabilizer_ignores_coefficients():
    # x0^5 x1 - x0 x1^5 collapses to 0 * y0^6 under equal block constants,
    # but a block scalar fixes each monomial on its own: the stabilizer is
    # that of the collapsed support y0^6, y1^6, y2^6
    f = HomogPoly(4, 6, {(5, 1, 0, 0): 1, (1, 5, 0, 0): -1, (0, 0, 6, 0): 1, (0, 0, 0, 6): 1})
    blocks = [[0, 1], [2], [3]]
    stab = block_scalar_stabilizer(f, blocks)
    assert stab == diagonal_stabilizer(fermat(3, 6))
    assert stab.order == 6**3
    g = HomogPoly(4, 6, {(5, 1, 0, 0): 2, (1, 5, 0, 0): 7, (0, 0, 6, 0): -3, (0, 0, 0, 6): 1})
    assert block_scalar_stabilizer(g, blocks) == stab
    with pytest.raises(ValueError):
        block_scalar_stabilizer(f, [[0, 1], [2]])
