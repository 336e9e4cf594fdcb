import math
import random

import pytest

from autbound import groups, molien
from autbound.catalog import (
    binary_icosahedral,
    binary_octahedral,
    binary_tetrahedral,
    diag_matrix,
    get_primitive_group,
    icosahedral_rotation,
    quaternion_group,
)
from autbound.cyclo import find_reduction_prime, reduce_mod, zeta
from autbound.groups import FaithfulnessSuspect, GeneratedGroup, exact_elements
from autbound.matrix import CycloMatrix, charpoly_mod
from autbound.molien import (
    NoInvariantBelowCap,
    invariant_dimension,
    molien_prefix,
    reynolds_basis,
    smallest_invariant_degree,
    smallest_semiinvariant_degree,
)
from autbound.poly import is_invariant
from reynolds_oracle import element_average_basis


def test_trivial_group_dimensions():
    g = GeneratedGroup([CycloMatrix.identity(4)])
    for k in range(6):
        assert invariant_dimension(g, k) == math.comb(4 + k - 1, k)


def test_sign_group_odd_degrees_vanish():
    g = GeneratedGroup([CycloMatrix.identity(2) * (-1)])
    prefix = molien_prefix(g, 9)
    assert all(prefix.coefficients[k] == 0 for k in range(1, 10, 2))
    assert [prefix.coefficients[k] for k in range(0, 10, 2)] == [1, 3, 5, 7, 9]


def test_cyclic_group_oracle():
    # <diag(zeta_5, zeta_5^-1)>: invariants are monomials x^a y^b with
    # a = b (mod 5); count them directly per degree
    g = GeneratedGroup([diag_matrix([zeta(5), zeta(5, 4)], 5)])
    prefix = molien_prefix(g, 10)
    for k in range(11):
        count = sum(1 for a in range(k + 1) if (a - (k - a)) % 5 == 0)
        assert prefix.coefficients[k] == count


def test_binary_icosahedral_first_invariant_degree():
    prefix = molien_prefix(binary_icosahedral(), 12)
    assert all(c == 0 for c in prefix.coefficients[1:12])
    assert prefix.coefficients[12] == 1


def test_reynolds_matches_molien_exhaustive():
    for grp in (quaternion_group(), binary_tetrahedral()):
        elems = exact_elements(grp)
        for k in (2, 4, 6):
            basis = reynolds_basis(grp, k, exhaustive=True)
            assert len(basis) == invariant_dimension(grp, k, elements=elems)
            for f in basis:
                assert is_invariant(grp.generators, f)


def test_reynolds_orbit_average_equals_element_average():
    for grp in (quaternion_group(), binary_tetrahedral(), binary_octahedral()):
        elems = exact_elements(grp)
        for k in (2, 4, 6, 8):
            assert reynolds_basis(grp, k, exhaustive=True) == element_average_basis(grp, k, elems)


def test_reynolds_basis_builds_no_exact_elements(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact group elements")

    monkeypatch.setattr(groups, "exact_elements", refuse)
    monkeypatch.setattr(molien, "exact_elements", refuse, raising=False)
    val = get_primitive_group("valentiner-group").group
    basis = reynolds_basis(val, 6)
    assert len(basis) == 1 and is_invariant(val.generators, basis[0])


def test_reynolds_trivial_group_degree_one():
    g = GeneratedGroup([CycloMatrix.identity(3)])
    basis = reynolds_basis(g, 1)
    assert len(basis) == 3
    assert sorted(max(f.terms) for f in basis) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_smallest_degrees():
    assert smallest_semiinvariant_degree(binary_icosahedral()) == 12
    assert smallest_semiinvariant_degree(binary_octahedral()) == 6
    assert smallest_semiinvariant_degree(binary_tetrahedral()) == 4
    assert smallest_semiinvariant_degree(icosahedral_rotation()) == 2


def test_perfect_group_semiinvariants_are_invariants():
    g = binary_icosahedral()
    assert smallest_semiinvariant_degree(g) == smallest_invariant_degree(g)


def test_no_invariant_below_cap():
    with pytest.raises(NoInvariantBelowCap):
        smallest_invariant_degree(binary_icosahedral(), cap=8)


def test_six_dimensional_prefix_needs_three_byte_keys():
    # degree 30 in 6 variables needs p > C(35, 30) = 324632, so every
    # packed entry takes three bytes; -I has entries p - 1 >= 65536
    ident = GeneratedGroup([CycloMatrix.identity(6)])
    prefix = molien_prefix(ident, 30)
    assert prefix.coefficients == tuple(math.comb(5 + k, k) for k in range(31))
    assert min(prefix.primes) > math.comb(35, 30)
    sign = GeneratedGroup([CycloMatrix.identity(6) * (-1)])
    assert molien_prefix(sign, 30).coefficients == tuple(
        math.comb(5 + k, k) if k % 2 == 0 else 0 for k in range(31))


def test_prime_dividing_the_order_is_skipped():
    # order 3, conductor 1: the first prime above the degree-1 bound is 3,
    # which cannot invert |G|
    g = GeneratedGroup([CycloMatrix([[0, -1], [1, -1]])])
    prefix = molien_prefix(g, 1)
    assert prefix.group_order == 3
    assert prefix.coefficients == (1, 0)
    assert 3 not in prefix.primes and len(set(prefix.primes)) == 2


def test_elements_must_number_the_certified_order():
    grp = binary_tetrahedral()
    elems = exact_elements(grp)
    assert molien_prefix(grp, 4, elements=elems).group_order == len(elems) == 24
    with pytest.raises(FaithfulnessSuspect):
        molien_prefix(grp, 4, elements=elems[:-1])


def test_molien_never_takes_an_exact_charpoly(monkeypatch):
    def refuse(self):
        raise AssertionError("exact characteristic polynomial")

    monkeypatch.setattr(CycloMatrix, "charpoly", refuse)
    grp = binary_tetrahedral()
    assert smallest_semiinvariant_degree(grp) == 4
    assert len(reynolds_basis(grp, 6)) == invariant_dimension(grp, 6) == 1


def test_charpoly_mod_matches_exact_charpoly():
    rng = random.Random(31)
    for n in range(1, 7):
        for _ in range(10):
            mat = CycloMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            rmap = find_reduction_prime(1, rng.choice([7, 101, 70_000]))
            exact = [reduce_mod(c, rmap) for c in reversed(mat.charpoly())]
            assert list(charpoly_mod(mat.reduce(rmap), n, rmap.prime)) == exact
