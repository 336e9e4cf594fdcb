import random

import pytest

from autbound.catalog import (
    binary_icosahedral,
    binary_octahedral,
    binary_tetrahedral,
    diag_matrix,
    fermat_record,
    get_example,
    icosahedral_rotation,
    perm_matrix,
    quaternion_group,
)
from autbound.cyclo import Cyc, zeta
from autbound.groups import (
    CapExceeded,
    GeneratedGroup,
    _bsgs_chain,
    _Chain,
    _scalar_order_bsgs,
    NonFiniteOrderError,
    block_permutation_image,
    closure_order,
    derived_subgroup,
    exact_elements,
    row_orbit,
    schreier_sims_order,
    spans_matrix_algebra,
)
from autbound.matrix import CycloMatrix


def test_trivial_group():
    g = GeneratedGroup([CycloMatrix.identity(3)])
    s = closure_order(g)
    assert s.triple() == (1, 1, 1)


def test_fermat_1_3_closure():
    rec = fermat_record(1, 3)
    s = closure_order(rec.group)
    assert s.triple() == (162, 3, 54)


def test_closure_exact_matches_modp():
    for grp in (quaternion_group(), binary_tetrahedral(), binary_octahedral()):
        exact = closure_order(grp, strategy="exact")
        modp = closure_order(grp)
        assert exact.triple() == modp.triple()
        # injectivity of reduction on tier-1 groups: cardinalities agree
        assert len(exact_elements(grp)) == exact.order


def test_row_orbit():
    for grp in (quaternion_group(), binary_tetrahedral(), icosahedral_rotation()):
        n = grp.dimension
        elems = exact_elements(grp)
        # all n rows: the group itself, one orbit point per element
        whole = row_orbit(grp, range(n))
        assert sorted(CycloMatrix(rows).key() for rows in whole) == sorted(e.key() for e in elems)
        # fewer rows: the distinct projections of the elements, and the
        # orbit-stabilizer count
        for rows in ((0,), (n - 1,), (0, n - 1)):
            orbit = row_orbit(grp, rows)
            projected = {tuple(x.c for j in rows for x in e.rows[j]) for e in elems}
            assert len(orbit) == len(projected)
            assert {tuple(x.c for vec in point for x in vec) for point in orbit} == projected
            assert len(elems) % len(orbit) == 0
        assert row_orbit(grp, ()) == [()]
    with pytest.raises(CapExceeded):
        row_orbit(binary_tetrahedral(), range(2), max_elements=10)


def test_closure_is_a_group():
    grp = binary_octahedral()
    elems = exact_elements(grp)
    keys = {e.key() for e in elems}
    rng = random.Random(4)
    for _ in range(40):
        a = elems[rng.randrange(len(elems))]
        b = elems[rng.randrange(len(elems))]
        assert (a @ b).key() in keys
        assert a.inverse().key() in keys
    # Lagrange spot-check with the scalar subgroup
    scalar = sum(1 for e in elems if e.is_scalar())
    assert len(elems) % scalar == 0


def test_cap_exceeded_escalates():
    rec = get_example("ex-1-4")
    with pytest.raises(CapExceeded):
        closure_order(rec.group, max_elements=100)
    s = schreier_sims_order(rec.group)
    assert s.triple() == (672, 4, 168)


def test_closure_bsgs_agree_small():
    for grp, expect in [
        (binary_icosahedral(), (120, 2, 60)),
        (icosahedral_rotation(), (60, 1, 60)),
        (get_example("ex-1-6-2").group, (1296, 6, 216)),
        # edge cases of the projective chain: one dimension, so no base
        # point and the whole group in the scalar kernel
        (GeneratedGroup([CycloMatrix([[zeta(5)]])]), (5, 5, 1)),
        # scalars only: the kernel grows to lcm of the generator orders
        (GeneratedGroup([CycloMatrix.identity(3, 12) * zeta(12)]), (12, 12, 1)),
        # fixes every [e_i]; only the candidate [e_0 + e_1] separates it
        # from the scalars
        (GeneratedGroup([diag_matrix([zeta(3), 1], 3)]), (3, 1, 3)),
        (GeneratedGroup([CycloMatrix.identity(3)]), (1, 1, 1)),
    ]:
        assert closure_order(grp).triple() == expect
        assert schreier_sims_order(grp).triple() == expect


def test_scalar_order_read_off_the_chain(monkeypatch):
    grp = get_example("ex-1-4").group
    maps = grp.reduction_maps(2, lower_bound=10**6)
    n, p = grp.dimension, maps[0].prime
    chain = _bsgs_chain(grp.reduced_generators(maps[0]), n, p, seed=2024)
    calls = []
    real_sift = _Chain.sift

    def counting_sift(self, *args, **kwargs):
        calls.append(args)
        return real_sift(self, *args, **kwargs)

    monkeypatch.setattr(_Chain, "sift", counting_sift)
    assert _scalar_order_bsgs(chain) == 4
    assert calls == []
    monkeypatch.undo()
    s = schreier_sims_order(grp, maps=maps)
    assert min(s.primes) > 10**6
    assert s.triple() == (672, 4, 168)


def test_center_equals_scalar_for_irreducible():
    for grp, expect in ((binary_icosahedral(), (120, 2, 60)), (get_example("ex-1-4").group, (672, 4, 168))):
        assert spans_matrix_algebra(grp.generators)
        assert closure_order(grp).triple() == expect


def test_reducible_group_center_exceeds_scalars():
    g = GeneratedGroup([diag_matrix([zeta(3), 1], 3)])
    assert not spans_matrix_algebra(g.generators)
    s = closure_order(g)
    assert s.triple() == (3, 1, 3)


def test_derived_subgroup_examples():
    assert closure_order(derived_subgroup(GeneratedGroup([diag_matrix([zeta(5), 1], 5)]))).order == 1
    assert closure_order(derived_subgroup(binary_octahedral())).order == 24
    assert closure_order(derived_subgroup(binary_tetrahedral())).order == 8
    assert closure_order(derived_subgroup(binary_icosahedral())).order == 120


def test_pgl_image_order():
    s = closure_order(get_example("ex-2-4").group)
    assert s.pgl_order == 1920
    assert s.pgl_order * s.scalar_order == s.order


def test_non_finite_order_generator():
    g = GeneratedGroup([CycloMatrix([[1, 1], [0, 1]])])
    with pytest.raises(NonFiniteOrderError):
        g.validate(order_cap=50)


def test_validate_accepts_catalog_generators():
    get_example("ex-1-4").group.validate()
    binary_icosahedral().validate()


def test_block_permutation_image():
    rec = get_example("ex-2-6")
    assert len(block_permutation_image(rec.group, [2, 2])) == 2
    rec = get_example("ex-4-12")
    assert len(block_permutation_image(rec.group, [2, 2, 2])) == 6
    with pytest.raises(ValueError):
        block_permutation_image(get_example("ex-1-4").group, [2, 1])


def test_exact_elements_reconstruction():
    grp = quaternion_group()
    elems = exact_elements(grp)
    assert len(elems) == 8
    keys = {e.key() for e in elems}
    assert len(keys) == 8
    minus_i = CycloMatrix.identity(2, grp.conductor) * (-1)
    assert minus_i.key() in keys
