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
    NonFiniteOrderError,
    block_permutation_image,
    closure_order,
    derived_subgroup,
    exact_elements,
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
    s = closure_order(rec.group, want_center=True)
    assert s.triple() == (162, 3, 54)
    assert s.center_order == 3


def test_closure_exact_matches_modp():
    for grp in (quaternion_group(), binary_tetrahedral(), binary_octahedral()):
        exact = closure_order(grp, strategy="exact")
        modp = closure_order(grp)
        assert exact.triple() == modp.triple()
        assert exact.center_order is None and modp.center_order is None
        exact = closure_order(grp, strategy="exact", want_center=True)
        modp = closure_order(grp, want_center=True)
        assert exact.center_order == modp.center_order == 2
        # injectivity of reduction on tier-1 groups: cardinalities agree
        assert len(exact_elements(grp)) == exact.order


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
    ]:
        assert closure_order(grp).triple() == expect
        assert schreier_sims_order(grp).triple() == expect


def test_center_equals_scalar_for_irreducible():
    for grp in (binary_icosahedral(), get_example("ex-1-4").group):
        assert spans_matrix_algebra(grp.generators)
        s = closure_order(grp, want_center=True)
        assert s.center_order == s.scalar_order


def test_reducible_group_center_exceeds_scalars():
    g = GeneratedGroup([diag_matrix([zeta(3), 1], 3)])
    assert not spans_matrix_algebra(g.generators)
    s = closure_order(g, want_center=True)
    assert s.triple() == (3, 1, 3)
    assert s.center_order == 3  # abelian: everything is central, nothing scalar


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
