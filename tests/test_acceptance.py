"""Acceptance criteria.  One test per criterion; each prints a single
pass/fail line (visible with -rA or -s) and enforces the stated tolerances
with assertions."""

import math
import time

import pytest

from autbound.bounds import (
    Partition,
    enumerate_exceptional,
    ratio_strings_match,
    verify_no_exceptional,
    xi,
)
from autbound.catalog import (
    example_ids,
    external_data_dir,
    fermat_record,
    get_example,
    get_primitive_group,
)
from autbound.groups import closure_order, exact_elements, schreier_sims_order
from autbound.lattice import diagonal_stabilizer, exponent_minor_bound
from autbound.molien import (
    invariant_dimension,
    molien_prefix,
    reynolds_basis,
    smallest_semiinvariant_degree,
)
from autbound.poly import is_invariant
from autbound.verify import Budget, verify_example

from table2_expected import TABLE2


def _report(criterion, passed, detail, t0):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {status} ({time.time() - t0:.1f}s) - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_table2():
    t0 = time.time()
    rows = enumerate_exceptional(2, 26)
    ok = len(rows) == 80
    mismatches = []
    for row, (idx, n, part, max_d, ratio) in zip(rows, TABLE2):
        if (row.n, row.partition, row.max_d) != (n, Partition.parse(part), max_d):
            mismatches.append((idx, "triple"))
        if not ratio_strings_match(row.ratio_str, ratio):
            mismatches.append((idx, "ratio"))
    ok = ok and not mismatches
    _report(1, ok, f"80-row table reproduced exactly; ratios within one ulp {mismatches or ''}", t0)


def test_criterion_2_xi_table():
    t0 = time.time()
    expected = {1: 1, 2: 60, 3: 360, 4: 25920, 5: 25920, 6: 6531840,
                7: 1451520, 8: 348364800, 9: 4199040, 12: 448345497600}
    ok = all(xi(n) == v for n, v in expected.items())
    ok = ok and all(xi(n) == math.factorial(n + 1) for n in (10, 11, 13, 20, 26))
    _report(2, ok, "nine exceptional values (incl. corrected N=8) and (N+1)! elsewhere", t0)


def test_criterion_3_highdim_sweep():
    t0 = time.time()
    failures = [n for n in range(27, 41) if not verify_no_exceptional(n).ok]
    _report(3, not failures, f"no exceptional partition for 27 <= N <= 40 {failures or ''}", t0)


TIER1_EXPECT = {
    "ex-1-4": (672, 4, 168),
    "ex-1-6": (2160, 6, 360),
    "ex-1-6-2": (1296, 6, 216),
    "ex-2-4": (7680, 4, 1920),
    "ex-2-6": (41472, 6, 6912),
    "ex-2-12": (1036800, 12, 86400),
}


def test_criterion_4_tier1_orders():
    t0 = time.time()
    bad = []
    for eid, expect in TIER1_EXPECT.items():
        rec = get_example(eid)
        enum = closure_order(rec.group).triple()
        bsgs = schreier_sims_order(rec.group).triple()
        if not (enum == bsgs == expect):
            bad.append((eid, enum, bsgs, expect))
    _report(4, not bad, f"six tier-1 triples, closure and BSGS agreeing {bad or ''}", t0)


def test_criterion_5_large_orders():
    t0 = time.time()
    details = []
    ok = True

    rec46 = get_example("ex-4-6")
    got46 = schreier_sims_order(rec46.group).triple()
    ok &= got46 == (39191040, 6, 6531840)
    details.append(f"ex-4-6 {got46}")

    rec412 = get_example("ex-4-12")
    got412 = schreier_sims_order(rec412.group).triple()
    ok &= got412 == (2239488000, 12, 186624000)
    details.append(f"ex-4-12 {got412} (two-prime)")

    # the budgeted path must degrade explicitly, never silently
    degraded = verify_example("ex-4-12", Budget(tier3=False))
    order_check = next(c for c in degraded.checks if c.name == "order")
    scalar_check = next(c for c in degraded.checks if c.name == "scalar-order")
    block_check = next(c for c in degraded.checks if c.name == "block-permutation-image")
    inv_check = next(c for c in degraded.checks if c.name == "invariance")
    ok &= order_check.skipped and bool(order_check.note)
    ok &= scalar_check.passed and block_check.passed and inv_check.passed
    ok &= degraded.overall == "conditional-pass"
    details.append("budgeted rerun degrades explicitly (order skipped; scalar, blocks, invariance pass)")
    _report(5, ok, "; ".join(details), t0)


def test_criterion_6_invariance_suite():
    t0 = time.time()
    bad = []
    for eid in example_ids():
        rec = get_example(eid)
        inv = is_invariant(rec.group.generators, rec.polynomial)
        if rec.invariance_check == "direct":
            if not inv:
                bad.append((eid, "expected invariant"))
        else:
            if inv:
                bad.append((eid, "expected printed-coordinate mismatch"))
            if invariant_dimension(rec.group, rec.d) != 1:
                bad.append((eid, "degree-6 invariant space not 1-dimensional"))
    _report(6, not bad,
            f"seven defining polynomials exactly invariant; Wiman mismatch and "
            f"dimension-1 substitute confirmed {bad or ''}", t0)


CORE_DEGREES = [
    ("binary-icosahedral", 12),
    ("binary-octahedral", 6),
    ("binary-tetrahedral", 4),
    ("valentiner-group", 6),
    ("klein-quartic-group", 4),
    ("icosahedral-rotation", 2),
]

EXTENDED_DEGREES = [
    ("sp4-3", 12),
    ("two-a7", 8),
    ("two-s6", 8),
    ("psp4-3", 4),
]


def test_criterion_7_invariant_degrees_core():
    t0 = time.time()
    bad = []
    for gid, expect in CORE_DEGREES:
        rec = get_primitive_group(gid)
        got = smallest_semiinvariant_degree(rec.group, 14)
        if got != expect:
            bad.append((gid, got, expect))
    # Klein group: next semi-invariant degree is 6
    from autbound.groups import derived_subgroup

    klein_derived = derived_subgroup(get_primitive_group("klein-quartic-group").group)
    prefix = molien_prefix(klein_derived, 6)
    if not (prefix.coefficients[4] >= 1 and prefix.coefficients[5] == 0 and prefix.coefficients[6] >= 1):
        bad.append(("klein-next-degree", prefix.coefficients))
    # Valentiner: unique degree-6 invariant
    val = get_primitive_group("valentiner-group").group
    elems = exact_elements(val)
    dim = invariant_dimension(val, 6, elements=elems)
    if dim != 1:
        bad.append(("valentiner-dimension", dim))
    basis = reynolds_basis(val, 6)
    if len(basis) != 1 or not is_invariant(val.generators, basis[0]):
        bad.append(("valentiner-reynolds", len(basis)))
    _report("7 (core)", not bad,
            f"semi-invariant degrees 12/6/4 (binary polyhedral), 6 (Valentiner, unique), "
            f"4-then-6 (Klein), 2 (3-dim rotation) {bad or ''}", t0)


@pytest.mark.skipif(not (external_data_dir() / "two_a7_dim4.json").exists(),
                    reason="external generator files not built")
def test_criterion_7_invariant_degrees_extended():
    t0 = time.time()
    bad = []
    for gid, expect in EXTENDED_DEGREES:
        rec = get_primitive_group(gid)
        order = closure_order(rec.group, max_elements=60_000).order
        if order != rec.expected_order:
            bad.append((gid, "order", order))
        got = smallest_semiinvariant_degree(rec.group, 14)
        if got != expect:
            bad.append((gid, got, expect))
    _report("7 (extended)", not bad,
            f"12 for the 4-dim 51840-group, 8 for both 4-dim covers, 4 for the "
            f"5-dim simple group {bad or ''}", t0)


def test_criterion_8_lattice_bounds():
    t0 = time.time()
    bad = []
    for nv in range(2, 7):
        for d in range(3, 13):
            stab = diagonal_stabilizer(fermat_record(nv - 2, d).polynomial if nv >= 3 else _fermat_poly(nv, d))
            if stab.order != d**nv or set(stab.elementary_divisors) != {d}:
                bad.append(("fermat", nv, d))
    for eid in example_ids():
        rec = get_example(eid)
        bound = rec.d ** (rec.n + 2)
        if diagonal_stabilizer(rec.polynomial).order > bound:
            bad.append((eid, "stabilizer"))
        minor = exponent_minor_bound(rec.polynomial)
        if not (0 < minor.determinant <= bound):
            bad.append((eid, "minor"))
    _report(8, not bad,
            f"Fermat stabilizers d^N for N <= 6, d <= 12; catalog stabilizers and "
            f"minors within d^(n+2) {bad or ''}", t0)


def _fermat_poly(nv, d):
    from autbound.poly import HomogPoly

    return HomogPoly(nv, d, {tuple(d if k == j else 0 for k in range(nv)): 1 for j in range(nv)})


def test_criterion_9_property_suites():
    t0 = time.time()
    import test_properties as props

    props.test_field_axioms_100()
    props.test_reduction_homomorphism_100()
    props.test_action_composition_100()
    props.test_molien_reynolds_agreement_100()
    props.test_concatenation_inequality_100()
    _report(9, True,
            "field axioms, reduction homomorphism, action composition, "
            "Molien/Reynolds agreement, concatenation inequality: >= 100 seeded instances each", t0)
