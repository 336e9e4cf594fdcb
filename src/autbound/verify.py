"""Verification pipeline: recompute every expected number of a catalog
record and compare, with explicit (never silent) degradation when a
budget rules out an order computation."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .bounds import bound_B, fermat_bound
from .catalog import (
    MAINTHM_BOUNDS,
    ExampleRecord,
    PrimitiveGroupRecord,
    example_ids,
    get_primitive_group,
    get_record,
    primitive_group_ids,
)
from .groups import (
    CapExceeded,
    TIER1_CAP,
    block_permutation_image,
    closure_order,
    schreier_sims_order,
)
from .lattice import diagonal_stabilizer, exponent_minor_bound
from .molien import invariant_dimension, smallest_semiinvariant_degree
from .poly import avoids_variables, is_invariant, smoothness_necessary

__all__ = ["Budget", "Check", "VerificationReport", "verify_example", "verify_all", "bound_consistency"]


@dataclass(frozen=True)
class Budget:
    max_elements: int = TIER1_CAP
    tier3: bool = False
    seed: int = 2024
    cross_check_bsgs: bool = False


@dataclass(frozen=True)
class Check:
    name: str
    expected: object
    computed: object
    passed: bool
    skipped: bool = False
    note: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expected": _plain(self.expected),
            "computed": _plain(self.computed),
            "passed": self.passed,
            "skipped": self.skipped,
            "note": self.note,
        }


def _plain(x):
    if isinstance(x, (bool, int, str, float, type(None))):
        return x
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    return str(x)


@dataclass
class VerificationReport:
    example_id: str
    checks: list[Check] = field(default_factory=list)
    tier: str = ""
    seconds: float = 0.0

    @property
    def overall(self) -> str:
        if any(not c.passed and not c.skipped for c in self.checks):
            return "fail"
        if any(c.skipped for c in self.checks):
            return "conditional-pass"
        return "pass"

    def to_json(self) -> dict:
        return {
            "example": self.example_id,
            "overall": self.overall,
            "tier": self.tier,
            "seconds": round(self.seconds, 3),
            "checks": [c.to_json() for c in self.checks],
        }

    def render(self) -> str:
        lines = [f"{self.example_id}: {self.overall} ({self.tier}, {self.seconds:.1f}s)"]
        for c in self.checks:
            mark = "skip" if c.skipped else ("ok" if c.passed else "FAIL")
            note = f"  [{c.note}]" if c.note else ""
            lines.append(f"  {mark:4} {c.name}: expected {c.expected}, computed {c.computed}{note}")
        return "\n".join(lines)


def _order_checks(rec: ExampleRecord, budget: Budget) -> tuple[list[Check], str]:
    checks: list[Check] = []
    expect = (rec.expected_linf, rec.expected_scalar, rec.expected_linx)
    if rec.tier <= 1:
        summary = closure_order(rec.group, max_elements=budget.max_elements)
        tier = summary.tier
        triple = summary.triple()
        if budget.cross_check_bsgs:
            bsgs = schreier_sims_order(rec.group, seed=budget.seed)
            checks.append(Check("closure-vs-bsgs", triple, bsgs.triple(), triple == bsgs.triple()))
    elif rec.tier == 3 and not budget.tier3:
        # explicit degradation: scalar order via randomized membership,
        # order check reported as skipped
        scalar = schreier_sims_order(rec.group, seed=budget.seed).scalar_order
        checks.append(
            Check("order", rec.expected_linf, None, passed=True, skipped=True,
                  note="tier-3 order computation disabled; rerun with --tier3")
        )
        checks.append(
            Check("scalar-order", rec.expected_scalar, scalar, scalar == rec.expected_scalar,
                  note="randomized-chain membership at two primes")
        )
        _structure_checks(rec, checks)
        return checks, "degraded"
    else:
        summary = schreier_sims_order(rec.group, seed=budget.seed)
        tier = summary.tier
        triple = summary.triple()
    checks.append(Check("order", rec.expected_linf, triple[0], triple[0] == rec.expected_linf,
                        note=f"primes {summary.primes}"))
    checks.append(Check("scalar-order", rec.expected_scalar, triple[1], triple[1] == rec.expected_scalar))
    checks.append(Check("pgl-order", rec.expected_linx, triple[2], triple[2] == rec.expected_linx))
    _structure_checks(rec, checks)
    return checks, tier


def _structure_checks(rec: ExampleRecord, checks: list[Check]) -> None:
    if rec.block_sizes is not None:
        image = block_permutation_image(rec.group, list(rec.block_sizes))
        checks.append(
            Check("block-permutation-image", rec.expected_block_image, len(image),
                  len(image) == rec.expected_block_image)
        )


def verify_example(example_id: str, budget: Budget | None = None) -> VerificationReport:
    budget = budget or Budget()
    rec = get_record(example_id)
    report = VerificationReport(example_id=rec.id)
    start = time.time()

    f = rec.polynomial
    if f is not None:
        if rec.invariance_check == "direct":
            ok = is_invariant(rec.group.generators, f)
            report.checks.append(Check("invariance", True, ok, ok))
        else:
            # printed equation and printed generators use different
            # coordinates; substitute the dimension count of the degree-d
            # invariant space of the generated group
            ok = is_invariant(rec.group.generators, f)
            report.checks.append(
                Check("invariance-printed-coordinates", False, ok, ok is False,
                      note="expected mismatch: generators are in other coordinates")
            )
            dim = invariant_dimension(rec.group, rec.d)
            report.checks.append(
                Check(f"degree-{rec.d}-invariant-dimension", 1, dim, dim == 1)
            )
        smooth = smoothness_necessary(f)
        report.checks.append(Check("smoothness-necessary", True, smooth.ok, smooth.ok))
        nv = rec.n + 2
        ks = [k for k in range(1, (nv + 1) // 2) if 2 * k < nv]
        avoid_ok = all(avoids_variables(f, k) for k in ks) if ks else True
        report.checks.append(Check("avoids-variables", True, avoid_ok, avoid_ok,
                                   note=f"k in {ks}"))
        stab = diagonal_stabilizer(f)
        bound = rec.d ** nv
        report.checks.append(
            Check("diagonal-stabilizer-bound", f"<= {bound}", stab.order, stab.order <= bound)
        )
        minor = exponent_minor_bound(f)
        report.checks.append(
            Check("exponent-minor-bound", f"0 < det <= {bound}", minor.determinant, minor.ok)
        )

    try:
        order_checks, tier = _order_checks(rec, budget)
        report.checks.extend(order_checks)
        report.tier = tier
    except CapExceeded as err:
        report.checks.append(Check("order", rec.expected_linf, None, passed=True, skipped=True,
                                   note=f"budget exceeded: {err}"))
        report.tier = "budget-exceeded"
    report.seconds = time.time() - start
    return report


def verify_all(budget: Budget | None = None, fermat_n_max: int = 2, fermat_d_max: int = 5,
               ids: list[str] | None = None, profile: str = "core"):
    """Every report of `autbound verify-all`: the registry examples, a
    Fermat grid and the bound-consistency reports, plus, for profile
    "extended", the order and smallest semi-invariant degree of each
    external primitive group.

    An explicit id list gives only those examples' reports, so ids=[]
    verifies nothing and returns an empty list."""
    budget = budget or Budget()
    if ids is not None:
        return [verify_example(eid, budget) for eid in ids]
    reports = [verify_example(eid, budget) for eid in example_ids()]
    for n in range(1, fermat_n_max + 1):
        for d in range(3, fermat_d_max + 1):
            reports.append(verify_example(f"fermat-{n}-{d}", budget))
    reports += [bound_consistency(eid) for eid in example_ids()]
    if profile == "extended":
        records = [get_primitive_group(gid) for gid in primitive_group_ids("extended")]
        reports += [_degree_report(rec) for rec in records if rec.profile == "extended"]
    return reports


def _degree_report(rec: PrimitiveGroupRecord) -> VerificationReport:
    report = VerificationReport(example_id=f"degree:{rec.id}", tier="extended")
    order = closure_order(rec.group, max_elements=TIER1_CAP).order
    report.checks.append(Check("order", rec.expected_order, order, order == rec.expected_order))
    deg = smallest_semiinvariant_degree(rec.group)
    report.checks.append(Check("smallest-semiinvariant-degree", rec.expected_semiinvariant_degree,
                               deg, deg == rec.expected_semiinvariant_degree))
    return report


def bound_consistency(example_id: str) -> VerificationReport:
    """Expected numbers against the sharp bounds and the B calculus."""
    rec = get_record(example_id)
    report = VerificationReport(example_id=rec.id, tier="arithmetic")
    start = time.time()
    checks = report.checks
    checks.append(
        Check("linf = scalar * linx", rec.expected_linf,
              rec.expected_scalar * rec.expected_linx,
              rec.expected_linf == rec.expected_scalar * rec.expected_linx)
    )
    nv = rec.n + 2
    generic = math.factorial(nv) * rec.d ** (rec.n + 1)
    key = (rec.n, rec.d)
    if rec.id.startswith("fermat-"):
        checks.append(Check("linx = (n+2)! d^(n+1)", generic, rec.expected_linx,
                            rec.expected_linx == generic))
        checks.append(Check("linx = B((1^N),d)/d", fermat_bound(nv, rec.d) // rec.d,
                            rec.expected_linx,
                            rec.expected_linx == fermat_bound(nv, rec.d) // rec.d))
    elif rec.id == "ex-1-6-2":
        # the second (1,6) example: equality with the generic bound, below
        # the sharp (1,6) bound of 360
        checks.append(Check("linx equals generic bound", generic, rec.expected_linx,
                            rec.expected_linx == generic))
        checks.append(Check("linx within sharp bound", f"<= {MAINTHM_BOUNDS[key]}",
                            rec.expected_linx, rec.expected_linx <= MAINTHM_BOUNDS[key]))
    elif key in MAINTHM_BOUNDS:
        checks.append(Check("linx matches sharp bound", MAINTHM_BOUNDS[key], rec.expected_linx,
                            rec.expected_linx == MAINTHM_BOUNDS[key]))
        checks.append(Check("linx exceeds generic bound", f"> {generic}", rec.expected_linx,
                            rec.expected_linx > generic))
    elif rec.id == "ex-2-4":
        # (n,d) = (2,4) has no sharp-bound entry; the example still beats
        # the generic comparison value
        checks.append(Check("linx exceeds generic bound", f"> {generic}", rec.expected_linx,
                            rec.expected_linx > generic))
    b_pi = bound_B(rec.partition, rec.d)
    checks.append(Check(f"linf <= B({rec.partition}, {rec.d})", f"<= {b_pi}", rec.expected_linf,
                        rec.expected_linf <= b_pi))
    report.seconds = time.time() - start
    return report
