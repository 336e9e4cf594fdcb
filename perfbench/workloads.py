"""The four workloads: set-up, seeded inputs, operations and their checks.

Every operation calls a layer function through its module attribute
(`groups.closure_order`, not a name bound at import), so the tracer's
wrappers see it.  Checks run outside the timed region of the first,
untraced pass; each returns a list of problems, empty when the answer is
right.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from autbound import bounds, catalog, groups, lattice, molien, poly, verify

import refs

TIER1_CLOSURE = ("ex-1-4", "ex-1-6", "ex-1-6-2", "ex-2-4", "ex-2-6")
EXTERNAL = ("sp4-3", "psp4-3", "two-a7", "two-s6")
CORE = ("binary-icosahedral", "binary-octahedral", "binary-tetrahedral", "icosahedral-rotation",
        "klein-quartic-group", "valentiner-group", "hessian-sextic-group")
# exact cyclotomic keys instead of two mod-p images
EXACT_STRATEGIES = {"ex-1-4": ("modp", "exact"), "binary-icosahedral": ("exact",)}
BSGS_SEEDS_PER_EXAMPLE = 3
HIGHDIM_MAX = 56
RANDOM_PARTITIONS = 200


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    # plain, comparable data read off the raw result
    answer: Callable[[object], object]
    # (answer, raw result) -> problems
    check: Callable[[object, object], list[str]]


@dataclass
class Workload:
    setup: Callable[[], dict]
    ops: Callable[[dict, random.Random], list[Op]]
    # answers by op name -> problems that span several operations
    cross_check: Callable[[dict], list[str]] = lambda answers: []
    # name of the operation rerun under tracemalloc for bytes per element
    memory_probe: str | None = None


def _expect(label, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def _permuted(group, rng: random.Random):
    """The same group under a seeded reordering of its generators."""
    gens = list(group.generators)
    rng.shuffle(gens)
    return groups.GeneratedGroup(gens, name=group.name)


def _summary(s) -> tuple:
    return s.triple(), s.tier, s.primes


def _triple_checks(triple, want) -> list[str]:
    order, scalar, pgl = triple
    problems = _expect("triple", triple, want)
    if scalar * pgl != order:
        problems.append(f"scalar order {scalar} times image {pgl} is not the order {order}")
    return problems


# -- closure ---------------------------------------------------------------


def setup_closure() -> dict:
    out = {eid: catalog.get_example(eid).group for eid in TIER1_CLOSURE}
    out.update({gid: catalog.get_primitive_group(gid).group for gid in EXTERNAL})
    for n in (1, 2):
        for d in range(3, 6):
            out[f"fermat-{n}-{d}"] = catalog.fermat_record(n, d).group
    out["binary-icosahedral"] = catalog.binary_icosahedral()
    return out


def ops_closure(built: dict, rng: random.Random) -> list[Op]:
    expected = dict(refs.EXAMPLE_TRIPLES, **refs.GROUP_TRIPLES)
    for n in (1, 2):
        for d in range(3, 6):
            expected[f"fermat-{n}-{d}"] = refs.fermat_triple(n + 2, d)
    ops = []
    for gid, group in built.items():
        for strategy in EXACT_STRATEGIES.get(gid, ("modp",)):
            # The exact strategy always counts the centre, stopping at the
            # first generator that does not commute, so its cost depends on
            # the generator order; it keeps the catalog's order.
            g = _permuted(group, rng) if strategy == "modp" else group

            def check(ans, raw, g=g, want=expected[gid], strategy=strategy):
                problems = _triple_checks(ans[0], want)
                # an independent engine on the same generators
                other = (groups.schreier_sims_order(g) if strategy == "modp"
                         else groups.closure_order(g))
                return problems + _expect("closure vs other engine", other.triple(), ans[0])

            ops.append(Op(f"closure-{strategy} {gid}",
                          lambda g=g, s=strategy: groups.closure_order(g, strategy=s),
                          _summary, check))
    return ops


# -- bsgs ------------------------------------------------------------------


def setup_bsgs() -> dict:
    return {eid: catalog.get_example(eid).group for eid in catalog.example_ids()}


def _degraded_answer(report) -> dict:
    data = report.to_json()
    data.pop("seconds")
    return data


def _check_degraded(ans, raw) -> list[str]:
    checks = {c["name"]: c for c in ans["checks"]}
    problems = _expect("overall", ans["overall"], "conditional-pass")
    order = checks.get("order", {})
    if not (order.get("skipped") and order.get("note")):
        problems.append("order check is not an explicit, annotated skip")
    problems += _expect("scalar order", checks.get("scalar-order", {}).get("computed"),
                        refs.EXAMPLE_TRIPLES["ex-4-12"][1])
    problems += _expect("block image", checks.get("block-permutation-image", {}).get("computed"),
                        refs.EX_4_12_BLOCK_IMAGE)
    for name in ("scalar-order", "block-permutation-image", "invariance"):
        if not checks.get(name, {}).get("passed"):
            problems.append(f"{name} did not pass")
    return problems


def ops_bsgs(built: dict, rng: random.Random) -> list[Op]:
    ops = []
    for eid, group in built.items():
        for _ in range(BSGS_SEEDS_PER_EXAMPLE):
            seed = rng.randrange(1, 2**31)
            ops.append(Op(f"schreier-sims {eid} seed {seed}",
                          lambda g=group, s=seed: groups.schreier_sims_order(g, seed=s),
                          _summary,
                          lambda ans, raw, want=refs.EXAMPLE_TRIPLES[eid]: _triple_checks(ans[0], want)))
    # at the default chain seed, as `autbound verify-example ex-4-12` runs it
    ops.append(Op("verify-degraded ex-4-12",
                  lambda: verify.verify_example("ex-4-12", verify.Budget(tier3=False)),
                  _degraded_answer, _check_degraded))
    return ops


def cross_bsgs(answers: dict) -> list[str]:
    """Every seed gives the same result for the same example."""
    by_example: dict[str, set] = {}
    for name, ans in answers.items():
        if name.startswith("schreier-sims "):
            by_example.setdefault(name.split()[1], set()).add(ans[0])
    return [f"{eid}: seeds disagree {sorted(got)}" for eid, got in by_example.items() if len(got) > 1]


# -- invariants ------------------------------------------------------------


def setup_invariants() -> dict:
    out = {gid: catalog.get_primitive_group(gid).group for gid in CORE}
    out["two-s6"] = catalog.get_primitive_group("two-s6").group
    return out


def _coefficients(prefix) -> tuple:
    return prefix.group_order, prefix.coefficients


def _series_check(series: str, order: int | None = None):
    def check(ans, raw):
        got_order, coeffs = ans
        problems = _expect("series", coeffs, refs.molien_series(series, len(coeffs) - 1))
        if order is not None:
            problems += _expect("group order", got_order, order)
        return problems

    return check


def _derived_prefix(group, degree):
    return molien.molien_prefix(groups.derived_subgroup(group), degree)


def _check_basis(val):
    def check(ans, raw):
        problems = _expect("basis size", len(raw), refs.molien_series("valentiner-group", 6)[6])
        if not all(poly.is_invariant(val.generators, f) for f in raw):
            problems.append("a Reynolds basis polynomial is not invariant")
        return problems

    return check


def ops_invariants(built: dict, rng: random.Random) -> list[Op]:
    g = {gid: _permuted(group, rng) for gid, group in built.items()}
    ops = [
        Op(f"semiinvariant-degree {gid}",
           lambda grp=grp: molien.smallest_semiinvariant_degree(grp, 14),
           lambda d: d,
           lambda ans, raw, want=refs.SEMIINVARIANT_DEGREES[gid]: _expect("degree", ans, want))
        for gid, grp in g.items()
    ]
    # Klein's series for the binary polyhedral groups and their derived
    # subgroups: 2T' = Q8, 2O' = 2T, 2I' = 2I
    for gid, derived in (("binary-tetrahedral", "Q8"), ("binary-octahedral", "binary-tetrahedral"),
                         ("binary-icosahedral", "binary-icosahedral")):
        ops.append(Op(f"molien-30 {gid}", lambda grp=g[gid]: molien.molien_prefix(grp, 30),
                      _coefficients, _series_check(gid)))
        ops.append(Op(f"derived-molien-30 {gid}", lambda grp=g[gid]: _derived_prefix(grp, 30),
                      _coefficients, _series_check(derived)))
    ops.append(Op("molien-30 icosahedral-rotation",
                  lambda grp=g["icosahedral-rotation"]: molien.molien_prefix(grp, 30),
                  _coefficients, _series_check("icosahedral-rotation", 60)))
    ops.append(Op("derived-molien-6 klein-quartic-group",
                  lambda grp=g["klein-quartic-group"]: _derived_prefix(grp, 6),
                  _coefficients, _series_check("klein-168", 168)))
    # the Valentiner group is the Wiman sextic's group (ex-1-6), so the
    # degree-6 coefficient of its series is the Wiman invariant dimension
    val = g["valentiner-group"]
    ops.append(Op("exact-elements valentiner-group", lambda: groups.exact_elements(val), len,
                  lambda ans, raw: (_expect("elements", ans, refs.EXAMPLE_TRIPLES["ex-1-6"][0])
                                    + _expect("elements vs closure order", ans,
                                              groups.closure_order(val).order))))
    # as `autbound molien valentiner-group --basis 6` computes them
    ops.append(Op("molien-24 valentiner-group", lambda: molien.molien_prefix(val, 24),
                  _coefficients, _series_check("valentiner-group", 2160)))
    ops.append(Op("reynolds-6 valentiner-group", lambda: molien.reynolds_basis(val, 6),
                  lambda basis: [f.to_json() for f in basis], _check_basis(val)))
    return ops


def cross_invariants(answers: dict) -> list[str]:
    """The Reynolds basis size equals the Molien dimension."""
    dim = answers["molien-24 valentiner-group"][1][6]
    return _expect("Reynolds basis size vs Molien dimension",
                   len(answers["reynolds-6 valentiner-group"]), dim)


# -- calculus --------------------------------------------------------------


def setup_calculus() -> dict:
    out = {eid: catalog.get_example(eid) for eid in catalog.example_ids()}
    for nvars in range(3, 7):
        for d in range(3, 13):
            out[f"fermat-{nvars - 2}-{d}"] = catalog.fermat_record(nvars - 2, d)
    return out


def _table2_answer(rows) -> list:
    return [(r.n, str(r.partition), r.partition.blocks, r.max_d, r.ratio_str,
             (int(r.ratio.numerator), int(r.ratio.denominator))) for r in rows]


def _check_table2(ans, raw) -> list[str]:
    problems = _expect("rows", len(ans), len(refs.TABLE2))
    for row, (n, part, max_d, printed) in zip(ans, refs.TABLE2):
        got_n, got_part, blocks, got_d, ratio_str, (num, den) = row
        if (got_n, got_part, got_d) != (n, part, max_d):
            problems.append(f"row {row[:4]} != {(n, part, max_d)}")
        if not refs.printed_ratio_matches(ratio_str, printed):
            problems.append(f"{part}: ratio {ratio_str} vs printed {printed}")
        if Fraction(num, den) != Fraction(refs.bound(list(blocks), 3), refs.bound([1] * n, 3)):
            problems.append(f"{part}: exact ratio {num}/{den} disagrees with B(pi,3)/B(1^N,3)")
    return problems


def _highdim_answer(r) -> tuple:
    return (r.ok, r.partitions_checked, r.best_partition.blocks, r.best_ratio_str,
            (int(r.best_ratio.numerator), int(r.best_ratio.denominator)))


def _check_highdim(n: int, p_n: int):
    def check(ans, raw):
        ok, checked, blocks, _text, (num, den) = ans
        problems = _expect("no exceptional partition", ok, True)
        problems += _expect("partitions checked", checked, p_n - 1)
        ratio = Fraction(num, den)
        if ratio != Fraction(refs.bound(list(blocks), 3), refs.bound([1] * n, 3)) or ratio >= 1:
            problems.append(f"best ratio {ratio} of {blocks} is wrong or not below 1")
        return problems

    return check


def _random_partition(rng: random.Random) -> tuple:
    n = rng.randint(2, 40)
    blocks = []
    while n:
        b = rng.randint(1, min(n, 13))
        blocks.append(b)
        n -= b
    return tuple(sorted(blocks, reverse=True))


def _record_ops(rid: str, rec, fermat: bool) -> list[Op]:
    f, nvars, d = rec.polynomial, rec.n + 2, rec.d
    bound = d**nvars
    gens = rec.group.generators
    # only the Wiman sextic is printed in other coordinates than its generators
    invariant = rid != "ex-1-6"
    ks = [k for k in range(1, nvars) if 2 * k < nvars]

    def check_stab(ans, raw):
        order, divisors = ans
        problems = _expect("order is the product of the divisors", order, math.prod(divisors))
        if any(b % a for a, b in zip(divisors, divisors[1:])):
            problems.append(f"elementary divisors {divisors} do not divide each other")
        if fermat:
            problems += _expect("Fermat stabilizer", ans, (bound, (d,) * nvars))
        elif order > bound:
            problems.append(f"stabilizer order {order} exceeds d^N = {bound}")
        return problems

    def check_minor(ans, raw):
        rows, det = ans
        problems = _expect("determinant", det, refs.exact_det(rows))
        if not 0 < det <= bound:
            problems.append(f"minor {det} outside (0, {bound}]")
        return problems

    return [
        Op(f"bound-consistency {rid}", lambda: verify.bound_consistency(rid),
           lambda r: (r.overall, [c.to_json() for c in r.checks]),
           lambda ans, raw: _expect("overall", ans[0], "pass")),
        Op(f"is-invariant {rid}", lambda: poly.is_invariant(gens, f), bool,
           lambda ans, raw: _expect("invariant", ans, invariant)),
        Op(f"smoothness-necessary {rid}", lambda: poly.smoothness_necessary(f),
           lambda r: (r.ok, r.witnesses), lambda ans, raw: _expect("ok", ans[0], True)),
        # every k-subset of variables is avoided by some monomial when 2k < N
        Op(f"avoids-variables {rid}", lambda: [poly.avoids_variables(f, k) for k in ks], list,
           lambda ans, raw: _expect("avoids", ans, [True] * len(ks))),
        Op(f"diagonal-stabilizer {rid}", lambda: lattice.diagonal_stabilizer(f),
           lambda s: (s.order, s.elementary_divisors), check_stab),
        Op(f"exponent-minor {rid}", lambda: lattice.exponent_minor_bound(f),
           lambda r: (r.rows, r.determinant), check_minor),
    ]


def ops_calculus(built: dict, rng: random.Random) -> list[Op]:
    p = refs.partition_counts(HIGHDIM_MAX)
    ops = [
        Op("table2", lambda: bounds.enumerate_exceptional(2, 26), _table2_answer, _check_table2),
        Op("xi 1..60", lambda: [bounds.xi(n) for n in range(1, 61)], list,
           lambda ans, raw: _expect("xi", ans, [refs.xi(n) for n in range(1, 61)])),
    ]
    for n in range(27, HIGHDIM_MAX + 1):
        ops.append(Op(f"highdim {n}", lambda n=n: bounds.verify_no_exceptional(n), _highdim_answer,
                      _check_highdim(n, p[n])))
    for rid, rec in built.items():
        ops.extend(_record_ops(rid, rec, rid.startswith("fermat-")))
    cases = [(_random_partition(rng), rng.randint(3, 12)) for _ in range(RANDOM_PARTITIONS)]
    ops.append(Op(f"bound-B {RANDOM_PARTITIONS} seeded partitions",
                  lambda: [bounds.bound_B(bounds.Partition(b), d) for b, d in cases], list,
                  lambda ans, raw: _expect("B(pi, d)", ans, [refs.bound(list(b), d) for b, d in cases])))
    return ops


WORKLOADS = {
    "closure": Workload(setup_closure, ops_closure, memory_probe="closure-modp ex-2-6"),
    "bsgs": Workload(setup_bsgs, ops_bsgs, cross_check=cross_bsgs),
    "invariants": Workload(setup_invariants, ops_invariants, cross_check=cross_invariants),
    "calculus": Workload(setup_calculus, ops_calculus),
}
