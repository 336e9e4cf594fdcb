"""Command-line interface.

Exit codes: 0 success / all pass; 1 mismatch against an expected value;
2 malformed input; 3 budget exceeded without a mismatch; 4 reduction
primes disagree (faithfulness suspect).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bounds import (
    Partition,
    bound_B,
    enumerate_exceptional,
    verify_no_exceptional,
    xi,
)
from .catalog import (
    example_ids,
    get_primitive_group,
    get_record,
    load_group_file,
    load_polynomial_file,
    primitive_group_ids,
)
from .cyclo import PrimeSearchExhausted
from .groups import (
    CLOSURE_BYTES_PER_ELEMENT,
    CapExceeded,
    FaithfulnessSuspect,
    GeneratedGroup,
    TIER1_CAP,
    closure_order,
    derived_subgroup,
    exact_elements,
    group_order,
    schreier_sims_order,
)
from .lattice import RankDeficientError, diagonal_stabilizer
from .molien import molien_prefix, reynolds_basis
from .poly import is_invariant, semi_invariant_character, smoothness_necessary
from .verify import Budget, bound_consistency, verify_all, verify_example

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_FAITHFULNESS = 4


def _resolve_group(source: str) -> GeneratedGroup:
    """A group argument is a JSON file path or a registry id."""
    path = Path(source)
    if path.exists():
        return load_group_file(path)
    if source in example_ids() or source.startswith("fermat-"):
        return get_record(source).group
    if source in primitive_group_ids("extended") or source in primitive_group_ids("core"):
        return get_primitive_group(source).group
    raise FileNotFoundError(f"no such group file or registry id: {source}")


def _emit(data, as_json: bool, renderer=None):
    if as_json:
        print(json.dumps(data, indent=2))
    elif renderer is not None:
        print(renderer(data))
    else:
        print(data)


def cmd_table2(args) -> int:
    rows = enumerate_exceptional(args.n_min, args.n_max)
    if args.format == "json":
        print(json.dumps([
            {"index": r.index, "N": r.n, "partition": str(r.partition),
             "max_d": r.max_d, "ratio": r.ratio_str}
            for r in rows
        ], indent=2))
    elif args.format == "csv":
        print("index,N,partition,max_d,ratio")
        for r in rows:
            print(f"{r.index},{r.n},\"{r.partition}\",{r.max_d},{r.ratio_str}")
    else:
        print(f"{'no.':>4} {'N':>3} {'partition':<14} {'max d':>5} {'ratio':>7}")
        for r in rows:
            print(f"{r.index:>4} {r.n:>3} {str(r.partition):<14} {r.max_d:>5} {r.ratio_str:>7}")
    return EXIT_OK


def cmd_xi(args) -> int:
    print(xi(args.n))
    return EXIT_OK


def cmd_bound(args) -> int:
    pi = Partition.parse(args.partition)
    value = bound_B(pi, args.degree)
    if args.json:
        print(json.dumps({"partition": str(pi), "degree": args.degree, "bound": value}))
    else:
        print(value)
    return EXIT_OK


def cmd_highdim(args) -> int:
    ok = True
    out = []
    for n in range(args.n_min, args.n_max + 1):
        rep = verify_no_exceptional(n)
        ok = ok and rep.ok
        out.append(rep)
        if not args.json:
            print(f"N={n}: {'pass' if rep.ok else 'FAIL'}  best {rep.best_partition} "
                  f"ratio {rep.best_ratio_str}  ({rep.partitions_checked} partitions)")
    if args.json:
        print(json.dumps([
            {"N": r.n, "ok": r.ok, "best_partition": str(r.best_partition),
             "best_ratio": r.best_ratio_str, "partitions": r.partitions_checked}
            for r in out
        ], indent=2))
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_group_order(args) -> int:
    group = _resolve_group(args.file)
    cap = _effective_cap(args)
    maps = None
    if args.prime:
        maps = group.reduction_maps(1, lower_bound=args.prime)
        if maps[0].prime != args.prime:
            raise ValueError(
                f"prime {args.prime} is unusable for conductor {group.conductor}; "
                f"next usable is {maps[0].prime}"
            )
        maps += group.reduction_maps(1, lower_bound=args.prime + 1)
    if args.strategy == "closure":
        summary = closure_order(group, max_elements=cap, maps=maps)
    elif args.strategy == "bsgs":
        summary = schreier_sims_order(group, maps=maps, seed=args.seed)
    else:
        summary = group_order(group, max_elements=cap, maps=maps, seed=args.seed)
    data = {
        "order": summary.order,
        "scalar_order": summary.scalar_order,
        "pgl_order": summary.pgl_order,
        "center_order": summary.center_order,
        "tier": summary.tier,
        "primes": list(summary.primes),
    }
    _emit(data, args.json, lambda d: "\n".join(f"{k}: {v}" for k, v in d.items()))
    return EXIT_OK


def cmd_poly_check(args) -> int:
    f = load_polynomial_file(args.file)
    group = _resolve_group(args.group)
    if args.semi:
        chars = semi_invariant_character(group.generators, f)
        if chars is None:
            _emit({"semi_invariant": False}, args.json,
                  lambda d: "not a semi-invariant of the generators")
            return EXIT_MISMATCH
        data = {"semi_invariant": True,
                "characters": [str(c.c) for c in chars]}
        _emit(data, args.json, lambda d: "semi-invariant; characters: " + ", ".join(d["characters"]))
        return EXIT_OK
    ok = is_invariant(group.generators, f)
    _emit({"invariant": ok}, args.json, lambda d: "invariant" if ok else "NOT invariant")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_diag_stab(args) -> int:
    f = load_polynomial_file(args.file)
    stab = diagonal_stabilizer(f)
    data = {"order": stab.order, "elementary_divisors": list(stab.elementary_divisors)}
    _emit(data, args.json,
          lambda d: f"order {d['order']}, elementary divisors {d['elementary_divisors']}")
    return EXIT_OK


def cmd_smooth_necessary(args) -> int:
    f = load_polynomial_file(args.file)
    rep = smoothness_necessary(f)
    data = {
        "ok": rep.ok,
        "witnesses": [list(w) if w else None for w in rep.witnesses],
    }
    _emit(data, args.json, lambda d: "pass" if d["ok"] else
          "FAIL at variables " + str([j for j, w in enumerate(d["witnesses"]) if w is None]))
    return EXIT_OK if rep.ok else EXIT_MISMATCH


def cmd_molien(args) -> int:
    group = _resolve_group(args.file)
    target = derived_subgroup(group) if args.semi else group
    elements = exact_elements(target)
    prefix = molien_prefix(target, args.max_degree, elements=elements)
    data = {
        "group_order": prefix.group_order,
        "semi": bool(args.semi),
        "coefficients": list(prefix.coefficients),
    }
    if args.basis is not None:
        basis = reynolds_basis(target, args.basis, elements=elements)
        data["basis_degree"] = args.basis
        data["basis"] = [p.to_json() for p in basis]
    _emit(data, args.json, lambda d: "\n".join(
        [f"group order {d['group_order']}" + (" (derived subgroup)" if d["semi"] else ""),
         "dims by degree: " + " ".join(map(str, d["coefficients"]))]
        + ([f"degree-{args.basis} basis: {len(data['basis'])} polynomial(s)"] if args.basis is not None else [])
    ))
    return EXIT_OK


def _effective_cap(args) -> int:
    """The element cap from --max-elements and --memory-budget-mb."""
    cap = args.max_elements or TIER1_CAP
    if args.memory_budget_mb:
        cap = min(cap, args.memory_budget_mb * 1_000_000 // CLOSURE_BYTES_PER_ELEMENT)
    return cap


def cmd_verify_example(args) -> int:
    budget = Budget(max_elements=_effective_cap(args), tier3=args.tier3, seed=args.seed,
                    cross_check_bsgs=args.cross_check)
    report = verify_example(args.id, budget)
    _emit(report.to_json(), args.json, lambda d: report.render())
    if report.overall == "fail":
        return EXIT_MISMATCH
    if report.overall == "conditional-pass":
        return EXIT_BUDGET if args.strict_budget else EXIT_OK
    return EXIT_OK


def cmd_verify_all(args) -> int:
    budget = Budget(max_elements=_effective_cap(args), tier3=args.tier3, seed=args.seed)
    reports = verify_all(budget, fermat_n_max=args.fermat_n_max, fermat_d_max=args.fermat_d_max,
                         profile=args.profile)
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.render())
            print()
    # skips (conditional-pass) are tier-3 only and explicitly reported
    if any(r.overall == "fail" for r in reports):
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_bound_consistency(args) -> int:
    report = bound_consistency(args.id)
    _emit(report.to_json(), args.json, lambda d: report.render())
    return EXIT_OK if report.overall == "pass" else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autbound",
        description="Exact verification of hypersurface automorphism bounds: "
        "partition calculus, matrix group orders, invariance, Molien series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="enumerate the exceptional partitions")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=26)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("xi", help="primitive-subgroup index bound at a dimension")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_xi)

    p = sub.add_parser("bound", help="evaluate the partition bound B(pi, d)")
    p.add_argument("--partition", required=True, help="e.g. 4,2,1 or (2^3,1)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("highdim", help="no exceptional partitions at N >= 27")
    p.add_argument("--n-min", type=int, default=27)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_highdim)

    p = sub.add_parser("group-order", help="order of a generated matrix group")
    p.add_argument("file", help="group JSON file or registry id")
    p.add_argument("--strategy", choices=("auto", "closure", "bsgs"), default="auto")
    p.add_argument("--prime", type=int, default=None, help="first reduction prime to use")
    p.add_argument("--max-elements", type=int, default=None)
    p.add_argument("--memory-budget-mb", type=int, default=None)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_group_order)

    p = sub.add_parser("poly-check", help="(semi-)invariance of a polynomial file")
    p.add_argument("file")
    p.add_argument("--group", required=True)
    p.add_argument("--semi", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_poly_check)

    p = sub.add_parser("diag-stab", help="diagonal stabilizer of a polynomial file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diag_stab)

    p = sub.add_parser("smooth-necessary", help="per-variable smoothness monomials")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_smooth_necessary)

    p = sub.add_parser("molien", help="Molien coefficient prefix of a group")
    p.add_argument("file", help="group JSON file or registry id")
    p.add_argument("--max-degree", type=int, default=24)
    p.add_argument("--semi", action="store_true",
                   help="use the derived subgroup (semi-invariant degrees)")
    p.add_argument("--basis", type=int, default=None, metavar="K",
                   help="also emit a degree-K invariant basis")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_molien)

    p = sub.add_parser("verify-example", help="recompute one catalog example")
    p.add_argument("id", help="e.g. ex-1-4 or fermat-2-5")
    p.add_argument("--tier3", action="store_true")
    p.add_argument("--memory-budget-mb", type=int, default=None)
    p.add_argument("--cross-check", action="store_true", help="also run BSGS on tier-1 groups")
    p.add_argument("--max-elements", type=int, default=None)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--strict-budget", action="store_true",
                   help="exit 3 when a check was skipped for budget reasons")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_example)

    p = sub.add_parser("verify-all", help="recompute every catalog example")
    p.add_argument("--tier3", action="store_true")
    p.add_argument("--memory-budget-mb", type=int, default=None)
    p.add_argument("--max-elements", type=int, default=None)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--fermat-n-max", type=int, default=2)
    p.add_argument("--fermat-d-max", type=int, default=5)
    p.add_argument("--profile", choices=("core", "extended"), default="core")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("bound-consistency", help="expected numbers vs the bound calculus")
    p.add_argument("id")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound_consistency)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, KeyError, ValueError, json.JSONDecodeError,
            RankDeficientError, PrimeSearchExhausted) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except CapExceeded as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except FaithfulnessSuspect as err:
        print(f"faithfulness suspect: {err}", file=sys.stderr)
        return EXIT_FAITHFULNESS


if __name__ == "__main__":
    sys.exit(main())
