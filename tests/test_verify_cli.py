import json

import pytest

from autbound.catalog import example_ids, get_example, group_to_json
from autbound.cli import main
from autbound.verify import Budget, bound_consistency, verify_example


def test_verify_example_klein():
    report = verify_example("ex-1-4")
    assert report.overall == "pass"
    names = [c.name for c in report.checks]
    assert "invariance" in names and "order" in names


def test_verify_example_fermat():
    report = verify_example("fermat-2-5")
    assert report.overall == "pass"
    order = next(c for c in report.checks if c.name == "order")
    assert order.computed == 15000


def test_verify_example_wiman_substitution():
    report = verify_example("ex-1-6")
    assert report.overall == "pass"
    names = [c.name for c in report.checks]
    assert "invariance-printed-coordinates" in names
    assert "degree-6-invariant-dimension" in names


def test_verify_tier3_degrades_explicitly():
    report = verify_example("ex-4-12", Budget(tier3=False))
    assert report.tier == "degraded"
    order = next(c for c in report.checks if c.name == "order")
    assert order.skipped and "tier3" in order.note
    scalar = next(c for c in report.checks if c.name == "scalar-order")
    assert scalar.passed and scalar.computed == 12
    blocks = next(c for c in report.checks if c.name == "block-permutation-image")
    assert blocks.passed
    assert report.overall == "conditional-pass"


def test_verify_all_with_empty_id_list():
    from autbound.verify import verify_all

    assert verify_all(ids=[]) == []


def test_verify_all_extended_profile(monkeypatch):
    from autbound import verify

    # one example, one Fermat record, and the extended registry cut down to
    # one core group (skipped: not extended) and the order-1440 group
    monkeypatch.setattr(verify, "example_ids", lambda: ["ex-1-4"])
    monkeypatch.setattr(verify, "primitive_group_ids",
                        lambda profile="core": ["binary-icosahedral", "two-s6"])
    reports = verify.verify_all(fermat_n_max=1, fermat_d_max=3, profile="extended")
    assert [r.example_id for r in reports] == ["ex-1-4", "fermat-1-3", "ex-1-4", "degree:two-s6"]
    assert all(r.overall == "pass" for r in reports), [r.render() for r in reports]
    degree = {c.name: c.computed for c in reports[-1].checks}
    assert degree == {"order": 1440, "smallest-semiinvariant-degree": 8}


def test_bound_consistency_all_examples():
    for eid in example_ids():
        report = bound_consistency(eid)
        assert report.overall == "pass", report.render()
    assert bound_consistency("fermat-1-4").overall == "pass"


def test_linx_exceeds_generic_except_hessian_sextic():
    import math

    for eid in example_ids():
        rec = get_example(eid)
        generic = math.factorial(rec.n + 2) * rec.d ** (rec.n + 1)
        if eid == "ex-1-6-2":
            assert rec.expected_linx == generic == 216
        else:
            assert rec.expected_linx > generic, eid


# -- CLI ------------------------------------------------------------------


def test_cli_xi(capsys):
    assert main(["xi", "8"]) == 0
    assert capsys.readouterr().out.strip() == "348364800"


def test_cli_bound(capsys):
    assert main(["bound", "--partition", "2,2", "--degree", "12"]) == 0
    assert capsys.readouterr().out.strip() == "1036800"


def test_cli_table2_csv(capsys):
    assert main(["table2", "--n-max", "4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,N,partition,max_d,ratio"
    assert len(lines) == 1 + 7
    assert lines[1] == '1,2,"(2)",30,10.0'


def test_cli_table2_json(capsys):
    assert main(["table2", "--n-max", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0] == {"index": 1, "N": 2, "partition": "(2)", "max_d": 30, "ratio": "10.0"}


def test_cli_highdim(capsys):
    assert main(["highdim", "--n-min", "27", "--n-max", "28", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(r["ok"] for r in rows)


def test_cli_group_order_registry_id(capsys):
    assert main(["group-order", "binary-icosahedral", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 120 and data["scalar_order"] == 2


def test_cli_group_order_file(tmp_path, capsys):
    path = tmp_path / "q8.json"
    from autbound.catalog import quaternion_group

    path.write_text(json.dumps(group_to_json(quaternion_group())))
    assert main(["group-order", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 8


def test_cli_group_order_strategies(capsys):
    assert main(["group-order", "ex-1-4", "--strategy", "bsgs", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 672
    assert main(["group-order", "ex-1-4", "--strategy", "closure", "--max-elements", "10"]) == 3


def test_cli_group_order_memory_budget(capsys):
    # 1 MB holds fewer closure elements than the order 7680 of ex-2-4
    assert main(["group-order", "ex-2-4", "--strategy", "closure", "--memory-budget-mb", "1"]) == 3
    capsys.readouterr()
    assert main(["group-order", "ex-2-4", "--strategy", "auto", "--memory-budget-mb", "1",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 7680 and data["tier"] == "schreier-sims"


def test_cli_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["group-order", str(bad)]) == 2
    assert main(["group-order", "no-such-file.json"]) == 2
    assert main(["verify-example", "ex-9-9"]) == 2


def test_cli_poly_check(tmp_path, capsys):
    rec = get_example("ex-1-4")
    poly_path = tmp_path / "klein.json"
    poly_path.write_text(json.dumps(rec.polynomial.to_json()))
    group_path = tmp_path / "klein-group.json"
    group_path.write_text(json.dumps(group_to_json(rec.group)))
    assert main(["poly-check", str(poly_path), "--group", str(group_path)]) == 0
    assert "invariant" in capsys.readouterr().out
    assert main(["poly-check", str(poly_path), "--group", str(group_path), "--semi", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["semi_invariant"] is True


def test_cli_diag_stab_and_smooth(tmp_path, capsys):
    rec = get_example("ex-1-4")
    poly_path = tmp_path / "klein.json"
    poly_path.write_text(json.dumps(rec.polynomial.to_json()))
    assert main(["diag-stab", str(poly_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 28
    assert main(["smooth-necessary", str(poly_path)]) == 0
    assert capsys.readouterr().out.strip() == "pass"


def test_cli_molien(capsys):
    assert main(["molien", "binary-tetrahedral", "--max-degree", "6", "--semi", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["group_order"] == 8  # derived subgroup Q8
    assert data["coefficients"][4] > 0 and data["coefficients"][1] == 0


def test_cli_molien_basis(monkeypatch, capsys):
    from autbound import cli, molien
    from autbound.catalog import binary_tetrahedral
    from autbound.groups import exact_elements
    from autbound.poly import HomogPoly, is_invariant

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return exact_elements(*args, **kwargs)

    monkeypatch.setattr(molien, "exact_elements", counted)
    monkeypatch.setattr(cli, "exact_elements", counted)
    assert main(["molien", "binary-tetrahedral", "--max-degree", "6", "--basis", "6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(calls) == 1  # one enumeration serves the series and the basis
    assert data["basis_degree"] == 6
    assert len(data["basis"]) == data["coefficients"][6] > 0
    gens = binary_tetrahedral().generators
    assert all(is_invariant(gens, HomogPoly.from_json(f)) for f in data["basis"])


def test_cli_verify_example(capsys):
    assert main(["verify-example", "fermat-1-3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["overall"] == "pass"


def test_cli_bound_consistency(capsys):
    assert main(["bound-consistency", "ex-4-6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["overall"] == "pass"
