import json
import math
from fractions import Fraction

import pytest

import polyiter
from polyiter import cli, curves, dynamics, lab, recur
from polyiter.errors import BudgetError
from polyiter.report import render_records


def theorem_cfg(**overrides):
    base = dict(d=2, N=1, p_min=5, p_max=60, per_prime=3, policy="random", seed=11)
    base.update(overrides)
    return lab.SweepConfig(**base)


def test_primes_with_degree():
    assert lab.primes_with_degree(5, 30, 2) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert lab.primes_with_degree(5, 30, 4) == [5, 13, 17, 29]
    assert lab.primes_with_degree(20, 10, 2) == []


def test_sweep_theorem_depth_one_closed_form():
    # at depth 1 the image size is exact, so the error is 1/(2*sqrt(p))
    records, summary = lab.sweep_theorem(theorem_cfg())
    assert records
    for rec in records:
        assert rec["image_size"] == (rec["p"] + 1) // 2
        assert rec["norm_err"] == 0.5 / math.sqrt(rec["p"])
    primes = sorted({rec["p"] for rec in records})
    per_prime_err = {p: 0.5 / math.sqrt(p) for p in primes}
    expected_mean = sum(
        per_prime_err[rec["p"]] for rec in records
    ) / len(records)
    assert abs(summary["mean_abs_norm_err"] - expected_mean) < 1e-12
    # the unusable literal bound is carried in the summary, never asserted
    assert summary["literal_bound_log10_scale"] == 2**6 * math.log10(2)


def test_sweep_theorem_depth_two_example():
    records, _ = lab.sweep_theorem(lab.SweepConfig(
        d=2, N=2, p_min=5, p_max=5, policy="all"))
    by_coeff = {(rec["A"], rec["C"]): rec for rec in records}
    rec = by_coeff[(1, 1)]
    assert rec["image_size"] == 3
    assert rec["mu_p"] == 15 / 8
    assert rec["norm_err"] == (3 - 15 / 8) / math.sqrt(5)


def test_sweep_records_sorted_and_deterministic():
    records1, _ = lab.sweep_theorem(theorem_cfg())
    records2, _ = lab.sweep_theorem(theorem_cfg())
    assert records1 == records2
    keys = [(rec["p"], rec["A"], rec["C"]) for rec in records1]
    assert keys == sorted(keys)
    other_seed, _ = lab.sweep_theorem(theorem_cfg(seed=12))
    assert other_seed != records1


def test_sweep_empty_range():
    records, summary = lab.sweep_theorem(theorem_cfg(p_min=24, p_max=28))
    assert records == [] and summary["count"] == 0


def test_require_precondition_holds_on_every_record():
    cfg = theorem_cfg(N=3, p_min=5, p_max=40, per_prime=5, require_precondition=True)
    records, summary = lab.sweep_theorem(cfg)
    assert records and all(rec["precondition"] for rec in records)
    assert 0 <= summary["precondition_failure_fraction"] < 1


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        lab.sweep_theorem(theorem_cfg(p_min=100, p_max=10))
    with pytest.raises(ValueError):
        lab.sweep_theorem(theorem_cfg(policy="bogus"))
    with pytest.raises(ValueError):
        lab.sweep_theorem(theorem_cfg(d=1))


def test_collision_stats():
    cfg = lab.SweepConfig(d=2, p_min=5, p_max=7, policy="all")
    records, summary = lab.collision_stats(cfg)
    by_coeff = {(rec["p"], rec["A"], rec["C"]): rec for rec in records}
    assert by_coeff[(5, 1, 1)]["collision_index"] == 3
    assert by_coeff[(7, 1, 1)]["collision_index"] == 4
    for rec in records:
        assert 1 <= rec["collision_index"] <= rec["p"]
        assert math.isfinite(rec["ratio"])
    assert summary["count"] == len(records)
    assert summary["ratio_min"] <= summary["ratio_median"] <= summary["ratio_max"]


def test_graph_sweep():
    cfg = lab.SweepConfig(d=2, p_min=5, p_max=13, policy="all")
    records, _ = lab.graph_sweep(cfg)
    by_coeff = {(rec["p"], rec["A"], rec["C"]): rec for rec in records}
    assert by_coeff[(5, 1, 1)]["sum_cycle_lengths"] == 3
    for rec in records:
        assert rec["sum_cycle_lengths"] <= rec["p"]
        assert rec["n0"] >= 1
        assert set(rec) == set(lab.GRAPH_FIELDS)


def test_render_csv_golden():
    records = [{"p": 5, "ok": True, "x": 1.5}, {"p": 7, "ok": False, "x": 0.25}]
    text = render_records(records, ["p", "ok", "x"], "csv")
    assert text == "p,ok,x\n5,true,1.5\n7,false,0.25\n"


def test_render_json_shape():
    records = [{"p": 5, "x": 1.5}]
    payload = json.loads(render_records(records, ["p", "x"], "json",
                                        metadata={"seed": 3}))
    assert payload["metadata"] == {"seed": 3}
    assert payload["records"] == [{"p": 5, "x": 1.5}]
    with pytest.raises(ValueError):
        render_records(records, ["p"], "xml")


def test_mu_v_consistency_fault_injection():
    assert lab.check_mu_v_consistency(2, 4) == "d=2 up to r=4"
    tables = [recur.e_coeffs(2, r) for r in range(-1, 5)]
    corrupt = recur.CoeffTable(
        d=2, r=3, v=tuple(
            c + Fraction(1, 7) if i == 0 else c
            for i, c in enumerate(tables[4].v)
        ),
    )
    injected = tables[:4] + [corrupt, tables[5]]
    with pytest.raises(lab.CheckFailed, match="d=2 r=3"):
        lab.check_mu_v_consistency(2, 4, tables=injected)


CHECK_NAMES = [
    "mu-recursion", "mu-v-consistency", "q-bound", "u-bound", "partition-recursion",
    "enumeration-u-match", "tree-generation", "moment-identities",
    "decomposition-geometric", "asymptotic-trend", "theorem-statistics", "corollary-sweeps",
]


def test_verify_all_quick_is_green():
    manifest = lab.verify_all(desk=False)
    assert manifest["ok"], [c for c in manifest["checks"] if not c["ok"]]
    assert manifest["version"] == polyiter.__version__
    assert [c["name"] for c in manifest["checks"]] == CHECK_NAMES


def test_verify_all_reports_budget_failure_by_name(monkeypatch):
    def over_budget(*args, **kwargs):
        raise BudgetError("label space exceeds enumeration cap")

    monkeypatch.setattr(curves, "decomposition_check", over_budget)
    manifest = lab.verify_all(desk=False)
    assert not manifest["ok"]
    failures = [c for c in manifest["checks"] if not c["ok"]]
    assert any(c["name"] == "budget" for c in failures)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_orbit(capsys):
    assert cli.main(["orbit", "--p", "5", "--d", "2", "--A", "1", "--C", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "p,d,A,C,tail_len,cycle_len,collision_index",
        "5,2,1,1,0,3,3",
    ]


def test_cli_image_json(capsys):
    code = cli.main(["image", "--p", "5", "--d", "2", "--A", "1", "--C", "1",
                     "--N", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"][0]["image_size"] == 3


def test_cli_mu(capsys):
    assert cli.main(["mu", "--d", "2", "--r", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("2,3,39/128,")


def test_cli_ucount(capsys):
    assert cli.main(["ucount", "--d", "2", "--r", "1", "--k", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "2,1,3,10"


def test_cli_enum_graphs(capsys):
    assert cli.main(["enum-graphs", "--d", "2", "--r", "1", "--k", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2 1 2; 1-2:-1,0",
        "2 1 2; 1-2:0,1",
        "2 1 2; 1-2:1,1",
    ]


def test_cli_curves_single_graph(capsys):
    code = cli.main(["curves", "--p", "5", "--d", "2", "--A", "1", "--C", "1",
                     "--N", "2", "--graph", "2 1 2; 1-2:1,1", "--format", "json"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert (rec["affine"], rec["infinity"], rec["total"]) == (4, 2, 6)


def test_cli_decomp(capsys):
    code = cli.main(["decomp", "--p", "5", "--d", "2", "--A", "1", "--C", "1",
                     "--N", "1", "--k", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "5,2,1,2,11,11,9,9,4,2,true,true"


def test_cli_sweep_writes_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--mode", "theorem", "--d", "2", "--N", "1",
            "--p-min", "5", "--p-max", "30", "--per-prime", "2",
            "--seed", "9", "--out", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    assert first.startswith(b"p,d,A,C,N,image_size,mu_p,norm_err,precondition\n")
    assert cli.main(argv) == 0
    assert out.read_bytes() == first  # byte-identical rerun
    capsys.readouterr()


def test_cli_sweep_json_metadata(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--mode", "collision", "--d", "2",
            "--p-min", "5", "--p-max", "20", "--seed", "3",
            "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["seed"] == 3
    assert payload["metadata"]["generator"] == lab.GENERATOR_NAME
    assert payload["metadata"]["log_base"] == "e"
    assert payload["metadata"]["version"] == polyiter.__version__
    assert payload["records"]


def test_cli_exit_codes():
    # invalid configuration: p not prime
    assert cli.main(["image", "--p", "6", "--d", "2", "--A", "1", "--C", "1"]) == 2
    # budget exceeded: p above the point-counting cap
    assert cli.main(["curves", "--p", "499", "--d", "2", "--A", "1", "--C", "1",
                     "--N", "1", "--k", "2"]) == 3
    # invalid configuration: malformed graphs and a negative moment order
    curves_args = ["curves", "--p", "5", "--d", "2", "--A", "1", "--C", "1"]
    assert cli.main([*curves_args, "--graph", "2 0 2; 1-3:0,1"]) == 2  # vertex out of range
    assert cli.main([*curves_args, "--graph", "2 0 2; 1-2:7,1"]) == 2  # level out of range
    assert cli.main(["curves", "--p", "13", "--d", "2", "--A", "3", "--C", "7", "--N", "1",
                     "--k", "2", "--graph", "2 0 3; 1-2:0,2"]) == 2  # graph degree != --d
    assert cli.main(["moments", "--p", "5", "--d", "2", "--A", "1", "--C", "1",
                     "--k", "-1"]) == 2
    # invalid configuration: no coordinates to count points on
    assert cli.main([*curves_args, "--N", "1", "--k", "0"]) == 2
    assert cli.main(["decomp", "--p", "5", "--d", "2", "--A", "1", "--C", "1",
                     "--N", "1", "--k", "0"]) == 2
    # invalid configuration: degree below 2 or level below -1
    assert cli.main(["ucount", "--d", "1", "--r", "-1", "--k", "3"]) == 2
    assert cli.main(["enum-graphs", "--d", "1", "--r", "0", "--k", "2"]) == 2
    assert cli.main(["enum-graphs", "--d", "2", "--r", "-3", "--k", "2"]) == 2
    assert cli.main(["enum-graphs", "--d", "2", "--r", "-3", "--k", "2", "--trees"]) == 2


def test_cli_verify_quick_writes_manifest(tmp_path, capsys):
    out = tmp_path / "manifest.json"
    assert cli.main(["verify", "--quick", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert capsys.readouterr().err.splitlines() == [
        f"PASS {name}: {c['detail']}" for name, c in zip(CHECK_NAMES, checks, strict=True)]
    assert out.read_text() == json.dumps(lab.verify_all(desk=False), indent=2) + "\n"


def test_cli_verify_reports_first_failing_instance(tmp_path, monkeypatch, capsys):
    image_size = dynamics.image_size
    monkeypatch.setattr(dynamics, "image_size", lambda f, N: image_size(f, N) + 1)
    out = tmp_path / "manifest.json"
    assert cli.main(["verify", "--quick", "--out", str(out)]) == 1
    manifest = json.loads(out.read_text())
    assert not manifest["ok"]
    assert [c["name"] for c in manifest["checks"]] == CHECK_NAMES
    moments = manifest["checks"][CHECK_NAMES.index("moment-identities")]
    assert not moments["ok"] and "p=5 d=2 A=1 C=0 N=0" in moments["detail"]
    assert f"FAIL moment-identities: {moments['detail']}" in capsys.readouterr().err


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    failing = {
        "version": "0.1.0", "desk": False, "ok": False,
        "checks": [{"name": "mu-recursion", "ok": False, "detail": "injected"}],
    }
    monkeypatch.setattr(lab, "verify_all", lambda desk: failing)
    assert cli.main(["verify", "--quick"]) == 1
    assert "FAIL mu-recursion" in capsys.readouterr().err
