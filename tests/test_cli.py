"""CLI dispatch, report schema, exit codes, and reproducibility."""

import json
import os
import subprocess
import sys

import pytest

from selmerfq import cli, lfunction

# a smooth minimal d = 1 model over F_29 (model-gen --seed 0): 29^5 is past
# the 2^24 table budget of the S_5 point count
Q29_MODEL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "model_q29.json")


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _strip_timing(report):
    report = dict(report)
    report.pop("wall_clock_seconds", None)
    result = report.get("result")
    if isinstance(result, dict):
        result = dict(result)
        result.pop("elapsed_seconds", None)
        report["result"] = result
    return report


def test_weyl_e8_subcommand(capsys):
    code, out = _run(["weyl-e8", "--n", "3"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["orbit_count"] == 5
    assert rep["schema_version"] == 3
    assert "tool_version" in rep and "config" in rep


def test_invalid_field_spec_exits_2(capsys):
    code, _ = _run(["census", "--q", "4^1", "--d", "1"], capsys)
    assert code == 2


def test_small_characteristic_exits_2(capsys):
    code, _ = _run(["census", "--q", "3", "--d", "1"], capsys)
    assert code == 2


def test_average_table_values(capsys):
    code, out = _run(["average-table", "--n", "2,3,4,5,6", "--d", "2"], capsys)
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert [r["average"] for r in rows] == [3, 4, 7, 6, 12]
    assert all(r["provenance"] == "sigma(n) [theorem]" for r in rows)


def test_average_table_sigma_identity(capsys):
    def sigma(n):
        return sum(m for m in range(1, n + 1) if n % m == 0)
    ns = ",".join(str(n) for n in range(1, 31))
    code, out = _run(["average-table", "--n", ns, "--d", "2"], capsys)
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert [r["average"] for r in rows] == [sigma(n) for n in range(1, 31)]


def test_average_table_d1_exceptional(capsys):
    code, out = _run(["average-table", "--n", "3", "--d", "1"], capsys)
    assert code == 0
    row = json.loads(out)["result"]["rows"][0]
    assert row["average"] == 5
    assert row["provenance"] == "orbit count [computed]"


def test_average_table_tsv_mirror(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    code, _ = _run(["average-table", "--n", "2,6", "--d", "2",
                    "--out", str(out_path)], capsys)
    assert code == 0
    tsv = (tmp_path / "table.tsv").read_text().strip().splitlines()
    assert tsv[0] == "n\td\taverage\tprovenance"
    assert tsv[1].startswith("2\t2\t3")
    assert tsv[2].startswith("6\t2\t12")


def test_model_gen_tate_lfunction_pipeline(tmp_path, capsys):
    code, out = _run(["model-gen", "--q", "5", "--d", "1", "--count", "1",
                      "--minimal", "--smooth", "--seed", "3"], capsys)
    assert code == 0
    model = json.loads(out)["result"]["models"][0]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))

    code, out = _run(["tate", "--model", str(path)], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["disc_degree_check"] is True
    assert all(p["kodaira"] in ("I_1", "II") for p in res["places"])

    code, out = _run(["lfunction", "--model", str(path), "--mod", "2"], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["degree"] == 8
    assert res["coefficients"][0] == 1
    assert "unit_root_multiplicity" in res
    assert res["roots_abs_check"]["max_relative_deviation"] <= 1e-6


def test_reports_bit_identical_except_timing(capsys):
    _, out1 = _run(["weyl-e8", "--n", "2"], capsys)
    _, out2 = _run(["weyl-e8", "--n", "2"], capsys)
    r1 = _strip_timing(json.loads(out1))
    r2 = _strip_timing(json.loads(out2))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_orbits_sample_mode(capsys):
    code, out = _run(["orbits", "--n", "2", "--d", "2", "--mode", "sample",
                      "--pairs", "10", "--seed", "5"], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["orbit_count"] == 3
    assert res["unresolved"] == []


def test_orbits_d1_rejected(capsys):
    code, _ = _run(["orbits", "--n", "2", "--d", "1"], capsys)
    assert code == 2


def _first_model(argv, capsys):
    code, out = _run(argv, capsys)
    assert code == 0
    return json.loads(out)["result"]["models"][0]


def test_computation_error_exits_1(tmp_path, capsys, monkeypatch):
    # a check failing inside the computation exits 1 with its message
    model = _first_model(["model-gen", "--q", "5", "--d", "1", "--minimal",
                          "--smooth", "--seed", "3"], capsys)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))

    def failing_check(m, summary=None):
        raise ValueError("S_5 check failed")
    monkeypatch.setattr(lfunction, "l_polynomial", failing_check)
    code = cli.main(["lfunction", "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "S_5 check failed" in captured.err


def test_lfunction_outside_domain_exits_2(tmp_path, capsys):
    smooth_q5 = _first_model(["model-gen", "--q", "5", "--d", "1", "--minimal",
                              "--smooth", "--seed", "3"], capsys)
    cases = [
        # d = 2: a K3 surface, whose L-polynomial is not computed
        ("d = 1 only", _first_model(["model-gen", "--q", "5", "--d", "2",
                                     "--minimal", "--smooth"], capsys), []),
        # minimal, with a bad fiber beyond I_1 and II
        ("smooth total space", _first_model(
            ["model-gen", "--q", "5", "--d", "1", "--minimal", "--count",
             "40", "--seed", "3"], capsys), []),
        # y^2 = x^3 + t^3: I_0* fibers at 0 and infinity
        ("smooth total space",
         {"p": 5, "k": 1, "d": 1, "a2": [0, 0, 0], "a4": [0, 0, 0, 0, 0],
          "a6": [0, 0, 0, 1, 0, 0, 0]}, []),
        # smooth, but the point counts need a prime base field
        ("prime base field", _first_model(
            ["model-gen", "--q", "5^2", "--d", "1", "--minimal", "--smooth"],
            capsys), []),
        # L mod n needs n prime to q
        ("gcd(q, n) = 1", smooth_q5, ["--mod", "5"]),
    ]
    for message, model, extra in cases:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code = cli.main(["lfunction", "--model", str(path)] + extra)
        captured = capsys.readouterr()
        assert code == 2, message
        assert captured.out == ""
        assert message in captured.err


def test_tate_non_minimal_exits_2(tmp_path, capsys):
    # (t^2, t^4, t^6) is not minimal at t = 0
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"p": 5, "k": 1, "d": 1, "a2": [0, 0, 1],
                                "a4": [0, 0, 0, 0, 1],
                                "a6": [0, 0, 0, 0, 0, 0, 1]}))
    code = cli.main(["tate", "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "minimalize first" in captured.err


@pytest.mark.parametrize("command", ["tate", "lfunction"])
def test_non_model_json_exits_2(tmp_path, capsys, command):
    # a model-gen report is JSON but not a model
    code, out = _run(["model-gen", "--q", "5", "--d", "1"], capsys)
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code = cli.main([command, "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not a model file" in captured.err


def test_missing_model_file_exits_1(capsys):
    code, _ = _run(["tate", "--model", "/nonexistent/model.json"], capsys)
    assert code == 1


def test_census_cli_exhaustive_d0(capsys):
    code, out = _run(["census", "--q", "5", "--d", "0",
                      "--mode", "exhaustive"], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["counts"]["total"] == 125
    assert res["counts"]["smooth"] == 100


def test_divisor_count_cli(capsys):
    code, out = _run(["divisor-count", "--q", "3", "--d", "1",
                      "--samples", "50", "--seed", "2"], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert 3 ** 13 < res["image_count"] < 3 ** 15


@pytest.mark.parametrize("command", ["tate", "lfunction"])
@pytest.mark.parametrize("a2", [[0.5, 0, 4], [7, 0, 4]], ids=["float", "big"])
def test_model_coefficients_must_be_codes(tmp_path, capsys, command, a2):
    # a coefficient is an element code, an int in [0, q): 7 is not one in F_5
    model = {"p": 5, "k": 1, "d": 1, "a2": a2, "a4": [4, 2, 0, 3, 0],
             "a6": [4, 0, 1, 1, 3, 1, 2]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code = cli.main([command, "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "element codes in [0, 5)" in captured.err


def test_model_gen_minimal_smooth_over_f25(capsys):
    # Tate's algorithm once read the integer constants of its formulas as
    # element codes, and fell through at a minimal place over F_25
    code, out = _run(["model-gen", "--q", "5^2", "--d", "1", "--count", "4",
                      "--minimal", "--smooth", "--seed", "1000003"], capsys)
    assert code == 0
    assert len(json.loads(out)["result"]["models"]) == 4


@pytest.mark.parametrize("argv", [
    ["weyl-e8", "--n", "0"],
    ["orbits", "--n", "0", "--d", "2"],
    ["census", "--q", "5", "--d", "-1"],
    ["model-gen", "--q", "5", "--d", "-1"],
    ["divisor-count", "--q", "2", "--samples", "20"],
    ["divisor-count", "--q", "3", "--d", "2"],
    ["census", "--q", "5", "--d", "1", "--mode", "exhaustive"],
    ["divisor-count", "--q", "3^1"],
    ["model-gen", "--q", "5", "--d", "1", "--count", "-1"],
    ["average-table", "--n", "2,x", "--d", "2"],
    ["average-table", "--n", "2", "--d", "0"],
    ["average-table", "--n", "2", "--d", "-3"],
    ["orbits", "--n", "2", "--d", "2", "--mode", "sample", "--pairs", "-5"],
    ["orbits", "--n", "2", "--d", "2", "--mode", "sample", "--pairs", "0"],
    ["lfunction", "--model", "unused.json", "--mod", "0"],
    ["lfunction", "--model", "unused.json", "--mod", "-3"],
    ["divisor-count", "--q", "5"],
    ["lfunction", "--model", Q29_MODEL],
    ["census", "--q", "5", "--d", "0", "--mode", "exhaustive",
     "--out", "/nonexistent/r.json"],
    ["weyl-e8", "--n", "10"],
    ["orbits", "--n", "3", "--d", "2"],
    ["average-table", "--n", "100", "--d", "1"],
    ["census", "--q", "5", "--d", "1", "--n", "20000000000"],
    ["census", "--q", "5", "--d", "100000"],
    ["orbits", "--n", "2", "--d", "100000"],
    ["model-gen", "--q", "5", "--d", "100000"],
    ["model-gen", "--q", "5", "--d", "1", "--count", "100000000000"],
])
def test_invalid_arguments_exit_2(argv):
    # a fresh process under a timeout: one of these used to hang
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "selmerfq.cli"] + argv,
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.strip()
    assert proc.stdout == ""


# one cheap run of each subcommand, and whether it draws from --seed;
# {model} is a smooth minimal d = 1 model over F_5 (model-gen --seed 3)
SMOOTH_Q5 = {"p": 5, "k": 1, "d": 1, "a2": [3, 0, 2], "a4": [3, 2, 3, 1, 1],
             "a6": [2, 3, 0, 4, 2, 3, 2]}
EVERY_SUBCOMMAND = [
    (["census", "--q", "5", "--d", "0", "--mode", "exhaustive"], True),
    (["divisor-count", "--q", "3", "--samples", "10"], True),
    (["orbits", "--n", "2", "--d", "2", "--mode", "sample", "--pairs", "2"],
     True),
    (["weyl-e8", "--n", "2"], False),
    (["tate", "--model", "{model}"], False),
    (["lfunction", "--model", "{model}"], False),
    (["average-table", "--n", "2", "--d", "2"], False),
    (["model-gen", "--q", "5", "--d", "1"], True),
]


def _with_model(argv, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(SMOOTH_Q5))
    return [str(path) if a == "{model}" else a for a in argv]


@pytest.mark.parametrize("argv", [a for a, _ in EVERY_SUBCOMMAND],
                         ids=[a[0] for a, _ in EVERY_SUBCOMMAND])
def test_budget_bits_is_not_an_option(tmp_path, capsys, argv):
    code = cli.main(_with_model(argv, tmp_path) + ["--budget-bits", "30"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --budget-bits 30" in captured.err


@pytest.mark.parametrize("argv,seeded", EVERY_SUBCOMMAND,
                         ids=[a[0] for a, _ in EVERY_SUBCOMMAND])
def test_seed_only_where_something_is_drawn(tmp_path, capsys, argv, seeded):
    argv = _with_model(argv, tmp_path)
    code = cli.main(argv + ["--seed", "7"])
    captured = capsys.readouterr()
    if seeded:
        assert code == 0
        rep = json.loads(captured.out)
        assert rep["seed"] == rep["config"]["seed"] == 7
    else:
        assert code == 2
        assert "unrecognized arguments: --seed 7" in captured.err
        code, out = _run(argv, capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["seed"] is None and "seed" not in rep["config"]
