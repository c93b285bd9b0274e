"""CLI dispatch, report schema, exit codes, and reproducibility."""

import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest

from selmerfq import cli, lfunction, localdata, weierstrass

# a smooth minimal d = 1 model over F_29 (model-gen --seed 0): 29^5 is past
# the 2^24 table budget, so outside lfunction's domain q^5 <= 2^24
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
    assert rep["schema_version"] == 5
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


def test_average_table_unwritable_mirror_exits_1(tmp_path, capsys):
    # the mirror X.tsv is a directory: an error line, exit 1, no report file
    (tmp_path / "table.tsv").mkdir()
    out_path = tmp_path / "table.json"
    code = cli.main(["average-table", "--n", "2", "--d", "2",
                     "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "table.tsv" in err
    assert not out_path.exists()


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

    code, out = _run(["lfunction", "--model", str(path)], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["degree"] == 8
    assert res["coefficients"][0] == 1
    assert sorted(res["selmer_bounds"]) == ["2", "3"]


def test_lfunction_has_no_mod_option(capsys):
    code = cli.main(["lfunction", "--model", "unused.json", "--mod", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --mod 2" in captured.err


def test_reports_bit_identical_except_timing(capsys):
    _, out1 = _run(["weyl-e8", "--n", "2"], capsys)
    _, out2 = _run(["weyl-e8", "--n", "2"], capsys)
    r1 = _strip_timing(json.loads(out1))
    r2 = _strip_timing(json.loads(out2))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_report_write_failure_exits_1(tmp_path, capsys, monkeypatch):
    # a report that cannot be written (a full disk) is an error line and
    # exit 1, not a traceback; the target passes _check_out
    def full_disk(report, out):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cli, "_emit", full_disk)
    code = cli.main(["weyl-e8", "--n", "2", "--out", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: [Errno 28] No space left on device"]


# model-gen over F_25 at d = 2, timing stripped, and the tate result of each
# model it writes: over F_{p^k} random_model accepts a draw by the model's
# own Delta and c4, so their arithmetic decides these bytes
MODEL_GEN_F25_SHA256 = \
    "c9b7c97e8f7bc647223e3f01059686dfb41f3100bf5e72f077b4d32d42435a52"
TATE_F25_SHA256 = \
    "cd1602111eb01ca1e7f4c5ea3079ccb7d7da2f2da0eb43b9fca97f6bbc11caa0"


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_model_gen_and_tate_over_f25_pinned(tmp_path, capsys):
    code, out = _run(["model-gen", "--q", "5^2", "--d", "2", "--count", "5",
                      "--smooth", "--seed", "3"], capsys)
    assert code == 0
    report = _strip_timing(json.loads(out))
    assert _sha256(report) == MODEL_GEN_F25_SHA256
    tate = []
    for i, model in enumerate(report["result"]["models"]):
        path = tmp_path / ("model%d.json" % i)
        path.write_text(json.dumps(model))
        code, out = _run(["tate", "--model", str(path)], capsys)
        assert code == 0
        tate.append(json.loads(out)["result"])
    assert _sha256(tate) == TATE_F25_SHA256


# reports decided by census.classify and singular_branches, timing stripped:
# the batched F_p[t] kernel decides these bytes
KERNEL_REPORT_SHA256 = {
    "census --q 5 --d 1 --seed 0":
        "4c6d75b396547f59fa12aba4bcc8dccb34308863e15071b2c4affdc285fa9752",
    "census --q 5 --d 2 --seed 0":
        "a7ee02ba93f9b50696c12cf39ccf0d9c796088136ce5f12dd34865c42603462f",
    "census --q 7 --d 1 --seed 0":
        "591d59eb26806bc25e3ac4cac5050caae58f94f3bb32f0d5f84af199fdf1897c",
    "census --q 7 --d 2 --seed 0":
        "01cc1c6171eeaf6e97fbe224c0d9377ea1d9b2809c8d819c2d6c84987bb3fc10",
    "census --q 13 --d 1 --seed 0":
        "afbb3c96f1d53e4089d3c1ecf1d2a5caa995cb75d87bbbef480837f4640af024",
    "census --q 13 --d 2 --seed 0":
        "c74979619d4bff5164bfcb61c70ca7b78dde4106ffc5554a79502e70f2d150c9",
    "census --q 5 --d 0 --mode exhaustive":
        "aed10c2fc3d71c8228846a67df35c9b6bf1cb610ac41b4c0fac85148caaf195a",
    "model-gen --q 7 --d 2 --count 40 --minimal --smooth --seed 5":
        "5115b14ba94d0fbbb05c979cd4e0f02bfc548174004f6b65910f90aefaef0ab8",
    "divisor-count --q 3 --samples 4000 --seed 1":
        "83d14f1401d18d6485759b332379fde904debf579b28ee81f686fdf1eb95008a",
}


@pytest.mark.parametrize("command", sorted(KERNEL_REPORT_SHA256))
def test_kernel_reports_pinned(command, capsys):
    code, out = _run(command.split(), capsys)
    assert code == 0
    assert _sha256(_strip_timing(json.loads(out))) \
        == KERNEL_REPORT_SHA256[command]


def test_orbits_sample_mode(capsys):
    code, out = _run(["orbits", "--n", "2", "--d", "2", "--mode", "sample",
                      "--pairs", "10", "--seed", "5"], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["orbit_count"] == 3
    assert res["unresolved"] == []


def test_exhaustive_orbits_read_no_seed(capsys):
    results = []
    for seed in ("0", "7"):
        code, out = _run(["orbits", "--n", "2", "--d", "2", "--mode",
                          "exhaustive", "--seed", seed], capsys)
        assert code == 0
        results.append(_strip_timing(json.loads(out))["result"])
    assert results[0] == results[1]
    assert results[0]["orbit_count"] == 3


@pytest.mark.parametrize("argv,unread", [
    (["census", "--q", "5", "--d", "0"], "n"),
    (["orbits", "--n", "2", "--d", "2"], "pairs"),
], ids=["census", "orbits"])
def test_exhaustive_modes_report_null_seed(capsys, argv, unread):
    # --seed stays parseable, but nothing is drawn and --n/--pairs go unread
    code, out = _run(argv + ["--mode", "exhaustive", "--seed", "7"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["seed"] is None and rep["config"]["seed"] is None
    assert rep["config"][unread] is None
    assert rep["result"].get("seed") is None


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

    def failing_check(m):
        raise ValueError("S_5 check failed")
    monkeypatch.setattr(lfunction, "l_polynomial", failing_check)
    code = cli.main(["lfunction", "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "S_5 check failed" in captured.err


def test_smoothness_routes_disagree_exits_1(tmp_path, capsys, monkeypatch):
    # Tate's algorithm, run once for the sign, cross-checks the gcd test:
    # an I_2 fiber on a model the gcd test finds smooth is a failed check
    model = _first_model(["model-gen", "--q", "5", "--d", "1", "--minimal",
                          "--smooth", "--seed", "3"], capsys)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))

    def one_i2_fiber(m):
        v = weierstrass.bad_places(m)[0]
        pd = localdata.PlaceData(v, "I_2", 2, 1, 2, split=True)
        return localdata.GlobalLocalSummary(m, [pd])
    monkeypatch.setattr(localdata, "global_summary", one_i2_fiber)
    code = cli.main(["lfunction", "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "smoothness routes disagree" in captured.err


def test_lfunction_outside_domain_exits_2(tmp_path, capsys):
    with open(Q29_MODEL) as fh:
        q29 = json.load(fh)
    cases = [
        # d = 2: a K3 surface, whose L-polynomial is not computed
        ("d = 1 only", _first_model(["model-gen", "--q", "5", "--d", "2",
                                     "--minimal", "--smooth"], capsys)),
        # minimal, with a bad fiber beyond I_1 and II
        ("smooth total space", _first_model(
            ["model-gen", "--q", "5", "--d", "1", "--minimal", "--count",
             "40", "--seed", "3"], capsys)),
        # (t^2, t^4, t^6): not minimal at t = 0, so not smooth there
        ("smooth total space",
         {"p": 5, "k": 1, "d": 1, "a2": [0, 0, 1], "a4": [0, 0, 0, 0, 1],
          "a6": [0, 0, 0, 0, 0, 0, 1]}),
        # y^2 = x^3 + t^3: I_0* fibers at 0 and infinity
        ("smooth total space",
         {"p": 5, "k": 1, "d": 1, "a2": [0, 0, 0], "a4": [0, 0, 0, 0, 0],
          "a6": [0, 0, 0, 1, 0, 0, 0]}),
        # smooth, but the point counts need a prime base field
        ("prime base field", _first_model(
            ["model-gen", "--q", "5^2", "--d", "1", "--minimal", "--smooth"],
            capsys)),
        # smooth, but q^5 is past the table budget
        ("lfunction needs q^5 <= 2^24 (q <= 27), got q = 29", q29),
    ]
    for message, model in cases:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code = cli.main(["lfunction", "--model", str(path)])
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


@pytest.mark.parametrize("command", ["tate", "lfunction"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    # json.load once raised a RecursionError traceback here
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code = cli.main([command, "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not a model file (RecursionError" in captured.err


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
    ["divisor-count", "--q", "1"],
    ["divisor-count", "--q", "-3"],
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
    ["census", "--q", "1000000000000000003", "--d", "1"],
    ["model-gen", "--q", "18446744073709551629", "--d", "1"],
    ["model-gen", "--q", "65537^4", "--d", "1"],
    ["model-gen", "--q", "1000003^4", "--d", "1"],
    ["model-gen", "--q", "4294967311^2", "--d", "1"],
    # a scalar-path run past count * (k d)^2 = 10^5, before any draw
    ["model-gen", "--q", "5^16", "--d", "16", "--count", "10000", "--smooth"],
    ["model-gen", "--q", "5^2", "--d", "16", "--count", "10000"],
    # sampling past its budget, checked before any draw
    ["orbits", "--d", "2", "--mode", "sample", "--n", "10000000000",
     "--pairs", "1"],
    ["orbits", "--d", "2", "--mode", "sample", "--n", "1000003",
     "--pairs", "1"],
    ["orbits", "--d", "2", "--mode", "sample", "--n", "2",
     "--pairs", "1000000000000"],
    ["average-table", "--n", "10000000000", "--d", "2"],
    # more samples than the 3^15 tuples, and than the 3 * 10^5 cap
    ["divisor-count", "--q", "3", "--samples", "1000000000000"],
    ["divisor-count", "--q", "3", "--samples", "300001"],
    # census work N (12d+3)^2 past its bound: about 37 h of classifying
    ["census", "--q", "5", "--d", "16", "--n", "268435456"],
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


@pytest.mark.parametrize("command", ["tate", "lfunction"])
@pytest.mark.parametrize("field,value", [("p", 5.0), ("d", True), ("d", 1.0),
                                         ("k", True), ("k", 1.0)])
def test_model_header_must_be_integers(tmp_path, capsys, command, field,
                                       value):
    # "p": 5.0 once raised a TypeError traceback inside Field.inv
    model = dict(SMOOTH_Q5, **{field: value})
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code = cli.main([command, "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "%s = %r is not an int" % (field, value) in captured.err


@pytest.mark.parametrize("command", ["tate", "lfunction"])
@pytest.mark.parametrize("field,value,message", [
    ("k", 17, "extension degree must be in [1, 16]"),
    ("d", -1, "height d = -1 is outside [0, 16]")])
def test_model_file_domain_errors_pass_through(tmp_path, capsys, command,
                                               field, value, message):
    # a well-formed model file outside the domain is not "not a model file"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(SMOOTH_Q5, **{field: value})))
    code = cli.main([command, "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert "not a model file" not in captured.err


@pytest.mark.parametrize("command", ["tate", "lfunction"])
def test_model_file_height_past_max_exits_2(tmp_path, command):
    # model-gen writes d <= 16; a d = 48 file once ran past 30 s in tate
    d = 48
    model = {"p": 5, "k": 1, "d": d, "a2": [1] * (2 * d + 1),
             "a4": [2] * (4 * d + 1), "a6": [3] * (6 * d + 1)}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "selmerfq.cli", command,
                           "--model", str(path)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "height d = 48 is outside [0, 16]" in proc.stderr
    assert proc.stdout == ""


def test_model_gen_over_a_large_prime_field():
    # Field(p) once ran trial division up to sqrt(p) and hung here
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "selmerfq.cli", "model-gen",
                           "--q", "1000000000000000003", "--d", "1"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["result"]["models"]) == 1


# one cheap run of each subcommand, and whether it draws from --seed;
# {model} is a smooth minimal d = 1 model over F_5 (model-gen --seed 3)
SMOOTH_Q5 = {"p": 5, "k": 1, "d": 1, "a2": [3, 0, 2], "a4": [3, 2, 3, 1, 1],
             "a6": [2, 3, 0, 4, 2, 3, 2]}
EVERY_SUBCOMMAND = [
    (["census", "--q", "5", "--d", "0", "--mode", "sample"], True),
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


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    # every selmerfq line of the README's command block, in order, in a tmp
    # dir; model.json is the first model of the model-gen line
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [ln for ln in block.split("```", 1)[0].splitlines()
             if ln.startswith("selmerfq ")]
    commands = {ln.split()[1] for ln in lines}
    assert commands == {argv[0] for argv, _ in EVERY_SUBCOMMAND}
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, out = _run(shlex.split(line)[1:], capsys)
        assert code == 0, line
        if line.startswith("selmerfq model-gen"):
            model = json.loads(out)["result"]["models"][0]
            (tmp_path / "model.json").write_text(json.dumps(model))
    assert (tmp_path / "table.json").exists()
    assert (tmp_path / "table.tsv").exists()
