"""Command-line interface: outputs, determinism, exit codes."""

import json

import pytest

from qvlasov.cli import main


def run(argv):
    return main(argv)


def test_expand_listing_contains_first_correction(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["expand", "--potential", "goldstone", "--order", "2",
                "--convention", "paper", "--out", str(out)])
    assert code == 0
    listing = (out / "series.txt").read_text()
    # coefficient of f0^(2) in f_1 is (6 - 18 q^2)/48, canonically:
    assert "1/8 - 3/8*q^2" in listing
    doc = json.loads((out / "series.json").read_text())
    assert doc["order"] == 2 and doc["convention"] == "paper"
    assert doc["config"]["command"] == "expand"


def test_expand_quadratic_uniform_all_zero(tmp_path):
    out = tmp_path / "run"
    assert run(["expand", "--potential", "1+q+q^2", "--order", "3",
                "--convention", "uniform", "--out", str(out)]) == 0
    listing = (out / "series.txt").read_text()
    for l in (1, 2, 3):
        assert f"f_{l}:\n  0" in listing


def test_expand_zero_potential(tmp_path):
    out = tmp_path / "run"
    assert run(["expand", "--potential", "0", "--order", "4",
                "--out", str(out)]) == 0
    doc = json.loads((out / "series.json").read_text())
    assert all(not term for term in doc["terms"][1:])


def test_evaluate_writes_field_with_negative_min(tmp_path):
    out = tmp_path / "run"
    code = run(["evaluate", "--potential", "goldstone", "--order", "5",
                "--seed", "fd:z=1", "--hbar", "0.6",
                "--qrange=-4,4,81", "--prange=-4,4,81",
                "--out", str(out)])
    assert code == 0
    sidecar = json.loads((out / "field.json").read_text())
    assert sidecar["min_f"] < 0
    assert sidecar["norm_constant"] > 0
    assert (out / "field.csv").read_text().startswith("q,p,f\n")


def test_evaluate_classical_field_positive(tmp_path):
    out = tmp_path / "run"
    assert run(["evaluate", "--potential", "goldstone", "--order", "2",
                "--seed", "fd:z=1", "--hbar", "0",
                "--qrange=-3,3,41", "--prange=-3,3,41",
                "--out", str(out)]) == 0
    sidecar = json.loads((out / "field.json").read_text())
    assert sidecar["min_f"] > 0


def test_evaluate_is_deterministic(tmp_path):
    args = ["evaluate", "--potential", "goldstone", "--order", "3",
            "--seed", "fd:z=1", "--hbar", "0.5",
            "--qrange=-3,3,31", "--prange=-3,3,31"]
    assert run(args + ["--out", str(tmp_path / "a")]) == 0
    assert run(args + ["--out", str(tmp_path / "b")]) == 0
    csv_a = (tmp_path / "a" / "field.csv").read_bytes()
    csv_b = (tmp_path / "b" / "field.csv").read_bytes()
    assert csv_a == csv_b


def test_diagnose_single_hbar(tmp_path):
    out = tmp_path / "run"
    code = run(["diagnose", "--potential", "goldstone", "--order", "5",
                "--seed", "fd:z=1", "--hbar", "0.7",
                "--qrange=-4,4,101", "--prange=-4,4,101",
                "--out", str(out)])
    assert code == 0
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["min_Pq"] < 0
    assert (out / "marginal_q.csv").read_text().startswith("q,P_q\n")
    assert (out / "marginal_p.csv").read_text().startswith("p,P_p\n")


def test_diagnose_sweep(tmp_path):
    out = tmp_path / "run"
    code = run(["diagnose", "--potential", "goldstone", "--order", "5",
                "--seed", "fd:z=1",
                "--hbar-list", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
                "--qrange=-4,4,101", "--prange=-4,4,101",
                "--out", str(out)])
    assert code == 0
    lines = (out / "qsweep.csv").read_text().splitlines()
    assert lines[0] == "hbar,Q,two_pi_hbar_Q"
    bounds = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b >= a for a, b in zip(bounds, bounds[1:]))
    assert bounds[0] < 1.0 < bounds[-1]


def test_diagnose_hbar_zero_verdict_not_applicable(tmp_path):
    out = tmp_path / "run"
    assert run(["diagnose", "--potential", "goldstone", "--order", "2",
                "--seed", "fd:z=1", "--hbar", "0",
                "--qrange=-3,3,41", "--prange=-3,3,41",
                "--out", str(out)]) == 0
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["uncertainty_ok"] is None


def test_verify_symbolic_exit_zero(tmp_path):
    out = tmp_path / "run"
    code = run(["verify", "--potential", "goldstone", "--order", "3",
                "--out", str(out)])
    assert code == 0
    report = json.loads((out / "residual.json").read_text())
    assert report["observed_order"] == 8 and report["passed"] is True


def test_verify_numeric_modulated(tmp_path):
    out = tmp_path / "run"
    code = run(["verify", "--potential", "modulated:a=1/2", "--order", "1",
                "--seed", "fd:z=1", "--j-max", "4",
                "--hbar-list", "0.05,0.1,0.2,0.4", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "residual.json").read_text())
    assert report["mode"] == "numeric"
    assert report["slope"] >= report["claimed_order"] - 0.5


def test_verify_tampered_series_fails(tmp_path):
    out = tmp_path / "expand"
    assert run(["expand", "--potential", "goldstone", "--order", "2",
                "--out", str(out)]) == 0
    series_path = out / "series.json"
    doc = json.loads(series_path.read_text())
    doc["terms"][1][0]["ring"][0]["coefficient"] = [[0, "9/7"]]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code = run(["verify", "--series", str(tampered), "--out",
                str(tmp_path / "v")])
    assert code == 3


def test_verify_garbage_series_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", "--series", str(bad),
                "--out", str(tmp_path / "v")]) == 2


def test_config_errors_are_aggregated(capsys):
    code = run(["evaluate", "--potential", "q^", "--seed", "nope",
                "--order", "-3"])
    assert code == 1
    err = capsys.readouterr().err
    assert "potential" in err and "seed" in err and "--order" in err


def test_missing_potential_rejected():
    assert run(["expand"]) == 1


def test_bose_pole_is_computation_error(tmp_path):
    # deep quantum well drives H below the Bose-Einstein domain
    code = run(["evaluate", "--potential=-q^2", "--order", "1",
                "--seed", "be:z=0.5", "--hbar", "0.1",
                "--qrange=-2,2,21", "--prange=-2,2,21",
                "--out", str(tmp_path / "run")])
    assert code == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "potential": "goldstone", "order": 1, "seed": "fd:z=1",
        "hbar": 0.3, "qrange": "-3,3,31", "prange": "-3,3,31",
    }))
    out = tmp_path / "run"
    code = run(["evaluate", "--config", str(cfg), "--order", "2",
                "--out", str(out)])
    assert code == 0
    sidecar = json.loads((out / "field.json").read_text())
    assert sidecar["config"]["order"] == 2           # flag wins
    assert sidecar["config"]["hbar"] == 0.3          # file value kept


def test_preset_names_resolve(tmp_path):
    for name in ("quartic", "harmonic", "modulated"):
        assert run(["expand", "--potential", name, "--order", "1",
                    "--out", str(tmp_path / name)]) == 0


EVALUATE = ["evaluate", "--potential", "goldstone", "--hbar", "0.3",
            "--qrange=-3,3,21", "--prange=-3,3,21"]


@pytest.mark.parametrize("argv, config, message", [
    (["evaluate", "--order", "x"], None, "--order"),
    (EVALUATE + ["--bogus"], None, "unrecognized"),
    ([], None, "required"),
    (EVALUATE, {"grid": 5}, "grid"),
    (EVALUATE, {"no_normalize": "false"}, "--no-normalize"),
    (EVALUATE, {"order": 2.7}, "--order"),
    (EVALUATE, {"order": True}, "--order"),
    (EVALUATE, {"j-max": 7}, "j-max"),
    (EVALUATE, {"mode": "numeric"}, "--mode"),
    (["diagnose", "--potential", "goldstone", "--hbar-list", "0.1,-1"], None,
     "--hbar-list"),
    (["verify", "--potential", "goldstone", "--samples", "0"], None, "--samples"),
    (["verify", "--potential", "modulated", "--j-max", "0"], None, "--j-max"),
    (["verify", "--potential", "modulated", "--j-max", "-3"], None, "--j-max"),
    (["evaluate", "--potential", "goldstone", "--hbar", "inf"], None, "--hbar"),
    (["diagnose", "--potential", "goldstone", "--hbar-list", "0.1,inf"], None,
     "--hbar-list"),
    (EVALUATE + ["--prange=-3,inf,11"], None, "finite"),
    (EVALUATE + ["--qrange=-inf,3,11"], None, "finite"),
    (EVALUATE[:5], {"grid": {"p_max": float("inf")}}, "finite"),
], ids=["order-not-int", "unknown-flag", "no-command", "grid-not-object",
        "flag-given-a-string", "order-float", "order-bool", "unknown-key",
        "flag-of-another-command", "negative-hbar-list", "zero-samples",
        "zero-j-max", "negative-j-max", "infinite-hbar", "infinite-hbar-list",
        "infinite-p-bound", "infinite-q-bound",
        "infinite-grid-in-file"])
def test_config_errors_exit_one(tmp_path, monkeypatch, capsys, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = argv + ["--config", "config.json"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv, outputs", [
    (["evaluate", "--potential=-q^2/2 + q^4/4", "--order", "3",
      "--seed", "fd:z=0.9", "--hbar", "0.0707"], ("field.csv", "field.json")),
    (["diagnose", "--potential", "goldstone", "--order", "3", "--seed", "mb",
      "--hbar-list", "0.1,0.1414,0.3"], ("qsweep.csv", "qsweep.json")),
], ids=["evaluate", "diagnose-sweep"])
def test_sidecar_config_round_trips(tmp_path, argv, outputs):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(argv + ["--qrange=-3,3.5,31", "--prange=-3,3,29",
                       "--out", str(first)]) == 0
    sidecar = json.loads((first / outputs[1]).read_text())
    (tmp_path / "config.json").write_text(json.dumps(sidecar["config"]))
    assert run([argv[0], "--config", str(tmp_path / "config.json"),
                "--out", str(second)]) == 0
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("key, value, message", [
    ("order", 5, "order 5"), ("convention", "bogus", "convention"),
    ("terms", 5, "malformed"), ("potential", 3, "malformed")])
def test_verify_rejects_bad_series_header(tmp_path, capsys, key, value, message):
    out = tmp_path / "expand"
    assert run(["expand", "--potential", "goldstone", "--order", "2",
                "--out", str(out)]) == 0
    doc = json.loads((out / "series.json").read_text())
    doc[key] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    assert run(["verify", "--series", str(edited), "--out", str(tmp_path / "v")]) == 2
    assert message in capsys.readouterr().err


def test_verify_series_provenance_describes_loaded_series(tmp_path):
    out = tmp_path / "expand"
    assert run(["expand", "--potential", "goldstone", "--order", "3",
                "--convention", "uniform", "--out", str(out)]) == 0
    series = json.loads((out / "series.json").read_text())
    assert run(["verify", "--series", str(out / "series.json"),
                "--out", str(tmp_path / "v")]) == 0
    config = json.loads((tmp_path / "v" / "residual.json").read_text())["config"]
    assert (config["potential"], config["order"], config["convention"]) == \
        (series["potential"], 3, "uniform")
