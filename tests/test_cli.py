"""Command-line interface: outputs, determinism, exit codes."""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from qvlasov import cli, evaluate
from qvlasov.cli import main
from qvlasov.seeds import SeedDistribution


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


FIELD_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "field_digests.json").read_text())


@pytest.mark.parametrize("key", sorted(k for k in FIELD_GOLDEN
                                     if not k.startswith("qsweep ")))
def test_evaluate_csv_matches_golden_digest(tmp_path, key):
    # SHA-256 of field.csv, recorded before the integer group layout of the
    # exact core, so the float evaluation of its elements keeps its bits;
    # recorded again when the grid axes became bitwise antisymmetric, when
    # the field's norm took the uniform-step trapezoid rule, and when every
    # symmetric axis point became the exactly rounded one
    potential, order = key.split()
    assert run(["evaluate", "--potential", potential, "--order", order,
                "--seed", "fd:z=1", "--hbar", "0.3", "--qrange=-4,4,41",
                "--prange=-4,4,41", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "field.csv").read_bytes()).hexdigest()
    assert digest == FIELD_GOLDEN[key]


def test_diagnose_sweep_csv_matches_golden_digest(tmp_path):
    # SHA-256 of qsweep.csv, recorded before the grid fill took the distinct
    # p^2 of the p axis, and again when the axes became bitwise
    # antisymmetric; this asymmetric p axis repeats no p^2 (test_evaluate
    # covers axes that do)
    assert run(["diagnose", "--potential", "goldstone", "--order", "10",
                "--seed", "fd:chi=1", "--hbar-list", "0.1,0.2,0.3",
                "--qrange=-4,4,101", "--prange=-2.5,3.7,133",
                "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "qsweep.csv").read_bytes()).hexdigest()
    assert digest == FIELD_GOLDEN["qsweep goldstone 10"]


DIAGNOSE_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "diagnose_digests.json").read_text())


@pytest.mark.parametrize("key", sorted(DIAGNOSE_GOLDEN))
def test_readme_field_outputs_match_golden_digest(tmp_path, key):
    # SHA-256 of the sidecar of the README goldstone L=5 field and of the
    # single-hbar diagnose outputs on the same configuration, recorded while
    # the field still carried its run labels, and again when the grid axes
    # became bitwise antisymmetric, when every grid integral took the
    # uniform-step trapezoid rule, and when every default axis point became
    # the exactly rounded one
    command, name = key.split()
    assert run([command, "--potential", "goldstone", "--order", "5",
                "--seed", "fd:z=1", "--hbar", "0.6", "--qrange=-4,4,401",
                "--prange=-4,4,401", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == DIAGNOSE_GOLDEN[key]


EXACT_AXIS_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "exact_axis_digests.json").read_text())


@pytest.mark.parametrize("key", sorted(EXACT_AXIS_GOLDEN))
def test_exact_axis_outputs_match_golden_digest(tmp_path, key):
    # SHA-256 of the evaluate and single-hbar diagnose outputs on a grid
    # whose axis points (-5 + k/2) are all exact in floats, recorded while
    # the axes were still made by np.linspace, and again when every grid
    # integral took the uniform-step trapezoid rule: any exact axis
    # construction gives these points, so the outputs keep their bytes
    command, name = key.split()
    assert run([command, "--potential", "goldstone", "--order", "5",
                "--seed", "fd:z=1", "--hbar", "0.6", "--qrange=-5,5,21",
                "--prange=-5,5,21", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == EXACT_AXIS_GOLDEN[key]


EXPAND_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "expand_digests.json").read_text())


@pytest.mark.parametrize("key", sorted(EXPAND_GOLDEN))
def test_expand_series_file_matches_golden_digest(tmp_path, key):
    # SHA-256 of the indented series.json, recorded while the stdlib's
    # json.dump(..., indent=2) still wrote it
    potential, order = key.split()
    assert run(["expand", "--potential", potential, "--order", order,
                "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "series.json").read_bytes()).hexdigest()
    assert digest == EXPAND_GOLDEN[key]


@pytest.mark.parametrize("hbar_flags", [
    ("evaluate", "--hbar", "1e200"),
    ("diagnose", "--hbar", "1e200"),
    ("diagnose", "--hbar-list", "0.1,1e200"),
    ("verify", "--mode", "numeric", "--hbar-list", "1e50,1e100,1e150,1e200"),
])
def test_hbar_beyond_float_range_is_computation_error(tmp_path, capsys, hbar_flags):
    command, *flags = hbar_flags
    code = run([command, "--potential", "goldstone", "--order", "2", *flags,
                "--qrange=-2,2,11", "--prange=-2,2,11", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "hbar = 1e+" in err and "order-" in err


def test_sweep_hbar_beyond_float_range_fails_before_any_field(tmp_path, capsys):
    # every weight is checked before the fill, so the warning that hbar =
    # 0.1 would print (as in the test below) does not come first, and no
    # file is written
    out = tmp_path / "run"
    code = run(["diagnose", "--potential", "goldstone", "--order", "10",
                "--seed", "fd:chi=1", "--hbar-list", "0.1,1e40",
                "--qrange=-4,4,101", "--prange=-2.5,3.7,133", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: hbar = 1e+40: the order-4 weight")
    assert not out.exists()


def test_sweep_of_any_length_takes_one_fill(tmp_path, monkeypatch):
    # a sweep takes every Q from the order moments of one fill, so a sweep
    # of more hbar values than the L + 1 = 3 orders, and one of the most
    # hbar values a list may hold, take one seed-table pass over the grid's
    # distinct points, as one field does; an hbar beyond the float range
    # still fails before any fill, and writes no file
    flags = ["--potential", "goldstone", "--order", "2", "--qrange=-3,3,41",
             "--prange=-3,3,41"]
    points, fills = [], []
    table = SeedDistribution.derivative_table

    def counting_table(self, H, j_max):
        points.append(np.size(H))
        return table(self, H, j_max)

    def order_moments(*args):
        fills.append(args)
        return evaluate.order_moments(*args)

    monkeypatch.setattr(SeedDistribution, "derivative_table", counting_table)
    monkeypatch.setattr(cli, "order_moments", order_moments)
    assert run(["evaluate", "--hbar", "0.3", *flags, "--out", str(tmp_path / "field")]) == 0
    one_field = sum(points)
    assert one_field == evaluate.order_grids(
        cli.build_series(cli.resolve_potential("goldstone"), 2), SeedDistribution("fd"),
        evaluate.GridSpec(-3.0, 3.0, 41, -3.0, 3.0, 41), 0.3).values.size
    for name, hbars in [("long", [0.1 * n for n in range(1, 8)]),
                        ("most", [0.001 * n for n in range(1, cli.MAX_HBARS + 1)])]:
        points.clear()
        fills.clear()
        out = tmp_path / name
        assert run(["diagnose", "--hbar-list", ",".join(map(repr, hbars)), *flags,
                    "--out", str(out)]) == 0
        assert sum(points) == one_field and len(fills) == 1
        rows = (out / "qsweep.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == hbars
    points.clear()
    fills.clear()
    out = tmp_path / "overflow"
    assert run(["diagnose", "--hbar-list", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,1e200", *flags,
                "--out", str(out)]) == 2
    assert points == [] and fills == [] and not out.exists()


@pytest.mark.parametrize("potential, order, convention, code", [
    ("q^2+cos(pi*q)^16*sin(q)^16", 2, "paper", 2),
    ("cos(pi*q)^63*sin(q)", 2, "paper", 2),
    ("cos(pi*q) + sin(q)", 2, "paper", 2),
    ("cos(pi*q) + sin(q)", 1, "uniform", 2),
    ("cos(pi*q) + sin(q)", 1, "paper", 0),
])
def test_uninvertible_wavenumbers_are_refused_before_the_build(
        tmp_path, capsys, potential, order, convention, code):
    # a quadrature needs 1/k for every wavenumber k its source holds, and a
    # sum such as pi - 1 has none; the first two potentials once ran 133 s
    # and 17 s before that error.  The paper convention runs no quadrature
    # at L = 1, so it builds the same potential.
    start = time.perf_counter()
    assert run(["expand", "--potential", potential, "--order", str(order),
                "--convention", convention, "--out", str(tmp_path)]) == code
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err.splitlines()
    if code:
        assert len(err) == 1 and err[0].startswith(
            "error: constant is not invertible in the coefficient ring (multi-term pi sum: ")
    else:
        assert err == []


@pytest.mark.parametrize("flags", [
    ("--potential", "0-q^4", "--seed", "mb", "--qrange=-10,10,21"),
    ("--potential", "0-q^4", "--seed", "mb", "--qrange=-10,10,21", "--no-normalize"),
    ("--potential", "goldstone", "--seed", "be:z=1e-320", "--qrange=-4,4,21"),
])
def test_overflowing_seed_is_computation_error(tmp_path, capsys, flags):
    # exp(-H) overflows where -q^4 is deep, and expm1(H - ln z) everywhere
    # for z = 1e-320: the field is inf or 0, with no numpy warning, and so
    # are the order moments of a sweep (inf - inf and inf * 0 among them)
    sweep = [f for f in flags if f != "--no-normalize"]
    for argv in (["evaluate", *flags, "--hbar", "0.1"],
                 ["diagnose", *sweep, "--hbar-list", "0,0.1,0.2"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([*argv, "--prange=-4,4,21", "--out", str(tmp_path / "run")])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is not normalizable" in err
        assert not (tmp_path / "run").exists()


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


def test_diagnose_sweep_warns_past_smallest_term(tmp_path, capsys):
    # goldstone L=10: the last term hbar^20 max|F_10| passes the smallest one
    # already at hbar = 0.1; files and stdout do not change.  The single-hbar
    # diagnose and evaluate check the same per-order grids as the sweep.
    flags = ["--potential", "goldstone", "--order", "10", "--seed", "fd:chi=1",
             "--qrange=-4,4,101", "--prange=-2.5,3.7,133"]
    lines = [f"warning: hbar = {hbar}: the order-10 term is {ratio} times the "
             f"smallest, of order {l}; the series is truncated past its smallest term"
             for hbar, ratio, l in (("0.1", "1.71", 9), ("0.2", "17.1", 6),
                                    ("0.3", "962", 4))]
    for i, (argv, expected) in enumerate([
            (["diagnose", "--hbar-list", "0,0.1,0.2,0.3"], lines),
            (["diagnose", "--hbar", "0.2"], lines[1:2]),
            (["evaluate", "--hbar", "0.2"], lines[1:2]),
            (["diagnose", "--hbar", "0"], []),
            (["evaluate", "--hbar", "0"], [])]):
        assert run(argv + flags + ["--out", str(tmp_path / str(i))]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == expected
        assert "warning" not in captured.out


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


RESIDUAL_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "residual_digests.json").read_text())


@pytest.mark.parametrize("key", sorted(RESIDUAL_GOLDEN))
def test_numeric_residual_matches_golden_digest(tmp_path, key):
    # SHA-256 of residual.json, recorded while each exact cell was still
    # read out to floats on its own (the symbolic key, while the CLI still
    # declared each setting in several places); the key is potential, order,
    # seed and the remaining flags
    potential, order, seed, *flags = key.split()
    assert run(["verify", "--potential", potential, "--order", order,
                "--seed", seed, *flags, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "residual.json").read_bytes()).hexdigest()
    assert digest == RESIDUAL_GOLDEN[key]


def test_verify_harmonic_residual_at_roundoff_floor(tmp_path, capsys):
    # the quadratic potential's corrections vanish, so no slope is fitted
    assert run(["verify", "--potential", "q^2/2", "--order", "2", "--mode",
                "numeric", "--seed", "mb", "--out", str(tmp_path)]) == 0
    assert "residuals at roundoff floor (numerically zero)\n" in capsys.readouterr().out


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


def test_deeply_nested_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("[" * 100000 + "]" * 100000)
    assert run(["expand", "--config", str(cfg)]) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_deeply_nested_series_file_is_computation_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert run(["verify", "--series", str(deep),
                "--out", str(tmp_path / "v")]) == 2
    assert "malformed series document" in capsys.readouterr().err


def test_deeply_nested_potential_is_an_error(tmp_path, capsys):
    # 300 levels once overflowed the parser's recursion with a traceback
    message = "parentheses nested deeper than 64 (at position 64)"
    deep = "(" * 300 + "q^2" + ")" * 300
    assert run(["expand", "--potential", deep, "--out", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: invalid configuration:",
                                f"  potential: {message}"]
    assert run(["expand", "--potential", "goldstone", "--order", "1",
                "--out", str(tmp_path / "g")]) == 0
    doc = json.loads((tmp_path / "g" / "series.json").read_text())
    doc["potential"] = "(" * 300 + doc["potential"] + ")" * 300
    (tmp_path / "deep.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", "--series", str(tmp_path / "deep.json"),
                "--out", str(tmp_path / "v")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("chi, shown", [("1e-300", "1e-300"), ("701", "701.0")],
                         ids=["low-end", "high-end"])
def test_fugacity_bracket_failure_is_a_config_error(tmp_path, capsys, chi, shown):
    # z_from_chi doubles its bracket on mu = ln z down to -640 and up to 700,
    # which reaches neither chi = 1e-300 (the low end) nor chi = 701 (the
    # high end, above chi(700) = 700.0012)
    assert run(["evaluate", "--potential", "goldstone", "--order", "1",
                "--hbar", "0.1", "--seed", f"fd:chi={chi}",
                "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid configuration:",
        f"  seed: no fugacity bracket found for chi = {shown}"]


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
    (EVALUATE, [1, 2], "must hold a JSON object"),
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
    (["verify", "--potential", "modulated", "--order", "3", "--j-max", "2"], None,
     "--j-max"),
    (["verify", "--potential", "modulated", "--mode", "symbolic"], None,
     "--mode symbolic"),
    (["verify", "--series", "series.json", "--j-max", "2"], None, "--j-max"),
    (["expand", "--potential", "(q+1)^65"], None, "exponent 65"),
    (["expand", "--potential", "((sin(q)+cos(2*q))^64)^2"], None, "monomial pairs"),
    (EVALUATE + ["--qrange=-3,3,200001"], None, "exceeds 4004001 points"),
    (EVALUATE + ["--qrange=-1e308,1e308,3"], None, "bad grid: the q axis' width"),
    (EVALUATE + ["--prange=-1e306,1e306,2001"], None, "bad grid: the p axis' width"),
    (["expand", "--potential", "goldstone", "--order", "31"], None, "--order"),
    (["verify", "--potential", "modulated", "--order", "1", "--j-max", "32"], None,
     "--j-max"),
    (["expand"], {"potential": "q^40*q^40"}, "x-degree 80 exceeds 64"),
    (EVALUATE + ["--seed", "fd:z=inf"], None, "finite"),
    (["verify", "--potential", "modulated:a=1/2", "--order", "2", "--samples",
      "1000000000000"], None, "--samples must be between 1 and 10000"),
    (["diagnose", "--potential", "goldstone"], {"hbar_list": [0.1] * 1001},
     "--hbar-list may hold at most 1000 values"),
], ids=["order-not-int", "unknown-flag", "no-command", "grid-not-object",
        "config-not-object",
        "flag-given-a-string", "order-float", "order-bool", "unknown-key",
        "flag-of-another-command", "negative-hbar-list", "zero-samples",
        "zero-j-max", "negative-j-max", "infinite-hbar", "infinite-hbar-list",
        "infinite-p-bound", "infinite-q-bound",
        "infinite-grid-in-file", "j-max-below-order", "symbolic-trig",
        "series-j-max-below-order", "exponent-over-cap", "product-over-cap",
        "grid-over-cap", "q-width-overflows", "p-width-overflows", "order-over-cap",
        "j-max-over-cap",
        "product-degree-over-cap-in-file", "infinite-fugacity",
        "samples-over-cap", "hbar-list-over-cap-in-file"])
def test_config_errors_exit_one(tmp_path, monkeypatch, capsys, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if "series.json" in argv:
        assert run(["expand", "--potential", "modulated", "--order", "2",
                    "--out", "."]) == 0
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


FIRST_MONOMIAL = "terms.1.0.ring.0."   # of f_1's first cell
MALFORMED = "malformed series document"


@pytest.mark.parametrize("key, value, message", [
    ("order", 5, "order 5"), ("convention", "bogus", "convention"),
    ("terms", 5, "malformed"), ("potential", 3, "malformed"),
    ("x_ref", "1/0", "malformed"),
    (FIRST_MONOMIAL + "coefficient", [[0, "1/0"]], "malformed"),
    (FIRST_MONOMIAL + "wavenumber", [[0, "1/0"]], "malformed"),
    (FIRST_MONOMIAL + "trig", "tan", "unknown trig function 'tan'"),
    ("order", math.inf, "malformed"), ("terms.1.0.j", math.inf, "malformed"),
    ("terms.1.0.m", math.inf, "malformed"),
    (FIRST_MONOMIAL + "xpow", math.inf, "malformed"),
    ("terms.1.0.j", 2.5, MALFORMED), ("order", 2.9, MALFORMED),
    ("terms.1.0.j", "2", MALFORMED), ("terms.1.0.j", True, MALFORMED),
    ("terms.1.0.j", math.nan, MALFORMED), (FIRST_MONOMIAL + "xpow", 2.7, MALFORMED),
    (FIRST_MONOMIAL + "coefficient", [[0.5, "1"]], MALFORMED),
    (FIRST_MONOMIAL + "coefficient", [[0, 0.1]], MALFORMED),
    (FIRST_MONOMIAL + "coefficient", [[0, "1"], [0, "5"]], MALFORMED),
    ("x_ref", 0, MALFORMED),
    (FIRST_MONOMIAL + "coefficient", [[0, "1e400"]], MALFORMED),
    (FIRST_MONOMIAL + "wavenumber", 0, MALFORMED),
    (FIRST_MONOMIAL + "wavenumber", "", MALFORMED)])
def test_verify_rejects_bad_series_header(tmp_path, capsys, key, value, message):
    # key is a dotted path into the document; list indices are numbers.  An
    # infinity is written as 1e999, which reads back as float infinity; a
    # number where an integer or a ratio string belongs is not truncated or
    # rounded, a ratio is "n" or "n/d" (an exponent has no size bound), a
    # wavenumber is null or a list, and a pi power given twice does not let
    # the last one win
    out = tmp_path / "expand"
    assert run(["expand", "--potential", "goldstone", "--order", "2",
                "--out", str(out)]) == 0
    doc = json.loads((out / "series.json").read_text())
    *path, last = [int(k) if k.isdigit() else k for k in key.split(".")]
    target = doc
    for k in path:
        target = target[k]
    target[last] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc).replace("Infinity", "1e999"))
    assert run(["verify", "--series", str(edited), "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1


# q^2 * pi^64 * ... * pi^64, 12 factors: pi^768 has no float value
PI_768 = "q^2" + "*pi^64" * 12


@pytest.mark.parametrize("potential, message", [
    ("cos(pi^64*q)", "pi^640 is beyond the float range"),
    (PI_768, "coefficient pi^768 is beyond the float range"),
], ids=["trig-wavenumber-power", "pi-power-product"])
def test_float_overflow_exits_two(tmp_path, capsys, potential, message):
    # these used to end in an OverflowError traceback
    assert run(["evaluate", "--potential", potential, "--order", "6",
                "--hbar", "0.1", "--qrange=-1,1,5", "--prange=-1,1,5",
                "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def _cell_at_j_200(doc):
    doc["terms"][2][0]["j"] = 200


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(order=31), "series order 31 exceeds 30"),
    (_cell_at_j_200, "derivative order 200"),
], ids=["order-over-cap", "cell-j-over-3-order"])
def test_verify_series_beyond_order_cap_exits_one(tmp_path, capsys, edit, message):
    # a cell at j = 200 used to end in an OverflowError traceback from the
    # fd seed's j! in float
    out = tmp_path / "expand"
    assert run(["expand", "--potential", "goldstone", "--order", "2",
                "--out", str(out)]) == 0
    doc = json.loads((out / "series.json").read_text())
    edit(doc)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    assert run(["verify", "--series", str(edited), "--seed", "fd:z=1",
                "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_verify_series_provenance_describes_loaded_series(tmp_path):
    out = tmp_path / "expand"
    assert run(["expand", "--potential", "goldstone", "--order", "3",
                "--convention", "uniform", "--out", str(out)]) == 0
    series = json.loads((out / "series.json").read_text())
    assert run(["verify", "--series", str(out / "series.json"),
                "--out", str(tmp_path / "v")]) == 0
    residual = (tmp_path / "v" / "residual.json").read_bytes()
    config = json.loads(residual)["config"]
    assert (config["potential"], config["order"], config["convention"]) == \
        (series["potential"], 3, "uniform")
    # SHA-256 of the whole document, recorded while the CLI still declared
    # each setting in several places
    assert hashlib.sha256(residual).hexdigest() == \
        "85e595db19853bcd6ba1ccc12672a42b9c9f8c7169ce5f04f7e8fff3e58b9e52"


HELP_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_help.json").read_text())


@pytest.mark.parametrize("command", sorted(HELP_GOLDEN))
def test_help_text_and_defaults_match_golden(monkeypatch, capsys, command):
    # each subcommand's --help at 100 columns, and the repr of every value
    # its namespace holds when no flag is given, recorded while the CLI
    # still declared each setting in several places
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exit_:
        cli.make_parser().parse_args([command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == HELP_GOLDEN[command]["help"]
    args = cli.make_parser().parse_args([command])
    assert {k: repr(v) for k, v in sorted(vars(args).items())} == \
        HELP_GOLDEN[command]["defaults"]


def test_readme_command_line_names_every_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    parser = cli.make_parser()
    commands, = (a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.items():
        for action in sub._actions:
            for option in action.option_strings:
                assert re.search(rf"(?<![\w-]){option}(?![\w-])", section), \
                    (command, option)


def test_cli_import_loads_no_scipy():
    code = ("import sys, qvlasov.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
