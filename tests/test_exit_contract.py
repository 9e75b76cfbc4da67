"""The exit contract under generated input: cli.main returns 0 to 3 and
raises nothing, exits 1 and 2 print exactly one error: line, and every run
ends within a time cap.  The inputs are series documents with one or two
leaves replaced or deleted, for verify --series, and odd flags for the
field commands.  A fixed seed and example count keep the runs the same."""

import contextlib
import io
import json
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qvlasov.cli import main

# Seconds one run may take: the slowest of these inputs take a fraction of
# a second, and an unbounded build or fill takes far longer.
CAP_S = 10.0


def _contract(argv) -> None:
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < CAP_S
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert not any(line.startswith("Traceback") for line in lines)
    if code in (1, 2):
        assert sum(line.startswith("error:") for line in lines) == 1


@pytest.fixture(scope="module")
def series_docs(tmp_path_factory):
    """Small series documents as expand writes them: a polynomial one, which
    verify checks symbolically, and a trigonometric one, checked numerically."""
    docs = []
    for potential in ("goldstone", "q^2/2 + cos(q)/4"):
        out = tmp_path_factory.mktemp("series")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["expand", "--potential", potential, "--order", "1",
                         "--out", str(out)]) == 0
        docs.append(json.loads((out / "series.json").read_text()))
    return docs


def _leaves(doc, path=()):
    """The paths to the scalars and empty containers of a JSON document."""
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    found = [leaf for key, value in children for leaf in _leaves(value, path + (key,))]
    return found or [path]


ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.sampled_from(["1/0", "-3/2", "2/4", "pi", "sin", "tan", "0x1", "1e999"]),
    st.sampled_from([[], {}, [[0, "1"]], [[1, "1/2"], [1, "1"]], {"xpow": 0}]))


@settings(max_examples=60, deadline=None, database=None)
@seed(20231019)
@given(st.data())
def test_verify_of_a_mutated_series_keeps_the_exit_contract(series_docs, data):
    doc = json.loads(json.dumps(series_docs[data.draw(st.integers(0, 1))]))
    for _ in range(data.draw(st.integers(1, 2))):
        *parents, last = data.draw(st.sampled_from(_leaves(doc)))
        owner = doc
        for key in parents:
            owner = owner[key]
        if data.draw(st.booleans()):
            del owner[last]
        else:   # a copy, so that a later edit leaves the drawn value alone
            owner[last] = json.loads(json.dumps(data.draw(ODD_VALUES)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.json"
        path.write_text(json.dumps(doc))
        _contract(["verify", "--series", str(path), "--out", str(Path(tmp) / "out")])


# Each flag's usual values, then its odd ones.
FIELD_FLAGS = {
    "--potential": (["goldstone", "quartic", "q^2", "-q^4", "1 - q", "cos(q)^4",
                     "cos(pi*q) + sin(q)", "modulated:a=1/2"],
                    ["0", "q^", "1/q", "exp(q)", "q^100000", ""]),
    "--order": (["0", "1", "2", "3"], ["-1", "31", "x"]),
    "--seed": (["mb", "fd:z=1", "be:z=0.5", "fd:chi=1"],
               ["be:z=1", "fd:z=-1", "be:z=1e-320", "fd:z=nan", "xx"]),
    "--hbar": (["0", "0.3", "1"], ["-1", "nan", "inf", "1e40", "1e200", "x"]),
    "--hbar-list": (["0.1,0.2", "0,0.5,1", "0.3,0.3"], ["0,1e40", "0.5,nan", ","]),
    "--qrange": (["-3,3,11", "-1,1,2", "-2.5,3.7,7"],
                 ["3,-3,11", "-3,3,1", "nan,1,5", "-40,40,9", "-1e300,1e300,5", "-3,3"]),
    "--prange": (["-3,3,11", "-2.5,3.7,7"], ["-1,1,0", "-inf,1,5", "x"]),
}


@settings(max_examples=60, deadline=None, database=None)
@seed(20231019)
@given(st.data())
def test_field_commands_with_odd_flags_keep_the_exit_contract(data):
    command = data.draw(st.sampled_from(["evaluate", "diagnose"]))
    argv = [command]
    for flag, (usual, odd) in FIELD_FLAGS.items():
        pick = data.draw(st.integers(0, 9))     # one time in ten each: odd, left out
        if pick:
            values = odd if pick == 1 else usual
            argv.append(f"{flag}={data.draw(st.sampled_from(values))}")
    if command == "evaluate" and data.draw(st.booleans()):
        argv.append("--no-normalize")
    with tempfile.TemporaryDirectory() as tmp:
        _contract(argv + ["--out", str(Path(tmp) / "out")])


@pytest.mark.parametrize("command", [["evaluate", "--hbar", "0.3"],
                                     ["diagnose", "--hbar", "0.3"],
                                     ["diagnose", "--hbar-list", "0.3"]])
def test_a_fill_past_the_float_range_prints_one_error_line(tmp_path, command):
    # V(q) overflows at q = +-1e300; numpy's float warnings used to come first
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(command + ["--potential", "goldstone", "--qrange=-1e300,1e300,3",
                               "--prange=-3,3,3", "--out", str(tmp_path)])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
