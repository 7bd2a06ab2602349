"""Property tests over ``cli.main``: whatever a setting holds and however an
input file is damaged, a run exits 0, 2 or 3, raises nothing, and says why it
failed on one line of stderr.

Runs stay tiny (20 points, two grid points, rate studies of 4 and 6 points
over 3 trials, no large C), so that the setting search can try every
(command, method, setting, value) case.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklearn.cli import COMMANDS, SETTINGS, main

# The values each drawn setting may take: negative, zero, below every scale,
# and of the wrong JSON type
POOL = (-1, 0, 1e-300, -0.5, "x", True, [])
# Settings that keep each command's valid runs small
BASE = {
    "fit": {"sigma_h2_grid": [1.0], "reg_grid": [0.1, 1.0]},
    "rate-study": {"m_values": [4, 6], "trials": 3},
}
# (command, method, key): every setting of every command's row, per method
TRIPLES = [
    (command, method, key)
    for command in COMMANDS
    for method in (("krr", "svr") if command in SETTINGS["method"][2].split() else (None,))
    for key, (_, _, readers) in SETTINGS.items() if command in readers.split()
]
# Tokens that replace one token of an input file
TOKENS = ("x", "", "nan", "inf", "1e999", "1e308", "-", "1.5.2", "true", "null", "[]", "{", ",")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory with a labeled 20-point ``data.csv``, its gaussian kernel
    matrix ``k.csv`` and the ``model/model.json`` that ``extend`` fits on five
    of its points."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(0.0, 0.4, (10, 2)), rng.normal(3.0, 0.4, (10, 2))])
    labels = np.repeat([1.0, -1.0], 10)
    rows = np.column_stack([X, labels])
    data, small = root / "data.csv", root / "small.csv"
    np.savetxt(data, rows, delimiter=",", fmt="%.17g")
    np.savetxt(small, rows[[0, 1, 2, 10, 11]], delimiter=",", fmt="%.17g")
    gaps = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.savetxt(root / "k.csv", np.exp(-0.5 * gaps), delimiter=",", fmt="%.17g")
    assert _run(["extend", str(small), "--output-dir", str(root / "model")]) == 0
    return root


def _run(argv):
    """main's exit code, after checking the property every run must hold."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 2, 3), (argv, code, message)
    if code:
        assert message.count("\n") == 1 and message.startswith(
            ("error: ", "numerical failure: ")
        ), (argv, message)
    return code


def _argv(command, root, config, damaged=None):
    """The argv of ``command`` on the inputs under ``root``, with ``config``
    as its config file and, when given, ``damaged`` = (input name, bytes) in
    place of that input; a damaged ``k.csv`` goes in as ``--kernel-matrix``."""
    paths = {name: str(root / name) for name in ("data.csv", "model/model.json", "k.csv")}
    if damaged is not None:
        name, raw = damaged
        paths[name] = str(root / f"case_{Path(name).name}")
        Path(paths[name]).write_bytes(raw)
    (root / "case.json").write_text(json.dumps(config))
    argv = [command]
    if command != "rate-study":
        argv.append(paths["data.csv"])
    if command == "eval":
        argv += ["--model", paths["model/model.json"]]
    if damaged is not None and damaged[0] == "k.csv":
        argv += ["--kernel-matrix", paths["k.csv"]]
    return argv + ["--config", str(root / "case.json"), "--output-dir", str(root / "out")]


# as many examples as there are cases, so that the search tries every one
@settings(max_examples=len(TRIPLES) * len(POOL))
@given(triple=st.sampled_from(TRIPLES), value=st.sampled_from(POOL))
def test_any_value_of_one_setting_exits_0_2_or_3(inputs, triple, value):
    command, method, key = triple
    config = dict(BASE.get(command, {}), **({"method": method} if method else {}))
    config[key] = value
    _run(_argv(command, inputs, config))


def _damage(raw, draw):
    """``raw`` cut short, with one of its tokens replaced, or with one byte
    replaced or inserted (a byte from 0x80 up leaves the text not UTF-8)."""
    how = draw(st.sampled_from(["cut", "token", "byte"]))
    if how == "cut":
        return raw[: draw(st.integers(0, max(len(raw) - 1, 0)))]
    if how == "byte":
        at = draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + draw(st.integers(0, 1)):]
    text = raw.decode()
    spans = [m.span() for m in re.finditer(r"[^\s,:\[\]{}\"]+", text)]
    a, b = spans[draw(st.integers(0, len(spans) - 1))]
    return (text[:a] + draw(st.sampled_from(TOKENS)) + text[b:]).encode()


@settings(max_examples=200)
# every command but rate-study, which reads no file
@given(command=st.sampled_from([c for c in COMMANDS if c != "rate-study"]), data=st.data())
def test_a_damaged_csv_or_model_file_exits_0_2_or_3(inputs, command, data):
    draw = data.draw
    names = ["data.csv", "k.csv"] + (["model/model.json"] if command == "eval" else [])
    name = draw(st.sampled_from(names))
    raw = _damage((inputs / name).read_bytes(), draw)
    _run(_argv(command, inputs, BASE.get(command, {}), damaged=(name, raw)))
