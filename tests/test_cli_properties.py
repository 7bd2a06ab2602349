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
    """A directory with a labeled 20-point ``data.csv`` and the ``model/model.json``
    that ``extend`` fits on five of its points."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(0.0, 0.4, (10, 2)), rng.normal(3.0, 0.4, (10, 2))])
    labels = np.repeat([1.0, -1.0], 10)
    rows = np.column_stack([X, labels])
    data, small = root / "data.csv", root / "small.csv"
    np.savetxt(data, rows, delimiter=",", fmt="%.17g")
    np.savetxt(small, rows[[0, 1, 2, 10, 11]], delimiter=",", fmt="%.17g")
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


def _argv(command, root, config, data=None, model=None):
    """The argv of ``command`` on the inputs under ``root``, with ``config``
    as its config file and, when given, replaced dataset or model text."""
    paths = {}
    for name, text in (("data.csv", data), ("model.json", model)):
        if text is not None:
            (root / f"case_{name}").write_text(text)
            paths[name] = str(root / f"case_{name}")
    (root / "case.json").write_text(json.dumps(config))
    argv = [command]
    if command != "rate-study":
        argv.append(paths.get("data.csv", str(root / "data.csv")))
    if command == "eval":
        argv += ["--model", paths.get("model.json", str(root / "model" / "model.json"))]
    return argv + ["--config", str(root / "case.json"), "--output-dir", str(root / "out")]


# as many examples as there are cases, so that the search tries every one
@settings(max_examples=len(TRIPLES) * len(POOL))
@given(triple=st.sampled_from(TRIPLES), value=st.sampled_from(POOL))
def test_any_value_of_one_setting_exits_0_2_or_3(inputs, triple, value):
    command, method, key = triple
    config = dict(BASE.get(command, {}), **({"method": method} if method else {}))
    config[key] = value
    _run(_argv(command, inputs, config))


def _damage(text, draw):
    """``text`` cut short, or with one of its tokens replaced."""
    if draw(st.booleans()):
        return text[: draw(st.integers(0, max(len(text) - 1, 0)))]
    spans = [m.span() for m in re.finditer(r"[^\s,:\[\]{}\"]+", text)]
    a, b = spans[draw(st.integers(0, len(spans) - 1))]
    return text[:a] + draw(st.sampled_from(TOKENS)) + text[b:]


@settings(max_examples=100)
# every command but rate-study, which reads no file
@given(command=st.sampled_from([c for c in COMMANDS if c != "rate-study"]), data=st.data())
def test_a_damaged_csv_or_model_file_exits_0_2_or_3(inputs, command, data):
    draw = data.draw
    config = BASE.get(command, {})
    if command == "eval" and draw(st.booleans()):
        model = _damage((inputs / "model" / "model.json").read_text(), draw)
        argv = _argv(command, inputs, config, model=model)
    else:
        data_csv = _damage((inputs / "data.csv").read_text(), draw)
        argv = _argv(command, inputs, config, data=data_csv)
    _run(argv)
