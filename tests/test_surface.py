"""The package surface: public names have real callers, private names stay private.

A name exported by ``hklearn/__init__.py`` counts as used when the package
itself or the benchmark (``hkbench/``) refers to it beyond its definition and
export, or when ``tests/test_acceptance.py`` imports it.  Reference oracles
that only tests call live under ``tests/``, not in the package.  A
``_``-prefixed name belongs to its module: no other module of the package
imports it.  The functions the benchmark's span wrappers replace by name, and
the arguments their counters read, exist in the package, each counter reads
a real call, and the traced benchmark run passes on every workload.  Every field of a solve config is a
setting that a command reads.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hklearn"


def _imported_names(path, module_prefix=""):
    """Names bound by ``from ... import`` statements of a file."""
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith(module_prefix)
        for alias in node.names
    }


def _references(paths):
    """Names, attributes and string constants used in the given files.

    Definitions and imports bind a name without using it, so they add nothing.
    """
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def test_every_export_has_a_caller_outside_the_unit_tests():
    exports = _imported_names(PACKAGE / "__init__.py")
    assert {"fit_krr", "eval_pairs", "PairSystem", "InvalidInput"} <= exports
    modules = [p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py"]
    used = _references(modules + sorted((ROOT / "hkbench").glob("*.py")))
    used |= _imported_names(ROOT / "tests" / "test_acceptance.py", "hklearn")
    unused = sorted(exports - used)
    assert not unused, f"exported but called only from unit tests: {unused}"


def test_no_module_imports_a_private_name_of_another():
    leaks = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("hklearn"):
                continue  # a third-party module
            leaks += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert not leaks, f"private names imported across modules: {leaks}"


def test_benchmark_layers_resolve_with_the_arguments_their_counters_bind():
    layers = next(
        ast.literal_eval(node.value)
        for node in ast.parse((ROOT / "hkbench" / "spans.py").read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "LAYERS"
    )
    missing = [
        f"{module}.{name}" for module, name in layers
        if not callable(getattr(importlib.import_module(f"hklearn.{module}"), name, None))
    ]
    assert not missing, f"benchmark layers missing from hklearn: {missing}"
    # the argument names the span counters read through Signature.bind
    bound = {
        ("krr", "fit_krr"): {"gram", "responses", "config"},
        ("svr", "fit_svr"): {"gram"},
        ("learned", "eval_pairs"): {"lk", "A"},
    }
    assert set(bound) <= set(layers)
    for (module, name), arguments in bound.items():
        fn = getattr(importlib.import_module(f"hklearn.{module}"), name)
        assert arguments <= set(inspect.signature(fn).parameters), f"{module}.{name}"


def test_every_benchmark_counter_reads_a_real_call(monkeypatch):
    # the traced run calls no eval_pairs, so its counter is run here, with
    # every other counter, on a small call through the installed wrappers
    from hklearn import GaussianRBF, HyperKernelParams, LearnedKernel, PairSystem
    from hklearn.krr import KrrConfig
    from hklearn.svr import SvrConfig

    spec = importlib.util.spec_from_file_location("hkbench_spans", ROOT / "hkbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    X = np.random.default_rng(0).uniform(0.0, 1.0, (4, 2))
    params = HyperKernelParams(0.5, 0.5, 2)
    y = np.exp(-((X[:, None] - X[None]) ** 2).sum(-1)).ravel()
    # through the module attributes, which the tracer replaces
    krr, svr, learned, base_kernels, hyper = (
        importlib.import_module(f"hklearn.{name}")
        for name in ("krr", "svr", "learned", "base_kernels", "hyper"))

    def fit():
        return krr.fit_krr(PairSystem(params, X), y, KrrConfig(1e-3))

    calls = {
        "base_kernels.gram_matrix": lambda: base_kernels.gram_matrix(GaussianRBF(1.0), X),
        "hyper.assemble_hyper_gram": lambda: hyper.assemble_hyper_gram(params, X),
        "krr.fit_krr": fit,
        "svr.fit_svr": lambda: svr.fit_svr(PairSystem(params, X), y, SvrConfig(C=1.0)),
        "learned.eval_pairs": lambda: learned.eval_pairs(LearnedKernel(fit(), 0.0),
                                                         X[:3], X[1:]),
    }
    assert set(calls) == set(spans.COUNTERS)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for call in calls.values():
            call()
    finally:
        tracer.uninstall()
    counts = {s.name: s.counts for s in tracer.spans}
    assert counts["base_kernels.gram_matrix"] == {"entries": 16}
    assert counts["hyper.assemble_hyper_gram"]["entries"] == 256
    assert counts["krr.fit_krr"] == {"unknowns": 16}
    assert counts["svr.fit_svr"]["unknowns"] == 16
    assert counts["learned.eval_pairs"] == {"queries": 3, "query_terms": 3 * 16}
    worst, errors = tracer.check_krr_solves()
    assert not errors and worst <= spans.DIRECT_RESIDUAL_TOL


def test_traced_benchmark_passes_on_every_workload():
    # the span wrappers read names and fields of the package that no other
    # test pins down, so a run of them is the check that they still resolve
    proc = subprocess.run(
        [sys.executable, str(ROOT / "hkbench" / "run.py"), "--quick", "--trace", "1",
         "--seconds", "0.5", "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0


def test_every_solve_config_field_is_a_setting_with_the_same_default():
    from hklearn.cli import SETTINGS
    from hklearn.krr import KrrConfig
    from hklearn.svr import SvrConfig

    keys = {"lam": "lambda"}  # field name -> settings key, where they differ
    fields = [f for config in (KrrConfig, SvrConfig) for f in dataclasses.fields(config)]
    unset = [f.name for f in fields if keys.get(f.name, f.name) not in SETTINGS]
    assert not unset, f"solve config fields that no command sets: {unset}"
    for f in fields:
        if f.default is not dataclasses.MISSING:
            assert SETTINGS[f.name][0] == f.default, f.name
