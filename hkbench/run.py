"""The hklearn benchmark.

    python3 hkbench/run.py --workload extend-tl1 --seed 1 --seconds 30 --trace 0

runs one workload in this process with a single closed-loop client: every
operation is a fit command and an ``eval`` of the saved model, each a call of
``hklearn.cli.main(argv)`` in-process on input files generated from the seed,
and the next operation starts only after the previous one finished and its
outputs were checked.  The package is imported from ``src/`` next to this
directory, with no install step.  Without ``--workload`` every workload named
in BENCHMARK.json runs, each in its own process.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
is a separate run: it runs every operation untraced and traced, and reports
the per-layer metrics from spans recorded by wrappers around the package's
public functions (see spans.py); the spans are written to
``.hkbench-runs/trace-<workload>-seed<seed>.json``.

Every metric prints as ``metric <name> <value> <unit>``, and the last stdout
line is one JSON object with the keys correct, attempted, failed and metrics.
Exit code 0 when every check passed, 1 when one failed, 2 when the package
cannot be found or imported.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".hkbench-runs"

SETUP_PROBES = 2  # set-ups in fresh processes, besides this process's own
MIN_OPS = 11  # the tail is the highest percentile with ten samples beyond it
CHILD_TIMEOUT_S = 60  # a set-up probe takes seconds; the whole run must end within 180 s


class SetupError(Exception):
    """The package under test cannot be found or imported."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def import_package():
    """Import numpy and hklearn.cli from this checkout's src/."""
    if not (SRC / "hklearn" / "__init__.py").is_file():
        raise SetupError(f"no hklearn package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import hklearn.cli as cli
    except ImportError as exc:
        raise SetupError(f"cannot import hklearn: {exc}") from exc
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"hklearn imported from {cli.__file__}, not from {SRC}")
    return numpy, cli


def machine_facts(np) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _blas_threads(np):
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the package sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hklearn").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def tail(values):
    """(value, percentile, n): the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < MIN_OPS:
        return None
    rank = n - MIN_OPS  # ordered[rank] has n - 1 - rank = 10 samples above it
    return ordered[rank], 100.0 * (rank + 1) / n, n


def execute(cli, workloads, workload, op) -> dict:
    """Run one operation; return its timings, quality facts and errors."""
    rec = {"op": op.index, "errors": [], "facts": {}}
    for name, argv in (("fit", op.fit_argv), ("eval", op.eval_argv)):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)  # looked up per call, so an installed wrapper runs
        except Exception as exc:  # a traceback is a failed operation, not a crash
            rec["errors"].append(f"{name} raised {type(exc).__name__}: {exc}")
            return rec
        finally:
            rec[f"{name}_s"] = time.perf_counter() - t0
        if rc != 0:
            rec["errors"].append(f"{name} exited with code {rc}")
            return rec
    try:
        rec["facts"], errors = workloads.check_outputs(workload, op)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
    rec["errors"].extend(errors)
    return rec


def setup(args, workdir):
    """Import, generate op 0's inputs and run it untimed; return what it left."""
    np, cli = import_package()
    import workloads

    op = workloads.prepare(args.workload, args.seed, 0, workdir / "op0", args.quick)
    rec = execute(cli, workloads, args.workload, op)
    setup_s = time.perf_counter() - STARTED
    reports = workloads.report_texts(op) if not rec["errors"] else {}
    return np, cli, workloads, setup_s, rec, reports


def probe_setups(args, reports) -> tuple[list, list]:
    """Set up in fresh processes; each replays op 0 and must match its reports."""
    times, errors = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"] + (["--quick"] if args.quick else [])
    for i in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        label = f"set-up probe {i}"
        if proc.returncode != 0 or not lines:
            errors.append((label, f"exited {proc.returncode}: {proc.stderr.strip()[-300:]}"))
            continue
        probe = json.loads(lines[-1])
        times.append(probe["setup_s"])
        errors.extend((label, e) for e in probe["errors"])
        if not probe["errors"] and probe["reports"] != reports:
            errors.append((label, "report.json differs from this process's beyond the timestamp"))
    return times, errors


def end_to_end(setups, ok, rss_mb) -> tuple[dict, dict]:
    """Values and notes of the end-to-end metrics over the operations that passed."""
    fit = [r["fit_s"] for r in ok]
    ev = [r["eval_s"] for r in ok]
    notes = {"setup_s": f"median of {len(setups)} set-ups"}
    values = {
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": rss_mb,
        "heldout_rmse": (statistics.fmean(r["facts"]["heldout_rmse"] for r in ok)
                         if ok else None),
    }
    notes["heldout_rmse"] = f"mean of {len(ok)} operations"
    for name, samples in (("fit_s", fit), ("eval_s", ev)):
        values[name] = statistics.median(samples) if samples else None
        notes[name] = f"median of {len(samples)}"
        t = tail(samples)
        values[f"{name}_tail"] = t[0] if t else None
        notes[f"{name}_tail"] = (f"p{t[1]:.0f} of {t[2]}, 10 samples beyond" if t
                                 else f"undefined: {len(samples)} samples")
    return values, notes


def execute_traced(cli, workloads, workload, op, tracer, traced_first) -> dict:
    """Run op untraced and traced on the same inputs, in the given order.

    The traced record carries the untraced fit time, so the tracing overhead
    is a paired difference; the KRR residuals are checked after both runs.
    """
    runs = {}
    for traced in (True, False) if traced_first else (False, True):
        if traced:
            tracer.op = op.index
            tracer.install()
        try:
            runs[traced] = execute(cli, workloads, workload, op)
        finally:
            if traced:
                tracer.uninstall()
    rec = runs[True]
    worst, errors = tracer.check_krr_solves()
    rec["facts"]["max_rel_residual"] = worst
    rec["errors"] += errors + [f"untraced run: {e}" for e in runs[False]["errors"]]
    rec["untraced_fit_s"] = runs[False].get("fit_s")
    return rec


def per_layer(spec, tracer, traced, spans_mod) -> tuple[dict, list, dict]:
    walls = {r["op"]: r["fit_s"] + r["eval_s"] for r in traced}
    spans = [s for s in tracer.spans if s.op in walls]  # failed ops are left out
    table, self_by_op, uncovered = spans_mod.layer_table(spans, walls)
    errors = []
    for op, wall in walls.items():
        if abs(self_by_op[op] + uncovered[op] - wall) > 1e-9 * wall:
            errors.append((op, f"self times + uncovered {self_by_op[op] + uncovered[op]!r} "
                               f"!= wall {wall!r}"))
    n = max(len(traced), 1)
    values = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name == "trace.overhead_s":
            values[name] = (statistics.median(r["fit_s"] - r["untraced_fit_s"] for r in traced)
                            if traced else None)
        elif name == "trace.uncovered_s":
            values[name] = statistics.fmean(uncovered.values()) if traced else None
        else:
            layer, stat = name.rsplit(".", 1)
            row = table.get(layer, {})
            if stat == "max_rel_residual":
                values[name] = max((r["facts"].get("max_rel_residual", 0.0) for r in traced),
                                   default=0.0)
            elif stat == "support_ratio":
                values[name] = row.get("support", 0) / row["unknowns"] if row else 0.0
            else:
                values[name] = row.get(stat, 0) / n
    return values, errors, table


def print_metrics(entries, values, notes):
    for entry in entries:
        name, unit = entry["name"], entry["unit"]
        value = values.get(name)
        note = notes.get(name, "")
        print(f"metric {name} {value!r} {unit}" + (f"  ({note})" if note else ""))


def run_workload(args, spec) -> int:
    workdir = RUNS / f"work-{args.workload}-{os.getpid()}"
    try:
        np, cli, workloads, setup_s, warm, reports = setup(args, workdir)
        if args.probe_setup:
            print(json.dumps({"setup_s": setup_s, "errors": warm["errors"],
                              "reports": reports}))
            return 0
        return _measure(args, spec, np, cli, workloads, setup_s, warm, reports, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, spec, np, cli, workloads, setup_s, warm, reports, workdir) -> int:
    import spans as spans_mod

    facts = machine_facts(np)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' quick' if args.quick else ''}")
    print("machine " + json.dumps(facts, sort_keys=True))

    failures = [("warm-up", e) for e in warm["errors"]]
    attempted = 1
    setups = [setup_s]
    if not args.trace:
        probe_times, probe_errors = probe_setups(args, reports)
        setups += probe_times
        attempted += SETUP_PROBES
        failures += probe_errors

    tracer = spans_mod.Tracer() if args.trace else None
    records = []
    min_ops = 1 if args.trace else MIN_OPS
    started = time.perf_counter()
    k = 1
    while len(records) < min_ops or time.perf_counter() - started < args.seconds:
        op = workloads.prepare(args.workload, args.seed, k, workdir / "op",
                               args.quick, corrupt=(k == args.corrupt_op))
        if tracer is None:
            rec = execute(cli, workloads, args.workload, op)
        else:
            rec = execute_traced(cli, workloads, args.workload, op, tracer, k % 2 == 0)
        records.append(rec)
        attempted += 1
        failures += [(k, e) for e in rec["errors"]]
        shutil.rmtree(workdir / "op")
        k += 1

    ok = [r for r in records if not r["errors"]]
    failed_ops = len({op for op, _ in failures})
    if args.trace:
        values, errors, table = per_layer(spec, tracer, ok, spans_mod)
        failures += errors
        failed_ops = len({op for op, _ in failures})
        entries, notes = spec["per_layer"], {}
        _print_layer_table(table, ok)
        out = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "machine": facts, "workload": args.workload, "seed": args.seed,
            "per_layer": values, "table": table,
            "op_walls": {r["op"]: r["fit_s"] + r["eval_s"] for r in ok},
            "spans": [asdict(s) for s in tracer.spans],
        }) + "\n")
        print(f"spans written to {out}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values, notes = end_to_end(setups, ok, rss_mb)
        entries = spec["end_to_end"]

    print_metrics(entries, values, notes)
    print(f"metric failed_ops_ratio {failed_ops / attempted!r} ratio  "
          f"({failed_ops} of {attempted} operations failed)")
    _print_workload_facts(args.workload, ok)
    for op, error in failures:
        print(f"failed op {op}: {error}")

    correct = not failures and all(values.get(e["name"]) is not None for e in entries)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {e["name"]: {"value": values.get(e["name"]), "unit": e["unit"]}
                    for e in entries},
    }))
    return 0 if correct else 1


def _print_layer_table(table, traced):
    total = sum(r["fit_s"] + r["eval_s"] for r in traced) or 1.0
    print(f"layer self time over {len(traced)} traced operations:")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:32s} {row['calls']:8d} calls {row['self_s']:10.4f} s "
              f"{100.0 * row['self_s'] / total:5.1f}%")


def _print_workload_facts(workload, ok):
    if workload == "tune-krr" and ok:
        acc = statistics.fmean(r["facts"]["test_accuracy"] for r in ok)
        print(f"metric test_accuracy {acc!r} ratio  (mean of {len(ok)} operations)")
    if workload == "decompose-svr" and ok:
        bounds = [r["facts"]["bound"] for r in ok]
        sigma = statistics.median(r["facts"]["sigma_min"] for r in ok)
        print(f"decomposition bound {bounds.count('inf')} of {len(bounds)} operations "
              f"report 'inf'; median sigma_min {sigma!r}")


def run_all(args, spec) -> int:
    """Run every workload in its own process and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{wl['name']}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload of BENCHMARK.json; all when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; run_seconds of BENCHMARK.json when omitted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny problem sizes, for the self-test")
    parser.add_argument("--corrupt-op", type=int, default=None,
                        help="give op K a malformed kernel-matrix csv (self-test)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.workload is None:
            return run_all(args, spec)
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        return run_workload(args, spec)
    except SetupError as exc:
        print(f"hkbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
