"""Run-to-run spread of the benchmark, and the reference record.

    python3 hkbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 hkbench/spread.py --seeds 1 2 3 --workloads tune-krr
    python3 hkbench/spread.py --from-log .hkbench-runs/spread-<stamp>.jsonl \
        --reference hkbench/reference.json --trace-seed 1

Runs ``run.py`` once per workload and seed (each in its own process, one after
another), and prints for every end-to-end metric its median and the distance
between its first and third quartile as a share of the median, against the
metric's bound in BENCHMARK.json.  Every run's result line is appended to a
log under ``.hkbench-runs/``; ``--from-log`` reuses one instead of running.
``--reference`` also makes one traced run per workload (unless the log holds
one) and writes the medians, spreads, machine facts, per-layer table and
layer-to-metric map to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".hkbench-runs"

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_EFFECTS = {
    "hyper.assemble_hyper_gram.self_s":
        "fit_s on all three workloads; largest share on tune-krr, most entries on extend-tl1",
    "hyper.assemble_hyper_gram.entries":
        "peak_rss_mb on extend-tl1 and decompose-svr",
    "krr.fit_krr.self_s":
        "fit_s on extend-tl1 (CG) and tune-krr (Cholesky solves); not decompose-svr",
    "learned.eval_pairs.self_s":
        "eval_s on every workload, most on extend-tl1; fit_s on tune-krr; barely fit_s on decompose-svr",
    "pipeline.fit_extend.calls": "fit_s on tune-krr only",
    "pipeline.svm_train.self_s": "fit_s on tune-krr only",
    "scaling.decomposition_bound.self_s": "fit_s on decompose-svr only",
    "svr.fit_svr.self_s": "fit_s on decompose-svr only",
    "cli.main.self_s": "small everywhere; guards fit_s and eval_s",
    "cli.ingest_dataset.self_s": "small everywhere; guards fit_s and eval_s",
    "cli.ingest_kernel_matrix.self_s": "small everywhere; guards eval_s",
    "learned.load_learned.self_s": "small everywhere; guards eval_s against a slower model format",
}


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(ln[len("machine "):]) for ln in lines
                    if ln.startswith("machine ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "returncode": proc.returncode, "run_wall_s": time.perf_counter() - started,
            "machine": machine, "result": result,
            "stderr_tail": proc.stderr[-500:] if proc.returncode else ""}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def summarize(spec, runs) -> dict:
    out = {}
    for wl in spec["workloads"]:
        mine = [r for r in runs if r["workload"] == wl["name"] and r["trace"] == 0]
        if not mine:
            continue
        row = {"seeds": [r["seed"] for r in mine],
               "all_correct": all(r["result"] and r["result"]["correct"] for r in mine),
               "run_wall_s_max": max(r["run_wall_s"] for r in mine)}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in mine
                      if r["result"] and r["result"]["metrics"][metric["name"]]["value"] is not None]
            if len(values) >= 2:
                row[metric["name"]] = spread(values)
        out[wl["name"]] = row
    return out


def print_summary(spec, summary):
    for name, row in summary.items():
        print(f"{name}: {len(row['seeds'])} runs, all correct: {row['all_correct']}, "
              f"longest run {row['run_wall_s_max']:.1f} s")
        for metric in spec["end_to_end"]:
            s = row.get(metric["name"])
            if s is None:
                print(f"  {metric['name']:14s} missing")
                continue
            bound = metric["bound"]
            verdict = ("not gated" if metric["name"] == "setup_s"
                       else "ok" if s["spread"] < bound / 3
                       else "within bound" if s["spread"] <= bound else "OVER BOUND")
            print(f"  {metric['name']:14s} median {s['median']:.6g} {metric['unit']:5s} "
                  f"spread {s['spread']:.4f} bound {bound}  {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--from-log", type=Path, nargs="+",
                        help="summarize these logs instead of running")
    parser.add_argument("--reference", type=Path, help="write the reference record here")
    parser.add_argument("--trace-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    RUNS.mkdir(exist_ok=True)

    if args.from_log:
        runs = [json.loads(ln) for log in args.from_log for ln in log.read_text().splitlines()]
        log = args.from_log[-1]
    else:
        runs = []
        log = RUNS / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.jsonl"
        print(f"logging to {log}")
        for name in names:
            for seed in args.seeds:
                rec = run_once(name, seed, seconds, 0)
                runs.append(rec)
                with open(log, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                ok = rec["result"] and rec["result"]["correct"]
                print(f"{name} seed {seed}: exit {rec['returncode']}, correct {ok}, "
                      f"{rec['run_wall_s']:.1f} s", flush=True)
    summary = summarize(spec, runs)
    print_summary(spec, summary)

    if args.reference:
        traced = {r["workload"]: r for r in runs if r["trace"] == 1}
        for name in names:
            if name in traced:
                continue
            rec = run_once(name, args.trace_seed, seconds, 1)
            with open(log, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            traced[name] = rec
            print(f"{name} traced seed {args.trace_seed}: exit {rec['returncode']}", flush=True)
        write_reference(args.reference, spec, seconds, runs, summary, traced)
    bad = [r for r in runs if not (r["result"] and r["result"]["correct"])]
    return 1 if bad else 0


def write_reference(path, spec, seconds, runs, summary, traced):
    sys.path.insert(0, str(HERE))
    import workloads

    machine = next(r["machine"] for r in runs if r["machine"])
    doc = {
        "about": "Reference numbers of the benchmark on the commit in machine.commit; "
                 "medians and quartile spreads over one run per seed, per workload.",
        "machine": machine,
        "run_seconds": seconds,
        "workloads": [
            {"name": w["name"], "why": w["why"],
             "seed_argument": "--seed N; operation k draws its inputs from "
                              "numpy SeedSequence([N, k]), operation 0 is the warm-up",
             "sizes": workloads.SIZES[w["name"]][0]}
            for w in spec["workloads"]
        ],
        "end_to_end": spec["end_to_end"],
        "per_layer_units": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "layer_effects": LAYER_EFFECTS,
        "results": summary,
        "traced": {
            name: {"seed": rec["seed"], "correct": bool(rec["result"] and rec["result"]["correct"]),
                   "metrics": {k: v["value"] for k, v in rec["result"]["metrics"].items()}
                   if rec["result"] else None}
            for name, rec in traced.items()
        },
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"reference written to {path}")


if __name__ == "__main__":
    sys.exit(main())
