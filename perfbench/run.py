"""The gliderbs benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE_DIR NEW_DIR

Run from the root of a checkout.  One run:

1. generates the inputs of workload W from seed N in its own process
   (`gen.py`), into `.perfbench/<W>-<N>/`;
2. with `--trace 0`: starts a fresh single-threaded process (`worker.py`)
   that imports the library, builds the shared state and runs a closed
   loop with one caller for S seconds, timing each op and checking its
   result outside the timed region; four more fresh processes only set up,
   and `setup_s` is the median of the five set-up times;
3. with `--trace 1`: the worker runs S/2 seconds untraced, then the same
   ops with spans around the layer functions (the ratio of the two
   throughputs is the tracing overhead), and a separate fresh process
   counts the exact work of the first ops (`layers.Counter`).

It prints every metric by name with its unit, writes the full record to
`.perfbench/results/`, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Times are scaled to a reference speed of the host.  The host's speed
drifts by up to 25% within seconds, more than the changes the benchmark is
meant to show.  So each measuring process also times `worker.calibration_s`
(fixed exact-arithmetic work that runs no library code) every quarter
second between ops, and each op's time is multiplied by
`worker.CALIBRATION_REF_S` over the mean of the calibrations just before
and after it; a set-up time is scaled by the median calibration of its
process.  The unscaled values and the calibration are printed and kept in
the result file.

A failed op is a library error (`GbsError`), a wrong result, or a missed
per-op deadline; it counts in `failed`, by kind in the result file, and
its time counts in `ops_per_s`.  `correct` is false when a check could not
reach a verdict for a reason other than the library's own failure, i.e.
when the benchmark's checking is broken.

`--compare` reads the result files of two sets of runs and prints, per
workload and end-to-end metric, both medians and the change against the
bound in BENCHMARK.json.  It refuses runs whose Python version or sympy
ground types differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ".perfbench"
SETUP_SAMPLES = 5
# inputs generated per second of run: several times the present
# throughput, so that a faster library does not run out of fresh inputs
GEN_PER_SECOND = {"groupoid": 40, "kernel-q": 800, "kernel-ext": 100,
                  "classify": 200}
# ops of the exact count pass: the start of each cycle, a few seconds of
# counted work
COUNT_OPS = {"groupoid": 9, "kernel-q": 200, "kernel-ext": 30, "classify": 24}
CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
    ("ok_frac", "frac"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
]
# failure kinds that mean the benchmark's check itself broke
CHECKER_FAULTS = ("check_exception:",)


class BenchError(Exception):
    pass


def _child(root, args):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable] + args, cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} failed:\n{proc.stderr}")


def _worker(root, workdir, workload, mode, out, seconds=0.0, count_ops=0):
    _child(root, [os.path.join(HERE, "worker.py"), "--workload", workload,
                  "--inputs", os.path.join(workdir, "inputs.jsonl"),
                  "--mode", mode, "--seconds", str(seconds),
                  "--count-ops", str(count_ops), "--out", out])
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _commit(root):
    """The checked-out commit, read from .git if there is one."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _failed(summary):
    return summary["attempted"] - summary["passed"]


def _correct(*summaries):
    return not any(kind.startswith(CHECKER_FAULTS)
                   for s in summaries for kind in s["failures"])


def run(args, root):
    workdir = os.path.join(root, WORK, f"{args.workload}-{args.seed}")
    results = os.path.join(root, WORK, "results")
    os.makedirs(results, exist_ok=True)
    _child(root, [os.path.join(HERE, "gen.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--out", workdir, "--count",
                  str(int(GEN_PER_SECOND[args.workload] * args.seconds) + 50)])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": _commit(root), "nproc": os.cpu_count()}
    if not args.trace:
        setups = [_worker(root, workdir, args.workload, "setup",
                          os.path.join(workdir, f"setup{i}.json"))
                  for i in range(SETUP_SAMPLES - 1)]
        m = _worker(root, workdir, args.workload, "measure",
                    os.path.join(workdir, "measure.json"), args.seconds)
        raw = {
            "ops_per_s": m["ops_per_s"],
            "latency_p50_ms": m["latency_p50_ms"],
            "latency_p90_ms": m["latency_p90_ms"],
            "setup_s": statistics.median(
                [s["setup_s"] for s in setups] + [m["setup_s"]]),
        }
        metrics = {
            "ops_per_s": m["scaled"]["ops_per_s"],
            "latency_p50_ms": m["scaled"]["latency_p50_ms"],
            "latency_p90_ms": m["scaled"]["latency_p90_ms"],
            "ok_frac": m["passed"] / m["attempted"],
            # each set-up process is scaled by its own calibration; the
            # measuring process's set-up by the loop's
            "setup_s": statistics.median(
                s["setup_s"] * s["calibration_ref_s"] / s["calibration_s"]
                for s in setups + [m]),
            "peak_rss_mb": m["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        summaries = [m]
        record.update(env=m["env"], raw=raw, run=_without(m, "env"),
                      setup_samples=[_without(s, "env") for s in setups])
    else:
        t = _worker(root, workdir, args.workload, "trace",
                    os.path.join(workdir, "trace.json"), args.seconds)
        c = _worker(root, workdir, args.workload, "count",
                    os.path.join(workdir, "count.json"),
                    count_ops=COUNT_OPS[args.workload])
        metrics = layers.per_layer_metrics(t, c)
        units = dict(layers.per_layer_units())
        summaries = [t["untraced"], t["traced"]]
        record.update(env=t["env"], trace=_without(t, "env"),
                      count=_without(c, "env"))
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(_failed(s) for s in summaries)
    record.update(metrics=metrics, attempted=attempted, failed=failed)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    env = record["env"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"python {env['python']}, sympy {env['sympy']} "
          f"(ground types {env['ground_types']}), nproc {record['nproc']}, "
          f"commit {record['commit']}")
    for s in summaries:
        print(f"ops attempted {s['attempted']}, passed {s['passed']}, "
              f"fail_frac {_failed(s) / s['attempted']:.4f}, failures "
              f"{json.dumps(s['failures'], sort_keys=True)}, latency over "
              f"{s['latency_samples']} completed ops")
    if "raw" in record:
        print(f"calibration {1000 * record['run']['calibration_s']:.4g} ms "
              f"(median of {record['run']['calibrations']}), reference "
              f"{1000 * record['run']['calibration_ref_s']:.4g} ms; "
              "unscaled: "
              + ", ".join(f"{k} = {v:.6g} {units[k]}"
                          for k, v in record["raw"].items()))
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": _correct(*summaries),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _load_side(path):
    files = [os.path.join(path, f) for f in sorted(os.listdir(path))
             if f.endswith(".json")] if os.path.isdir(path) else [path]
    out = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            rec = json.load(fh)
        if not rec.get("trace"):
            out.append(rec)
    return out


def compare(base_path, new_path):
    """Medians of two sets of runs; refuses incomparable environments."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    bound = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base, new = _load_side(base_path), _load_side(new_path)
    envs = {(r["env"]["python"], r["env"]["ground_types"])
            for r in base + new}
    if len(envs) != 1:
        raise BenchError("refusing to compare runs from different "
                         f"environments (python, ground types): {envs}")
    worse = False
    for wl in WORKLOADS:
        b = [r["metrics"] for r in base if r["workload"] == wl]
        n = [r["metrics"] for r in new if r["workload"] == wl]
        if not b or not n:
            continue
        for name, unit in END_TO_END:
            mb = statistics.median(r[name] for r in b)
            mn = statistics.median(r[name] for r in n)
            lim, better = bound[name]
            change = (mn - mb) / mb
            loss = change if better == "lower" else -change
            flag = "worse" if loss > lim else "ok"
            worse |= loss > lim
            print(f"{wl:10s} {name:15s} {mb:12.6g} -> {mn:12.6g} {unit:5s} "
                  f"{change:+.3f} (bound {lim}) {flag}  "
                  f"[{len(b)} vs {len(n)} runs]")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()
    root = os.getcwd()
    try:
        if args.compare:
            return compare(*args.compare)
        if not args.workload:
            ap.error("--workload is required")
        if not os.path.isfile(os.path.join(root, "src", "gliderbs",
                                           "__init__.py")):
            raise BenchError(f"no gliderbs sources under {root}/src: run "
                             "from the root of a checkout")
        run(args, root)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
