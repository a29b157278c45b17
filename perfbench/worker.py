"""One fresh, single-threaded benchmark process.

    python3 perfbench/worker.py --workload W --inputs FILE --mode MODE \
        --seconds S --out RESULT.json [--count-ops K]

MODE is one of:

- `setup`: import the library and build the shared state, then stop;
- `measure`: a closed loop with one caller over the inputs for S seconds;
- `trace`: `measure` for S/2 seconds, then the same ops again with spans
  around the layer functions;
- `count`: the first K inputs with the exact counters installed.

`setup_s` runs from before `import gliderbs` to the first op.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import gliderbs  # noqa: E402,F401
from gliderbs.errors import GbsError  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

# spans that must record calls on each workload, or the trace is broken
EXPECTED_SPANS = {
    "groupoid": ("brandt.product", "brandt.inverse", "brandt.modulizer",
                 "brandt.repackage", "brandt.verify", "lattice.mult",
                 "lattice.colon", "lattice.intersect", "lattice.hnf",
                 "glider.is_glider"),
    "kernel-q": ("lattice.hnf", "lattice.mult", "lattice.colon",
                 "lattice.intersect", "lattice.solve_dual",
                 "lattice.reduce_mod", "lattice.contains"),
    "kernel-ext": ("lattice.hnf", "lattice.mult", "lattice.colon",
                   "lattice.intersect", "lattice.solve_dual",
                   "lattice.reduce_mod", "lattice.contains"),
    "classify": ("cli.main", "jsonio.decode", "jsonio.encode",
                 "gbs.classify_csa", "gbs.classify_field",
                 "gbs.reducible_check", "glider.classify_subglider",
                 "glider.is_glider", "rank2.classify",
                 "tensorext.tensor_glider", "lattice.simple_quotient"),
}


# The budget of scalar operations of one count-pass op: 50 times the most
# a finishing op was seen to use (kernel ops ~1k, a groupoid verify ~150k).
# An op that never finishes (as one over Q(i) at 2+i can, see
# test_bench.py) reaches it in about a second.
COUNT_OP_CAP = {"kernel-q": 50_000, "kernel-ext": 50_000,
                "groupoid": 8_000_000, "classify": 8_000_000}
# the clock deadline of a count-pass op, a safety net behind its budget
CHILD_SAFETY_S = 60.0


# How often the measuring loop times the calibration work, between ops,
# and how many times in a row (their median is one calibration).
CALIBRATE_EVERY_S = 0.25
CALIBRATION_REPS = 3
# The calibration time that reported times are scaled to: about its median
# on the 2-vCPU host where the benchmark was defined, so that scaled times
# read close to seconds there.
CALIBRATION_REF_S = 0.0075


def calibration_s():
    """Seconds taken by a fixed piece of work of the library's kind (exact
    rational arithmetic in sympy's pure-Python rationals, tuples and a
    dict) that runs no library code.  The host's speed drifts by +-25%
    within seconds; this time follows it, and each op's time is scaled by
    the calibrations just before and after it (`Loop.scaled`)."""
    from sympy.external.pythonmpq import PythonMPQ

    t0 = time.perf_counter()
    table = {}
    x = PythonMPQ(1, 3)
    for i in range(1, 800):
        x = x * PythonMPQ(i % 5 + 1, i % 7 + 2) + PythonMPQ(1, i)
        table[i % 97] = (x, i)
    return time.perf_counter() - t0


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so that no handler
    in the library can swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


class Inputs:
    """The specs in file order, starting over at the end of the file; the
    number of restarts is kept in `wraps`."""

    def __init__(self, path):
        self.path = path
        self.wraps = 0
        self._it = self._read()

    def _read(self):
        while True:
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    yield json.loads(line)
            self.wraps += 1

    def __next__(self):
        return next(self._it)


def _timed(fn, seconds):
    """(outcome, value, elapsed): outcome None, or a failure kind."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    t0 = time.perf_counter()
    try:
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return "deadline", None, time.perf_counter() - t0
    except layers.WorkCapExceeded:
        return "work_cap", None, time.perf_counter() - t0
    except GbsError as exc:
        return "error:" + type(exc).__name__, None, time.perf_counter() - t0
    except Exception as exc:  # a defect in the library; counted, not fatal
        return "exception:" + type(exc).__name__, None, \
            time.perf_counter() - t0
    return None, value, time.perf_counter() - t0


class Loop:
    """Closed loop with one caller: the next op starts when the previous
    op and its check are done."""

    def __init__(self, wl, specs, hooks=None, deadline_s=None):
        self.wl = wl
        self.specs = specs
        self.hooks = hooks
        self.deadline_s = deadline_s
        self.latencies = []
        self.failures = {}
        self.attempted = 0
        self.passed = 0
        self.op_time = 0.0
        self.outcomes = []
        self.by_kind = {}
        self.calibrations = []
        # (elapsed, index of the last calibration before the op, passed)
        self.times = []

    def step(self, op_id):
        wl = self.wl
        spec = next(self.specs)
        deadline = wl.deadline(spec)
        try:
            run = wl.prepare(spec)
        except workloads.MissingOperands:
            # counted as failed: the ops that should have made its
            # operands failed before it
            self.attempted += 1
            self.failures["no_operands"] = \
                self.failures.get("no_operands", 0) + 1
            self.outcomes.append("no_operands")
            self.times.append((0.0, len(self.calibrations) - 1, False))
            return
        if self.hooks:
            self.hooks.start_op(op_id)
        outcome, result, elapsed = _timed(run, self.deadline_s or deadline)
        if self.hooks:
            self.hooks.end_op()
        self.attempted += 1
        self.op_time += elapsed
        check_s = 0.0
        if outcome is None:
            outcome, verdict, check_s = _timed(
                lambda: wl.check(spec, result), 4 * deadline)
            outcome = verdict if outcome is None else "check_" + outcome
        kind = spec["k"] if "r" not in spec else spec["k"] + "@" + spec["r"]
        self.by_kind.setdefault(kind, []).append((elapsed, check_s))
        if outcome is None:
            self.passed += 1
            self.latencies.append(elapsed)
            if hasattr(wl, "record"):
                wl.record(spec, result)
        else:
            self.failures[outcome] = self.failures.get(outcome, 0) + 1
        self.outcomes.append(outcome or "ok")
        self.times.append((elapsed, len(self.calibrations) - 1,
                           outcome is None))

    def calibrate(self):
        self.calibrations.append(statistics.median(
            calibration_s() for _ in range(CALIBRATION_REPS)))

    def run_for(self, seconds=0.0, ops=None, calibrate=False):
        """Run ops for `seconds`, or, if `ops` is given, until that many
        have been attempted."""
        now = time.perf_counter()
        end, due = now + seconds, now
        while now < end if ops is None else self.attempted < ops:
            if calibrate and now >= due:
                self.calibrate()
                due = time.perf_counter() + CALIBRATE_EVERY_S
            self.step(self.attempted)
            now = time.perf_counter()
        if calibrate:
            self.calibrate()
        return self

    def scaled(self):
        """The loop's ops_per_s and latency quantiles at the reference
        speed: each op's time multiplied by CALIBRATION_REF_S over the mean
        of the calibrations just before and after it."""
        cal = self.calibrations
        total, lat = 0.0, []
        for elapsed, i, passed in self.times:
            c = (cal[i] + cal[i + 1]) / 2 if i + 1 < len(cal) else cal[i]
            t = elapsed * CALIBRATION_REF_S / c
            total += t
            if passed:
                lat.append(t)
        return _quantiles(self.passed / total if total else 0.0, lat)

    def summary(self):
        out = _quantiles(self.passed / self.op_time if self.op_time else 0.0,
                         self.latencies)
        out.update(attempted=self.attempted, passed=self.passed,
                   failures=self.failures, op_time_s=self.op_time,
                   by_kind={k: {"ops": len(v),
                                "median_ms": 1000 * statistics.median(
                                    t for t, _ in v),
                                "check_ms": 1000 * statistics.median(
                                    c for _, c in v)}
                            for k, v in sorted(self.by_kind.items())})
        return out


def _quantiles(ops_per_s, latencies):
    out = {"ops_per_s": ops_per_s, "latency_samples": len(latencies)}
    if len(latencies) >= 2:
        out["latency_p50_ms"] = 1000 * statistics.median(latencies)
        out["latency_p90_ms"] = 1000 * statistics.quantiles(
            latencies, n=10)[8]
    return out


def _environment():
    import platform

    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "ground_types": GROUND_TYPES}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace", "count"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--count-ops", type=int, default=20)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    wl = workloads.make(args.workload)
    specs = Inputs(args.inputs)
    setup_s = time.perf_counter() - T_START
    signal.signal(signal.SIGALRM, _alarm)
    out = {"setup_s": setup_s, "env": _environment()}

    if args.mode == "setup":
        out["calibration_s"] = statistics.median(
            calibration_s() for _ in range(9))
        out["calibration_ref_s"] = CALIBRATION_REF_S
    elif args.mode == "measure":
        loop = Loop(wl, specs).run_for(args.seconds, calibrate=True)
        out.update(loop.summary())
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["scaled"] = loop.scaled()
        out["calibration_s"] = statistics.median(loop.calibrations)
        out["calibrations"] = len(loop.calibrations)
        out["calibration_ref_s"] = CALIBRATION_REF_S
    elif args.mode == "trace":
        # the traced pass repeats the ops of the untraced pass, so that
        # the ratio of their ops_per_s is the tracing overhead; both are
        # scaled, as the host's speed may change between the two passes
        plain_loop = Loop(wl, specs).run_for(args.seconds / 2,
                                             calibrate=True)
        tracer = layers.Tracer()
        tracer.install()
        traced_loop = Loop(workloads.make(args.workload),
                           Inputs(args.inputs), tracer).run_for(
            ops=plain_loop.attempted, calibrate=True)
        plain, traced = (dict(loop.summary(), scaled=loop.scaled())
                         for loop in (plain_loop, traced_loop))
        tracer.dump(os.path.join(os.path.dirname(args.out), "spans.bin"))
        spans = tracer.summary()
        missing = [s for s in EXPECTED_SPANS[args.workload]
                   if spans.get(s, {}).get("calls", 0) == 0]
        if missing:
            raise SystemExit(f"trace recorded no calls of {missing} on "
                             f"{args.workload}")
        out.update(untraced=plain, traced=traced, spans=spans,
                   calls=dict(tracer.calls), nested=tracer.nested,
                   bytes_out=tracer.bytes_out)
    elif args.mode == "count":
        # ops are cut by a budget of scalar operations, not by the clock,
        # so that the counts do not depend on the machine
        counter = layers.Counter(op_cap=COUNT_OP_CAP[args.workload])
        counter.install()
        loop = Loop(wl, specs, counter, deadline_s=CHILD_SAFETY_S)
        for i in range(args.count_ops):
            loop.step(i)
        out.update(loop.summary())
        out["counts"] = counter.metrics()
        out["outcomes"] = loop.outcomes
    out["wraps"] = specs.wraps
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
