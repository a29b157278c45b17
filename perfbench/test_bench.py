"""Tests of the benchmark itself:

    python3 -m pytest perfbench/test_bench.py

- every checker rejects a corrupted result (a lattice scaled by a
  uniformizer, a shift off by one);
- two count passes over the same inputs give identical counts;
- the tracer rebinds the copies of a function that other modules imported;
- BENCHMARK.json names exactly the metrics the code reports;
- the known library defects that keep inputs out of the workloads still
  show (expected failures).
"""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def _first_of_each_kind(wl_name, seed, workdir, count=200):
    seen = {}
    for spec in workloads.generate(wl_name, seed, count, str(workdir)):
        key = (spec["k"], spec.get("r"))
        seen.setdefault(key, json.loads(json.dumps(spec)))
    return seen


def _scaled_ideal(m, factor):
    from gliderbs.brandt import NormalGliderIdeal
    from gliderbs.glider import Glider

    g = m.glider
    return NormalGliderIdeal(Glider(g.filtration, g.ambient,
                                    [lvl.scale(factor) for lvl in g.prefix],
                                    g.tail, alg=g.alg))


def _run_and_check(wl, spec):
    result = wl.prepare(spec)()
    assert wl.check(spec, result) is None, spec["k"]
    return result


def test_kernel_checkers_reject_corruption(tmp_path):
    wl = workloads.make("kernel-q")
    specs = _first_of_each_kind("kernel-q", 1, tmp_path)
    order = ["span", "mult", "colon_left", "colon_right", "intersect",
             "contains", "quotient_length", "equal"]
    for kind in order:
        spec = specs[(kind, "q5")]
        result = _run_and_check(wl, spec)
        pi = wl.s.rings["q5"].uniformizers[0]
        if kind == "intersect":
            a, b, meet = result
            bad = (a, b, meet.scale(pi))
        elif kind == "quotient_length":
            bad = result + 1
        elif kind in ("contains", "equal"):
            bad = not result
        else:
            bad = result.scale(pi)
        assert wl.check(spec, bad) == "wrong", kind
        wl.record(spec, result)


def test_groupoid_checkers_reject_corruption(tmp_path):
    wl = workloads.make("groupoid")
    specs = _first_of_each_kind("groupoid", 1, tmp_path, count=84)
    five = wl.s.q.from_int(5)
    for (kind, _), spec in sorted(specs.items()):
        result = _run_and_check(wl, spec)
        if kind == "assoc":
            bad = (result[0], _scaled_ideal(result[1], five))
        elif kind == "verify":
            result.record(2, False, detail="corrupted")
            bad = result
        else:
            bad = _scaled_ideal(result, five)
        assert wl.check(spec, bad) == "wrong", kind


def test_classify_checkers_reject_corruption(tmp_path):
    wl = workloads.make("classify")
    specs = _first_of_each_kind("classify", 1, tmp_path, count=20)
    for (kind, _), spec in sorted(specs.items()):
        result = _run_and_check(wl, spec)
        if kind == "tensor":
            from gliderbs.glider import Glider

            pi = result.filtration.base_ring.uniformizers[0]
            bad = Glider(result.filtration, result.ambient,
                         [lvl.scale(pi) for lvl in result.prefix],
                         result.tail, alg=result.alg)
        else:
            code, text = result
            out = json.loads(text)
            res = out["results"]
            if res.get("verdict") == "reducible":
                res["witnessShift"] += 1
            elif kind in ("csa", "field"):
                res["element"]["shift"] += 1
            elif kind == "subglider":
                res["alpha"] = [a + 1 for a in res["alpha"]]
            elif kind == "rank2":
                res["shift"][0] += 1
            bad = (code, json.dumps(out))
        assert wl.check(spec, bad) == "wrong", kind


# Known defects of the library that keep inputs out of the workloads (they
# must complete and pass on every op).  Each test asserts the correct
# behaviour and is expected to fail; once a fix makes it pass, the inputs
# can go back into the workload.

@pytest.mark.xfail(strict=True, reason="Q(i) at 2+i: reduce_mod does not "
                   "finish or raises FieldMismatchError")
def test_defect_gaussian_kernel_ops(tmp_path):
    import signal

    import worker

    wl = workloads.Kernel(("qi",), {"qi": 0.5})
    rnd = random.Random("qi-defect")
    signal.signal(signal.SIGALRM, worker._alarm)
    outcomes = []
    for _ in range(12):
        spec = workloads._kernel_spec("mult", "qi", rnd)
        outcome, result, _ = worker._timed(wl.prepare(spec), 0.5)
        if outcome is None:
            outcome = wl.check(spec, result)
        outcomes.append(outcome)
    assert outcomes == [None] * len(outcomes)


@pytest.mark.xfail(strict=True, reason="F_3(x): lattice == is not canonical")
def test_defect_function_field_span_canonical(tmp_path):
    wl = workloads.Kernel(("f3x",), {"f3x": 3.0})
    rnd = random.Random("f3x-defect")
    specs = [workloads._kernel_spec("span", "f3x", rnd) for _ in range(6)]
    assert [wl.check(s, wl.prepare(s)()) for s in specs] == [None] * 6


@pytest.mark.xfail(strict=True, reason="random M_2(Z_(5)) chains raise "
                   "UnsupportedError in gbs._reducible")
def test_defect_random_csa_chains():
    from gliderbs.errors import UnsupportedError
    from gliderbs.gbs import classify_csa_glider

    shared = workloads.ClassifyShared()
    rnd = random.Random(0)
    for _ in range(8):
        chain = workloads._random_csa_glider(shared.fa[(5, 2)], rnd)
        try:
            classify_csa_glider(chain)
        except UnsupportedError:
            pytest.fail("classify_csa_glider raised UnsupportedError")


def _count_pass(inputs, out, ops):
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    "--workload", inputs[0], "--inputs", inputs[1],
                    "--mode", "count", "--count-ops", str(ops),
                    "--out", out], cwd=ROOT, env=env, check=True,
                   timeout=170)
    with open(out, encoding="utf-8") as fh:
        rec = json.load(fh)
    return rec["counts"], rec["outcomes"]


@pytest.mark.parametrize("workload,ops", [("kernel-q", 60),
                                          ("kernel-ext", 12)])
def test_count_pass_repeats_exactly(tmp_path, workload, ops):
    path = tmp_path / "inputs.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for spec in workloads.generate(workload, 5, ops, str(tmp_path)):
            fh.write(json.dumps(spec) + "\n")
    first = _count_pass((workload, str(path)), str(tmp_path / "a.json"), ops)
    second = _count_pass((workload, str(path)), str(tmp_path / "b.json"),
                         ops)
    assert first == second
    assert first[0]["count.hnf.calls"] > 0


def test_tracer_rebinds_imported_copies():
    code = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import layers\n"
        "from gliderbs import brandt, lattice\n"
        "orig = lattice.mult\n"
        "t = layers.Tracer(); t.install()\n"
        "assert brandt.mult is lattice.mult is not orig\n"
        "from gliderbs.fields import QQ_FIELD\n"
        "from gliderbs.lattice import BaseRing, span, matrix_algebra\n"
        "from gliderbs.fields import padic\n"
        "r = BaseRing(QQ_FIELD, (padic(5),))\n"
        "x = span(r, 4, [[QQ_FIELD.from_int(int(i == j)) for j in range(4)]"
        " for i in range(4)])\n"
        "t.start_op(0); brandt.mult(x, x, matrix_algebra(2)); t.end_op()\n"
        "s = t.summary()\n"
        "assert s['lattice.mult']['calls'] == 1\n"
        "assert s['lattice.hnf']['calls'] == 1\n"
        "assert s['lattice.mult']['self_s'] < s['lattice.mult']['s']\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   timeout=60)


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layers.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
