"""Write the inputs of one workload run, from its seed alone.

    python3 perfbench/gen.py --workload W --seed N --count C --out DIR

Writes DIR/inputs.jsonl, one op spec per line; `classify` also writes the
JSON files its ops read into DIR.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "inputs.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for spec in workloads.generate(args.workload, args.seed, args.count,
                                       args.out):
            fh.write(json.dumps(spec, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
