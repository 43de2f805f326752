#!/usr/bin/env python3
"""Smoke self-test of perf_ledger (registered with CTest as ledger_smoke).

    python3 smoke_test.py --ledger PATH/perf_ledger --benchmark BENCHMARK.json

Runs every BENCHMARK.json workload at --smoke scale (about 50x smaller
than a benchmark run), seed 1, twice untraced and once traced, and
asserts:
  - both untraced runs produce the same unit count and unit digests;
  - fail_rate is 0 (which includes matching the pinned digests);
  - every end_to_end and per_layer metric of BENCHMARK.json comes out,
    with its unit, of the same translation run.py applies.
Temporary files go under the current directory.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source directory clean
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark entry point's helpers)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--ledger", required=True)
    parser.add_argument("--benchmark", required=True, type=Path)
    args = parser.parse_args()
    bench = json.loads(args.benchmark.read_text())

    problems = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as work:
        for workload in [w["name"] for w in bench["workloads"]]:
            first, second = (run.invoke(args.ledger, work, workload, 1,
                                        smoke=True) for _ in range(2))
            if (first["attempted"], first["digests"]) != \
                    (second["attempted"], second["digests"]):
                problems.append(f"{workload}: two runs differ in units or "
                                "digests")
            fail_rate = first["metrics"]["fail_rate"]["value"]
            if fail_rate != 0:
                problems.append(f"{workload}: fail_rate {fail_rate}")
            traced = run.invoke(args.ledger, work, workload, 1, smoke=True,
                                trace=Path(work) / "trace.json")
            try:
                run.contract_line(bench, first)
                run.contract_line(bench, traced)
            except RuntimeError as err:
                problems.append(f"{workload}: {err}")
            print(f"{workload}: {first['attempted']} units, digests "
                  f"{first['digest_status']}")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
