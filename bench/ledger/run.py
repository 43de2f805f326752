#!/usr/bin/env python3
"""Builds perf_ledger and runs one benchmark workload.

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
                                [--save DIR]

Run from the repository root. The first call configures and builds
bench/ledger into .bench_build/ledger (about a minute on 4 cores); later
calls only rebuild what changed. perf_ledger's own report goes to stdout,
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones. With
--trace 1 perf_ledger traces its last round and the metrics are the
per_layer ones; the Chrome trace lands in .bench_build/ledger/traces/.

--save DIR also keeps perf_ledger's result (compare.py reads untraced
ones). The exit status is 0 only when every unit passed its correctness
checks.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ledger"
LEDGER = BUILD / "perf_ledger"


def build():
    """Configures (once) and builds perf_ledger; output goes to stderr."""
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4",
                  "--target", "perf_ledger"])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr)


def invoke(ledger, workdir, workload, seed, seconds=15, smoke=False,
           trace=None):
    """Runs perf_ledger once and returns its --json result (written to a
    temporary file under workdir)."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        out = Path(tmp) / "result.json"
        cmd = [str(ledger), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--json", str(out)]
        if smoke:
            cmd.append("--smoke")
        if trace:
            cmd += ["--trace", str(trace)]
        sys.stdout.flush()
        proc = subprocess.run(cmd)
        # 1 means some unit failed; the result is still complete.
        if proc.returncode not in (0, 1) or not out.exists():
            raise RuntimeError(f"perf_ledger exited {proc.returncode}: "
                               + " ".join(cmd))
        return json.loads(out.read_text())


def contract_line(bench, result):
    """The result line for one perf_ledger result: the end_to_end
    metrics, or the per_layer ones for a traced result."""
    specs = bench["per_layer" if result["traced"] else "end_to_end"]
    metrics = {}
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            raise RuntimeError(f"metric {spec['name']} [{spec['unit']}] "
                               f"missing from perf_ledger output: {got}")
        metrics[spec["name"]] = got
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}


def save(result, directory):
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-s{result['seed']}"
    n = 0
    while (directory / f"{stem}-{n:03d}.json").exists():
        n += 1
    (directory / f"{stem}-{n:03d}.json").write_text(json.dumps(result) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload}")
    try:
        build()
        trace = None
        if args.trace:
            trace = BUILD / "traces" / f"{args.workload}-s{args.seed}.json"
            trace.parent.mkdir(exist_ok=True)
        result = invoke(LEDGER, BUILD, args.workload, args.seed, args.seconds,
                        trace=trace)
        line = contract_line(bench, result)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    if args.save:
        save(result, args.save)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
