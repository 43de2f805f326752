#!/usr/bin/env bash
# Tier-1 verification of CBSVM. Stages, in order:
#  - configure, build (warnings are errors), ctest fast tier, then the
#    rest of the suite (its DeterminismMatrixTest is the one home of
#    byte-identity across --compile-jobs and ParallelRunner jobs, and of
#    the run features' assertions)
#  - observability smoke: the CLI writes valid trace, metrics and stats
#  - fuzz smoke: jobs 1 vs 8 (all oracles, then osr-stability over long
#    loops), broken-oracle artifact replay, missing and unwritable
#    artifacts exit 2
#  - CLI determinism: warm start at baseline vs compile-jobs 4
#  - bench text/JSON agreement (the fast bench binaries; the report
#    and stats text views are checked in-process by ReportSchemaTest);
#    writes to a full device fail
#  - pinned virtual time: the perf ledger's smoke test matches every
#    benchmark workload's pinned digests
#  - ASan + UBSan, then TSan
#
# Usage: scripts/check.sh [build-dir]
#
# Environment:
#   CBSVM_SANITIZE=address|undefined|...  configure the build with
#       -DCBSVM_SANITIZE (fresh configure only; an existing build dir
#       keeps its cached setting).
#   CBSVM_SKIP_TSAN=1  skip the ThreadSanitizer stage (it maintains a
#       second build tree at <build-dir>-tsan).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

CMAKE_ARGS=()
if [[ -n "${CBSVM_SANITIZE:-}" ]]; then
  CMAKE_ARGS+=("-DCBSVM_SANITIZE=${CBSVM_SANITIZE}")
fi

echo "== configure =="
# The build stays warning-free: any compiler warning fails the stage.
cmake -B "$BUILD" -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON "${CMAKE_ARGS[@]}"

echo "== build =="
cmake --build "$BUILD" -j

echo "== tests: fast tier =="
# The quick pre-commit tier first: fail here and we skip the soaks.
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)" -L fast)

echo "== tests: the rest of the suite =="
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)" -LE fast)

echo "== observability smoke =="
# Every file a stage writes lives in one scratch directory.
WORK=$(mktemp -d /tmp/cbsvm-check.XXXXXX)
trap 'rm -rf "$WORK"' EXIT

CBSVM="$BUILD/tools/cbsvm"
"$CBSVM" run compress --trace "$WORK/trace.json" --metrics-json "$WORK/metrics.json"
"$CBSVM" jsoncheck "$WORK/trace.json"
"$CBSVM" jsoncheck "$WORK/metrics.json"
"$CBSVM" stats compress --json "$WORK/stats.json" >/dev/null
"$CBSVM" jsoncheck "$WORK/stats.json"

echo "== fuzz smoke =="
# A short differential-fuzzing campaign: 25 seeds through every builtin
# oracle must come back clean, and the parallel campaign must report
# exactly what the serial one does.
"$CBSVM" fuzz --runs 25 --seed 1 --jobs 1 | tee "$WORK/fuzz1.txt"
"$CBSVM" fuzz --runs 25 --seed 1 --jobs 8 >"$WORK/fuzz8.txt"
cmp "$WORK/fuzz1.txt" "$WORK/fuzz8.txt"
echo "fuzz jobs=1 and jobs=8 reports are byte-identical"

# The osr-stability oracle over 25 long-loop programs (loops long
# enough for installs to land mid-frame), likewise at jobs 1 and 8.
"$CBSVM" fuzz --oracle osr-stability --long-loops --runs 25 --seed 1 \
  --jobs 1 | tee "$WORK/osrfuzz1.txt"
"$CBSVM" fuzz --oracle osr-stability --long-loops --runs 25 --seed 1 \
  --jobs 8 >"$WORK/osrfuzz8.txt"
cmp "$WORK/osrfuzz1.txt" "$WORK/osrfuzz8.txt"
echo "osr-stability fuzz jobs=1 and jobs=8 are byte-identical"

# The artifact pipeline end to end: a deliberately broken oracle must
# produce a reduced, replayable artifact, and the replay must reproduce
# the violation (exit 0 means reproduced).
if "$CBSVM" fuzz --runs 1 --seed 1 --broken-oracle --oracle broken \
    --artifact-dir "$WORK" >/dev/null; then
  echo "broken oracle failed to flag anything" >&2
  exit 1
fi
ARTIFACT=$(ls "$WORK"/broken-seed*.json | head -n 1)
"$CBSVM" jsoncheck "$ARTIFACT"
"$CBSVM" fuzz --broken-oracle --replay "$ARTIFACT"
echo "broken-oracle artifact replays and reproduces"

# A missing input file is a data error, not a command-line mistake: it
# exits 2 with its diagnostic and no usage line.
STATUS=0
"$CBSVM" fuzz --replay "$WORK/no-such-artifact.json" 2>"$WORK/missing.err" ||
  STATUS=$?
if [[ $STATUS -ne 2 ]] || grep -q "usage:" "$WORK/missing.err"; then
  echo "missing artifact: exit $STATUS, stderr:" >&2
  cat "$WORK/missing.err" >&2
  exit 1
fi
echo "a missing artifact exits 2 with no usage line"

# An artifact that cannot be written is a failed write, not a finding:
# exit 2 naming the path, not the violation status 1.
STATUS=0
"$CBSVM" fuzz --runs 1 --seed 1 --broken-oracle --oracle broken \
  --artifact-dir "$WORK/no-such-dir" >"$WORK/noart.out" 2>&1 || STATUS=$?
if [[ $STATUS -ne 2 ]] || ! grep -q "cannot write" "$WORK/noart.out"; then
  echo "unwritable artifact: exit $STATUS, output:" >&2
  cat "$WORK/noart.out" >&2
  exit 1
fi
echo "an unwritable artifact exits 2 and names the path"

echo "== CLI determinism =="
# DeterminismMatrixTest checks every row and axis in-process; this pair
# keeps the cbsvm front end covered end to end on its warm-start row. A
# warm start from one seeded repository entry, at baseline and at
# --compile-jobs 4, must write the same profile (.dcg), metrics (.json)
# and repository entry (/jess.dcg).
"$CBSVM" run jess --profile-repo "$WORK/cli-seed" >/dev/null
cp -r "$WORK/cli-seed" "$WORK/cli-base"
cp -r "$WORK/cli-seed" "$WORK/cli-jobs4"
"$CBSVM" run jess --profile-repo "$WORK/cli-base" \
  --save "$WORK/cli-base.dcg" --metrics-json "$WORK/cli-base.json" >/dev/null
"$CBSVM" run jess --profile-repo "$WORK/cli-jobs4" --compile-jobs 4 \
  --save "$WORK/cli-jobs4.dcg" --metrics-json "$WORK/cli-jobs4.json" >/dev/null
for F in .dcg .json /jess.dcg; do
  cmp "$WORK/cli-base$F" "$WORK/cli-jobs4$F"
done
echo "baseline and compile-jobs=4 runs are byte-identical"

echo "== bench text/JSON agreement =="
# (The report and stats text views are held to their JSON documents
# in-process, by ReportSchemaTest's TextShows tests.) Every table/figure
# binary prints its text and its --json from the same report rows. On
# the fast binaries, each JSON output must be valid and each JSON row's
# cell lexemes must appear, in order, on one line of the text.
AGREEDIR="$WORK/agree"
mkdir "$AGREEDIR"
for B in figure1_timer_bias ablation_phase_shift figure_warm_start \
         ablation_generality convergence_curve metrics_comparison \
         ablation_exhaustive ablation_entry_check; do
  CBSVM_RUNS=1 "$BUILD/bench/$B" >"$AGREEDIR/$B.txt"
  CBSVM_RUNS=1 "$BUILD/bench/$B" --json "$AGREEDIR/$B.json" >/dev/null
  "$CBSVM" jsoncheck "$AGREEDIR/$B.json"
  python3 - "$AGREEDIR/$B.json" "$AGREEDIR/$B.txt" "$B" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read(), parse_float=str, parse_int=str)
lines = open(sys.argv[2]).read().splitlines()

def on_one_line(cells):
    for line in lines:
        pos = 0
        for cell in cells:
            pos = line.find(cell, pos)
            if pos < 0:
                break
            pos += len(cell)
        else:
            return True
    return False

rows = [row for table in doc["tables"] for row in table["rows"]]
missing = [row for row in rows if not on_one_line(row)]
assert rows and not missing, missing[:5]
print(f"{sys.argv[3]}: all {len(rows)} JSON rows appear in the text")
EOF
done

# A write that fails (here: a full device) is an error, not a success:
# a --json/--metrics-json FILE, standard output, and a bench report.
fails() { if "$@" 2>/dev/null; then echo "$* exited 0" >&2; exit 1; fi; }
if [[ -e /dev/full ]]; then
  fails "$CBSVM" report phased --aos --osr --json /dev/full >/dev/null
  fails "$CBSVM" run compress --metrics-json /dev/full >/dev/null
  fails "$CBSVM" stats compress --json - >/dev/full
  fails "$BUILD/bench/table1_benchmarks" --json /dev/full >/dev/null
  echo "writes to a full device fail with a nonzero exit"
fi

echo "== pinned virtual time =="
# The perf ledger (bench/ledger, a standalone project over the same
# sources) runs all four benchmark workloads at 1/50 scale; ledger_smoke
# fails unless every unit's digest (virtual cycles, outputs, profiles)
# matches the value pinned in bench/ledger/expected.json. It builds into
# the directory bench/ledger/run.py uses.
LEDGER_BUILD=.bench_build/ledger
cmake -S bench/ledger -B "$LEDGER_BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$LEDGER_BUILD" -j
(cd "$LEDGER_BUILD" && ctest --output-on-failure -R ledger_smoke)

echo "== address + undefined-behaviour sanitizers: code cache reclamation, counters and reports =="
# Every AOS run frees retired code the moment its last frame leaves, so
# a missed pin is a use-after-free. Run under ASan + UBSan: the suites
# and a fuzz campaign that recompile, deoptimize and transfer frames;
# the suites that drive the VM counters, the report and the flight
# recorder; the determinism matrix, which drives every run feature at
# once and holds their assertions (compile queue, deopt, OSR, graveyard,
# report, warm start); the experiment and repository suites, which drive
# exp::Run through measureThroughput, runWarmStart and the
# --profile-repo driver path; the interpreter's own suites, whose
# operand stack is raw pointers into a growable arena; the profile
# repository's map code (self-merge doubling in place, decay erasing
# while it iterates); the parallel runner, whose task contexts cross
# from worker threads to the caller inside futures; and the parsers of
# outside input (JSON nesting, profile weights, whole numbers), fed
# hostile documents by the codec and support suites. Each line reports
# its wall time.
ASAN_BUILD="${BUILD}-asan"
ASAN_TESTS=(CodeCacheTest OSRTest DeoptTest CompileQueueTest FuzzTest
            TelemetryTest ReportSchemaTest QualityMonitorTest
            DeterminismMatrixTest ExperimentTest ProfileRepositoryTest
            InterpreterTest VMRuntimeTest VMUnitTest DCGTest
            ParallelRunnerTest ProfileIOTest SupportTest)
cmake -B "$ASAN_BUILD" -S . -DCBSVM_SANITIZE=address,undefined
cmake --build "$ASAN_BUILD" -j --target "${ASAN_TESTS[@]}" cbsvm
asan_timed() {
  local Start
  Start=$(date +%s%N)
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 "$@"
  echo "asan: ${1##*/} took $(( ($(date +%s%N) - Start) / 1000000 )) ms"
}
for T in "${ASAN_TESTS[@]}"; do
  asan_timed "$ASAN_BUILD/tests/$T" --gtest_brief=1
done
asan_timed "$ASAN_BUILD/tools/cbsvm" fuzz --runs 25 --seed 1

if [[ "${CBSVM_SKIP_TSAN:-}" != "1" ]]; then
  echo "== thread sanitizer: worker pool + parallel engine + compile queue + OSR + repository + determinism matrix + shard oracle =="
  TSAN_BUILD="${BUILD}-tsan"
  cmake -B "$TSAN_BUILD" -S . -DCBSVM_SANITIZE=thread
  cmake --build "$TSAN_BUILD" -j \
    --target ParallelRunnerTest CompileQueueTest OSRTest \
             ProfileRepositoryTest DeterminismMatrixTest FuzzTest
  # Of FuzzTest only the campaign whose workers share the
  # shard-determinism oracle's one long-lived runner.
  (cd "$TSAN_BUILD" && CBSVM_JOBS=8 \
    ctest --output-on-failure \
      -R '^(WorkerPool|ParallelRunner|CompileQueue|Osr|ProfileRepository|DeterminismMatrix|Fuzzer\.ShardDeterminismCampaignIsJobsInvariant$)')
fi

echo "== all checks passed =="
