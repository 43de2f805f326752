#!/usr/bin/env bash
# Tier-1 verification of CBSVM. Stages, in order:
#  - configure, build (warnings are errors), ctest fast tier, full
#    suite (its DeterminismMatrixTest is the one home of byte-identity
#    across --compile-jobs and ParallelRunner jobs)
#  - observability smoke: trace and metrics agree
#  - fuzz smoke: jobs 1 vs 8, broken-oracle artifact replay
#  - parallel determinism: table2a sweep at --jobs 1 vs 8
#  - CLI determinism: warm start at baseline vs compile-jobs 4
#  - compile queue, deoptimization, on-stack replacement
#  - self-observability report, profile repository warm start
#  - text/JSON agreement (cbsvm report/stats, then the fast bench
#    binaries); writes to a full device fail
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

echo "== tests: full suite =="
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)")

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

# The trace and the metrics registry must agree on the sample count.
python3 - "$WORK/trace.json" "$WORK/metrics.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
metrics = json.load(open(sys.argv[2]))
samples = sum(1 for e in trace["traceEvents"] if e["name"] == "sample")
ticks = sum(1 for e in trace["traceEvents"] if e["name"] == "timer_tick")
assert samples == metrics["counters"]["vm.samples_taken"], \
    (samples, metrics["counters"]["vm.samples_taken"])
assert ticks == metrics["counters"]["vm.timer_ticks"], \
    (ticks, metrics["counters"]["vm.timer_ticks"])
print(f"trace/metrics agree: {samples} samples, {ticks} ticks")
EOF

echo "== fuzz smoke =="
# A short differential-fuzzing campaign: 25 seeds through every builtin
# oracle must come back clean, and the parallel campaign must report
# exactly what the serial one does.
"$CBSVM" fuzz --runs 25 --seed 1 --jobs 1 | tee "$WORK/fuzz1.txt"
"$CBSVM" fuzz --runs 25 --seed 1 --jobs 8 >"$WORK/fuzz8.txt"
cmp "$WORK/fuzz1.txt" "$WORK/fuzz8.txt"
echo "fuzz jobs=1 and jobs=8 reports are byte-identical"

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

echo "== parallel determinism =="
# One sweep serial, one fanned out over 8 workers: the JSON reports must
# be byte-identical (the engine commits results in grid-index order).
CBSVM_RUNS=1 "$BUILD/bench/table2a_jikes_sweep" --json "$WORK/jobs1.json" --jobs 1 >/dev/null
CBSVM_RUNS=1 "$BUILD/bench/table2a_jikes_sweep" --json "$WORK/jobs8.json" --jobs 8 >/dev/null
cmp "$WORK/jobs1.json" "$WORK/jobs8.json"
echo "jobs=1 and jobs=8 sweeps are byte-identical"

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

echo "== compile queue =="
# Install-point re-validation: a long modelled latency on the phased
# workload must leave plans stale by install time, and the report must
# surface the queue traffic.
"$CBSVM" run jess --aos --metrics-json "$WORK/aos-metrics.json" >/dev/null
"$CBSVM" report phased --aos --compile-latency-scale 25 \
  --json "$WORK/aos-report.json" >/dev/null
"$CBSVM" jsoncheck "$WORK/aos-report.json"
python3 - "$WORK/aos-report.json" "$WORK/aos-metrics.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
queue = report["aos"]["queue"]
assert queue["installs"] >= 1, queue
assert queue["stale_drops"] >= 1, queue
assert queue["enqueued"] >= queue["installs"], queue
metrics = json.load(open(sys.argv[2]))
gauges = metrics["gauges"]
for name in ("depth", "enqueued", "installs", "stale_drops",
             "coalesced", "dropped"):
    assert f"aos.queue.{name}" in gauges, name
assert gauges["aos.queue.installs"] >= 1, gauges
print(f"compile queue: {queue['installs']} installs, "
      f"{queue['stale_drops']} stale drops re-validated at install")
# Graveyard reclamation does not need OSR: once the run finishes, every
# retired version has been freed exactly once.
retired = gauges["code.recompiles"] + gauges["code.invalidations"]
assert retired >= 1, gauges
assert gauges["code.graveyard_instructions"] == 0, gauges
assert gauges["code.graveyard_reclaims"] == retired, gauges
print(f"code cache: all {retired} retired versions reclaimed without OSR")
EOF

echo "== deoptimization =="
# Guard policing end to end on the phased workload: the quality monitor
# must flag the hot-set swap, the phase-shift trigger must deoptimize
# the stale speculative versions and recompile them, and the quality
# timeline must recover after the repair (the last window's overlap
# beats the post-shift trough).
"$CBSVM" report phased --deopt-threshold 40 --decay-ticks 8 \
  --phase-threshold 70 --json "$WORK/deopt.json" >/dev/null
"$CBSVM" jsoncheck "$WORK/deopt.json"
python3 - "$WORK/deopt.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
deopt = report["aos"]["deopt"]
assert report["quality"]["phaseShifts"] >= 1, report["quality"]
assert deopt["count"] >= 1, deopt
assert deopt["phaseShiftDeopts"] >= 1, deopt
assert deopt["recompiles"] >= 1, deopt
overlap = [w["overlapPct"] for w in report["quality"]["windows"]]
trough = min(overlap)
assert overlap[-1] > trough, overlap
print(f"deopt: {deopt['count']} deopts ({deopt['phaseShiftDeopts']} "
      f"phase-shift), {deopt['recompiles']} recompiles; overlap "
      f"recovered {trough:.1f} -> {overlap[-1]:.1f}")
EOF

echo "== on-stack replacement =="
# OSR end to end on the phased workload: a fast compile pipeline plus a
# policing threshold that kills mid-loop speculation makes frames
# transfer onto replacement versions at backedge yieldpoints, and the
# pin-tracked graveyard must be fully reclaimed once the last pinned
# frame leaves (the report runs the VM to completion, so zero retained
# graveyard instructions is an exact end-of-run invariant).
"$CBSVM" report phased --osr --compile-latency-scale 0.2 \
  --deopt-threshold 60 --json "$WORK/osr.json" >/dev/null
"$CBSVM" jsoncheck "$WORK/osr.json"
python3 - "$WORK/osr.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
osr = report["osr"]
assert osr["entries"] >= 1, osr
assert osr["graveyardReclaimedInstructions"] > 0, osr
assert osr["graveyardReclaims"] >= 1, osr
assert osr["graveyardInstructions"] == 0, osr
print(f"osr: {osr['entries']} promotions, {osr['exits']} deopt exits; "
      f"{osr['graveyardReclaimedInstructions']} graveyard instructions "
      f"reclaimed across {osr['graveyardReclaims']} frees, none retained")
EOF

# The osr-stability oracle over 25 long-loop programs (loops long
# enough for installs to land mid-frame), and the campaign report must
# not depend on the worker count.
"$CBSVM" fuzz --oracle osr-stability --long-loops --runs 25 --seed 1 \
  --jobs 1 | tee "$WORK/osrfuzz1.txt"
"$CBSVM" fuzz --oracle osr-stability --long-loops --runs 25 --seed 1 \
  --jobs 8 >"$WORK/osrfuzz8.txt"
cmp "$WORK/osrfuzz1.txt" "$WORK/osrfuzz8.txt"
echo "osr-stability fuzz jobs=1 and jobs=8 are byte-identical"

echo "== self-observability report =="
# The monitored phase-shift workload: the quality monitor must see the
# hot-set swap (>= 1 phase_shift dump), and the overhead components must
# sum to the reported total fraction.
"$CBSVM" report phased --decay-ticks 4 --decay-factor 0.5 \
  --every-ticks 4 --phase-threshold 75 --json "$WORK/report.json" >/dev/null
"$CBSVM" jsoncheck "$WORK/report.json"
python3 - "$WORK/report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
dumps = [d["trigger"] for d in report["flightRecorder"]["dumps"]]
assert "phase_shift" in dumps, dumps
windows = report["quality"]["windows"]
assert windows and report["quality"]["phaseShifts"] >= 1
overhead = report["overhead"]
total = sum(c["fractionPct"] for c in overhead["components"])
assert abs(total - overhead["totalFractionPct"]) < 1e-9, \
    (total, overhead["totalFractionPct"])
print(f"report: {len(windows)} windows, {len(dumps)} dumps "
      f"({', '.join(dumps)}), overhead {total:.3f}% fully attributed")
EOF

echo "== profile repository warm start =="
# The persistent repository end to end: the first monitored run over a
# fresh repository is a miss that commits its profile; the second run
# warm-starts from that entry and must reach its first optimized
# install strictly earlier than the cold run did (the time-to-peak
# benefit the repository exists to buy).
"$CBSVM" report phased --aos --profile-repo "$WORK/repo" \
  --json "$WORK/warm1.json" >/dev/null
"$CBSVM" report phased --aos --profile-repo "$WORK/repo" \
  --json "$WORK/warm2.json" >/dev/null
"$CBSVM" jsoncheck "$WORK/warm1.json"
"$CBSVM" jsoncheck "$WORK/warm2.json"
python3 - "$WORK/warm1.json" "$WORK/warm2.json" <<'EOF'
import json, sys
cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))
assert cold["repo"]["loaded"] == 0, cold["repo"]
assert cold["repo"]["committed"] == 1, cold["repo"]
assert warm["repo"]["loaded"] == 1, warm["repo"]
assert warm["repo"]["rejected"] == 0, warm["repo"]
assert warm["repo"]["runs"] == 1, warm["repo"]
assert warm["repo"]["committed"] == 1, warm["repo"]
cold_first = cold["aos"]["queue"]["firstInstallCycle"]
warm_first = warm["aos"]["queue"]["firstInstallCycle"]
assert cold_first > 0, cold["aos"]["queue"]
assert 0 < warm_first < cold_first, (cold_first, warm_first)
assert "warm" not in cold["aos"], cold["aos"].keys()
assert warm["aos"]["warm"]["enqueued"] >= 1, warm["aos"]["warm"]
print(f"warm start: first install {cold_first} -> {warm_first} cycles "
      f"({warm['aos']['warm']['enqueued']} methods pre-enqueued)")
EOF

echo "== text/JSON agreement =="
# Every text view is rendered from the JSON document the same command
# writes with --json, so each section path of the document must title a
# text section, each object scalar must show as a "key  lexeme" row, and
# each table cell's lexeme (a nested container's element count) must
# appear. Numbers are compared as their exact JSON lexemes.
check_text_json() {
  python3 - "$1" "$2" "$3" <<'EOF'
import json, re, sys
doc = json.loads(open(sys.argv[1]).read(), parse_float=str, parse_int=str)
text = open(sys.argv[2]).read()
lines = text.splitlines()
missing = []

def lexeme(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (dict, list)):
        return str(len(v))
    return json.dumps(v)[1:-1]  # number lexeme or escaped string

def walk(path, v):
    if not v:
        return
    if path and f"{path}:" not in lines:
        missing.append(f"section {path}")
    if isinstance(v, dict):
        for key, m in v.items():
            name = f"{path}.{key}" if path else key
            if isinstance(m, (dict, list)):
                walk(name, m)
                continue
            row = re.compile(rf"^{re.escape(key)}\s+{re.escape(lexeme(m))}\s*$")
            if not any(row.match(line) for line in lines):
                missing.append(f"row {name} = {lexeme(m)}")
        return
    for element in v:
        cells = element.values() if isinstance(element, dict) else [element]
        for cell in cells:
            if lexeme(cell) not in text:
                missing.append(f"cell of {path}: {lexeme(cell)}")

walk("", doc)
assert not missing, missing[:10]
print(f"{sys.argv[3]}: text view shows every section and scalar of the JSON")
EOF
}
AGREEDIR="$WORK/agree"
mkdir "$AGREEDIR"
AGREE_ARGS=(phased --aos --osr --deopt-threshold 60 \
  --profile-repo "$AGREEDIR/repo")
# A cold run seeds the repository so the compared runs are warm starts
# (the report then has every section); both start from the same entry.
"$CBSVM" report "${AGREE_ARGS[@]}" --json "$AGREEDIR/cold.json" >/dev/null
cp -r "$AGREEDIR/repo" "$AGREEDIR/seeded"
"$CBSVM" report "${AGREE_ARGS[@]}" >"$AGREEDIR/report.txt"
rm -rf "$AGREEDIR/repo"
cp -r "$AGREEDIR/seeded" "$AGREEDIR/repo"
"$CBSVM" report "${AGREE_ARGS[@]}" --json "$AGREEDIR/report.json" >/dev/null
check_text_json "$AGREEDIR/report.json" "$AGREEDIR/report.txt" report
"$CBSVM" stats jess --aos >"$AGREEDIR/stats.txt"
"$CBSVM" stats jess --aos --json - >"$AGREEDIR/stats.json"
check_text_json "$AGREEDIR/stats.json" "$AGREEDIR/stats.txt" stats

echo "== bench text/JSON agreement =="
# Every table/figure binary prints its text and its --json from the same
# report rows. On the fast binaries, each JSON output must be valid and
# each JSON row's cell lexemes must appear, in order, on one line of the
# text.
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
# a missed pin is a use-after-free. Run the suites and a fuzz campaign
# that recompile, deoptimize and transfer frames under ASan + UBSan, the
# suites that drive the VM counters, the report and the flight recorder,
# the determinism matrix, which drives every run feature at once, the
# experiment and repository suites, which drive exp::Run through
# measureThroughput, runWarmStart and the --profile-repo driver path,
# the interpreter's own suites, whose operand stack is raw pointers
# into a growable arena, and the profile repository's map code (self-merge
# doubling in place, decay erasing while it iterates).
ASAN_BUILD="${BUILD}-asan"
ASAN_TESTS=(CodeCacheTest OSRTest DeoptTest CompileQueueTest FuzzTest
            TelemetryTest ReportSchemaTest QualityMonitorTest
            DeterminismMatrixTest ExperimentTest ProfileRepositoryTest
            InterpreterTest VMRuntimeTest VMUnitTest DCGTest)
cmake -B "$ASAN_BUILD" -S . -DCBSVM_SANITIZE=address,undefined
cmake --build "$ASAN_BUILD" -j --target "${ASAN_TESTS[@]}" cbsvm
for T in "${ASAN_TESTS[@]}"; do
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    "$ASAN_BUILD/tests/$T" --gtest_brief=1
done
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  "$ASAN_BUILD/tools/cbsvm" fuzz --runs 25 --seed 1

if [[ "${CBSVM_SKIP_TSAN:-}" != "1" ]]; then
  echo "== thread sanitizer: parallel engine + compile queue + OSR + repository + determinism matrix =="
  TSAN_BUILD="${BUILD}-tsan"
  cmake -B "$TSAN_BUILD" -S . -DCBSVM_SANITIZE=thread
  cmake --build "$TSAN_BUILD" -j \
    --target ParallelRunnerTest CompileQueueTest OSRTest \
             ProfileRepositoryTest DeterminismMatrixTest
  (cd "$TSAN_BUILD" && CBSVM_JOBS=8 \
    ctest --output-on-failure \
      -R '^(ParallelRunner|CompileQueue|Osr|ProfileRepository|DeterminismMatrix)')
fi

echo "== all checks passed =="
