#!/usr/bin/env bash
#===- scripts/ci.sh - tier-1 verification pipeline -----------------------===//
#
# Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
#
# The canonical local/CI entry point.  Runs the full tier-1 verify
# (configure, build, complete ctest suite) and then re-runs the fault and
# differential suites on their own so a resilience or bit-identity
# regression is named explicitly in the log even when someone trims the
# main suite.  Every compiled-vs-reference check takes its reference from
# fuzz::referenceRun and compares outputs with firstDifference
# (src/interp/Value.h); fuzz::runSourceDifferential (src/fuzz) wraps both
# for the DifferentialTest configurations, the regression corpus and the
# one futharkcc-fuzz sweep over the leg table below.  Each filtered
# ctest leg runs with --no-tests=error, so a filter that stops matching
# after a rename fails instead of passing on zero tests; the fuzz sweep's
# summary must likewise list every leg with all its seeds.
#
# Environment:
#   FUTHARKCC_SANITIZE=ON   build with ASan+UBSan (default OFF)
#   BUILD_DIR=<path>        build tree (default: build)
#   JOBS=<n>                parallelism (default: nproc)
#
#===----------------------------------------------------------------------===//

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"
SANITIZE="${FUTHARKCC_SANITIZE:-OFF}"

echo "== configure (sanitize=${SANITIZE}) =="
# Warnings are errors here, so a new one fails the build section.
cmake -B "$BUILD_DIR" -S . -DFUTHARKCC_SANITIZE="$SANITIZE" \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== tier-1: full test suite =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== verifier + fuzz regression corpus =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'VerifyTest|RegressTest|FuzzTest'

echo "== strict numeric CLI flags =="
# The four CLIs parse argv through one flag table each (src/support/Flags.h)
# and every numeric flag through one strict helper: trailing text or a
# fraction on an integer flag, and an unknown option, are usage errors
# (exit 2); every value flag also takes the --flag=value form.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'ParseNumArgTest|FlagsTest|DriverCliTest'
expect_exit() {
  want=$1
  shift
  rc=0
  "$@" >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq "$want" ] || { echo "$* exited $rc, want $want"; exit 1; }
}
cc="$BUILD_DIR"/src/driver/futharkcc
serve="$BUILD_DIR"/src/serve/futharkcc-serve
fuzz="$BUILD_DIR"/src/fuzz/futharkcc-fuzz
tune="$BUILD_DIR"/src/tune/futharkcc-tune
expect_exit 2 "$cc" --device-mem 12abc examples/kmeans.fut --run
expect_exit 2 "$cc" --bogus examples/kmeans.fut
expect_exit 0 "$cc" --devices=2 examples/kmeans.fut --run
expect_exit 2 "$serve" --builtin 2x
expect_exit 2 "$serve" --bogus --builtin 2
expect_exit 0 "$serve" --builtin=2 --quiet
expect_exit 2 "$fuzz" --seed 3x
expect_exit 2 "$fuzz" --bogus
expect_exit 0 "$fuzz" --seed=3 --no-shrink
expect_exit 2 "$tune" --rounds 1.5 --list
expect_exit 2 "$tune" --bogus
expect_exit 0 "$tune" --rounds=1 --list

echo "== oracle hygiene: the kernel simulator shares no code with the interpreter =="
# The reference interpreter is the oracle the simulator is checked
# against, so KernelSim must not reach it, not even through a header.
if ${CXX:-c++} -std=c++20 -Isrc -MM src/gpusim/KernelSim.cpp |
    grep -q 'interp/Interp\.h'; then
  echo "src/gpusim/KernelSim.cpp includes interp/Interp.h"
  exit 1
fi
# Nor may the interpreter reach the simulator: its frames and name
# resolution are written independently of KernelSim's.
if ${CXX:-c++} -std=c++20 -Isrc -MM src/interp/Interp.cpp |
    grep -q 'gpusim/'; then
  echo "src/interp/Interp.cpp includes a gpusim/ header"
  exit 1
fi

echo "== oracle hygiene: one output comparison =="
# firstDifference (src/interp/Value.h) decides every "do these outputs
# agree": exact, with a relative tolerance only where a benchmark declares
# one per output.  No program code may fall back on approxEqual's blanket
# tolerance.
if grep -rn --include='*.cpp' --include='*.h' 'approxEqual' src |
    grep -v '^src/interp/Value\.'; then
  echo "approxEqual called under src/ outside interp/Value.*"
  exit 1
fi

echo "== one IR schema: per-kind code is derived from the field lists =="
# Each expression class lists its fields once (fields() in src/ir/IR.h);
# the traversals, clone and the artifact codec are derived from those
# lists through src/ir/Fields.h, so none of them may switch on the
# expression kind again.
if grep -n 'case ExpKind::' src/ir/Traversal.cpp src/ir/IR.cpp \
    src/serve/ArtifactStore.cpp; then
  echo "a per-kind switch is back: derive it from the field lists instead"
  exit 1
fi

echo "== thread hygiene: code on the warp pool never reaches the trace session =="
# KernelSim runs a large launch's warp ranges on a pool of host threads.
# TraceSession is global and not thread-safe, so kernel spans stay on the
# launching thread in Device.cpp: neither the simulator nor the pool may
# include a trace/ header, not even through another header.
for f in src/gpusim/KernelSim.cpp src/gpusim/WarpPool.cpp; do
  if ${CXX:-c++} -std=c++20 -Isrc -MM "$f" | grep -q 'trace/'; then
    echo "$f includes a trace/ header"
    exit 1
  fi
done

echo "== differential fuzz sweep: every leg against one reference run =="
# A deterministic 3000-program sweep.  Each seed runs once on the
# reference interpreter and, on every leg of fuzz::sweepLegs(), through
# the full pipeline (with the IR verifier, the only pass-boundary IR
# check, enabled after every pass) on the simulated device; it compiles
# once per device count.  Legs: default; split (DeviceParams::
# ForceSplitRanges, which cuts every launch that can split into ranges
# of less than a warp: no fuzz launch splits by itself, see
# WarpRanges.FuzzKernelsNeverSplit); devices2 (sharded); hist-global and
# hist-global-devices2 (the global-atomic histogram lowering, alone and
# with partial-histogram merges); pipeline (the pipeline cost model);
# lanes (DeviceParams::ForceLaneByLane, which runs every warp's lanes one
# after another instead of as warp steps).
# Each leg must give the reference's outputs bit for bit or its identical
# typed error; split and lanes must keep default's cost line byte for
# byte, and pipeline default's model-independent counters (launches,
# traffic, atomics, coalescing split).  Runs in every configuration, so
# the sanitized matrix leg executes it under ASan+UBSan.  The summary must
# give all seven legs, each with all 3000 seeds and no failure, so a leg
# that ran short or not at all fails the run instead of passing
# unchecked.  The leg names live in sweepLegs(), pinned by
# FuzzTest.SweepLegsAreFixed.
"$BUILD_DIR"/src/fuzz/futharkcc-fuzz --seed-range 1..3000 \
  --out "$BUILD_DIR"/fuzz-failures 2>&1 | tee "$BUILD_DIR"/ci_fuzz.log
legs=$(grep -c '^leg ' "$BUILD_DIR"/ci_fuzz.log || true)
clean=$(grep -c '^leg [^:]*: 3000 seeds, 0 failure(s),' \
  "$BUILD_DIR"/ci_fuzz.log || true)
if [ "$legs" -ne 7 ] || [ "$clean" -ne 7 ]; then
  echo "fuzz summary gives $clean clean legs of $legs, want 7 of 7"
  exit 1
fi

echo "== mem-plan leg: plan verifier + observed peak within the plan =="
# Observed PeakDeviceBytes stays within the plan-derived bound on the
# whole bench suite (BenchmarkSweep, whose reference run also pins the
# uniqueness consume counts), and the plan verifier rejects corrupted
# plans.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'CompilesRunsAndMatchesReference|BufferManagerTest|MemPlan|VerifyTest'
# --print-mem-plan dumps the static plan for a real program.
"$BUILD_DIR"/src/driver/futharkcc --print-mem-plan examples/kmeans.fut \
  > "$BUILD_DIR"/ci_memplan.txt 2>/dev/null
grep -q "memory plan" "$BUILD_DIR"/ci_memplan.txt
grep -q "slab 0" "$BUILD_DIR"/ci_memplan.txt
# The observed peak must stay within the planner's static bound.
"$BUILD_DIR"/src/driver/futharkcc examples/kmeans.fut --run \
  >/dev/null 2>"$BUILD_DIR"/ci_plan.log
python3 - "$BUILD_DIR" <<'EOF'
import re, sys
bd = sys.argv[1]
def field(log, key):
    m = re.search(key + r"=(\d+)", open(log).read())
    assert m, f"no {key} in {log}"
    return int(m.group(1))
planned = field(f"{bd}/ci_plan.log", "plannedpeak")
peak_plan = field(f"{bd}/ci_plan.log", "peakbytes")
assert planned > 0, "planner produced no placement for kmeans"
assert peak_plan <= planned, \
    f"observed peak {peak_plan} exceeds static bound {planned}"
print(f"ok: kmeans plan peak {peak_plan} <= bound {planned} bytes")
EOF

echo "== fault-injection suite =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'FaultPlanTest|FaultsTest'

echo "== differential suite (reference interpreter vs device) =="
# DifferentialTest runs the fuzzer's seeds 1..20 through the one oracle,
# fuzz::runSourceDifferential, fault-free, under faults with retries and
# interpreter fallback, and sharded; ServeDifferentialTest serves the same
# seeds.  Each seed must give bit-identical outputs or the identical typed
# error.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'Differential'

echo "== ThreadSanitizer leg: warp ranges run race-free on the pool =="
# The simulator's tests built with -fsanitize=thread in a tree of their
# own: every gpusim test binary (the pinned CostLineGolden cost lines and
# the WarpRanges split and merge-order tests among them) and the
# device-only BenchmarkSweep tests.  Any ThreadSanitizer report fails.
TSAN_DIR="${BUILD_DIR}-tsan"
TSAN_TESTS="gpusim_device_test gpusim_segmented_test gpusim_faults_test
  gpusim_timeline_test gpusim_histogram_test gpusim_costmodel_test
  gpusim_costline_golden_test gpusim_warp_ranges_test"
cmake -B "$TSAN_DIR" -S . -DFUTHARKCC_SANITIZE=OFF \
  -DCMAKE_CXX_FLAGS=-fsanitize=thread
# shellcheck disable=SC2086
cmake --build "$TSAN_DIR" -j "$JOBS" --target $TSAN_TESTS bench_suite_test
# The pool runs one thread fewer than the CPUs in the affinity mask: on
# one CPU every range runs on the calling thread and nothing here races.
TSAN_CPUS=$(python3 -c 'import os; print(len(os.sched_getaffinity(0)))')
echo "ThreadSanitizer leg: ${TSAN_CPUS} CPU(s) in the affinity mask"
if [ "$TSAN_CPUS" -le 1 ]; then
  echo "ThreadSanitizer leg: WARNING: one CPU, so every warp range runs on" \
    "the caller and this leg checks no concurrency"
fi
export TSAN_OPTIONS="halt_on_error=1"
for t in $TSAN_TESTS; do
  "$TSAN_DIR"/tests/gpusim/"$t" --gtest_brief=1
done
"$TSAN_DIR"/tests/bench_suite/bench_suite_test --gtest_brief=1 \
  --gtest_filter='*BenchmarkSweep.PlannedPeakIsEnoughDeviceMemory/*:*BenchmarkSweep.ReferenceConfigurationRuns/*'
unset TSAN_OPTIONS

echo "== trace suite (counters + Chrome export) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'TraceCounters|TraceExport'

echo "== smoke: --trace-out produces a loadable Chrome trace =="
"$BUILD_DIR"/src/driver/futharkcc --trace-out "$BUILD_DIR"/ci_trace.json \
  examples/kmeans.fut >/dev/null
python3 - "$BUILD_DIR"/ci_trace.json <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
evs = t["traceEvents"]
kernels = [e for e in evs if e["ph"] == "X" and e["name"].startswith("kernel:")]
passes = [e for e in evs if e["ph"] == "X" and e["name"].startswith("pass:")]
assert kernels, "no kernel spans in trace"
assert passes, "no pass spans in trace"
assert all("cycles" in e.get("args", {}) for e in kernels)
no_host_cost = [e["name"] for e in kernels
                if "host_ns_per_op" not in e.get("args", {})]
assert not no_host_cost, f"kernel spans without host_ns_per_op: {no_host_cost}"
print(f"ok: {len(passes)} pass spans, {len(kernels)} kernel spans")
EOF

echo "== smoke: async two-engine timeline vs --sync serial model =="
"$BUILD_DIR"/src/driver/futharkcc --sync \
  --trace-out "$BUILD_DIR"/ci_trace_sync.json \
  examples/kmeans.fut >/dev/null 2>"$BUILD_DIR"/ci_sync.log
"$BUILD_DIR"/src/driver/futharkcc \
  --trace-out "$BUILD_DIR"/ci_trace_async.json \
  examples/kmeans.fut >/dev/null 2>"$BUILD_DIR"/ci_async.log
python3 - "$BUILD_DIR" <<'EOF'
import json, re, sys
bd = sys.argv[1]
def cycles(log):
    m = re.search(r"cycles=(\d+)", open(log).read())
    assert m, f"no device cycle line in {log}"
    return int(m.group(1))
sync, async_ = cycles(f"{bd}/ci_sync.log"), cycles(f"{bd}/ci_async.log")
assert async_ <= sync, f"async timeline slower than serial: {async_} > {sync}"
evs = json.load(open(f"{bd}/ci_trace_async.json"))["traceEvents"]
names = {e["args"]["name"] for e in evs
         if e["ph"] == "M" and e["name"] == "thread_name"}
assert {"copy-engine", "compute-engine"} <= names, f"engine tracks missing: {names}"
print(f"ok: kmeans async {async_} <= sync {sync} cycles; engine tracks present")
EOF

echo "== serve suite (artifact cache, admission, quarantine) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'Serve|ArtifactHash'

echo "== serve soak: seeded fault-injected workload drains clean =="
# 32 requests over the built-in program mix with a 40% injected
# launch-failure rate and 10% corruption: every request must complete
# (retried, quarantine-recompiled, or degraded to the interpreter),
# every successful response must be bit-identical to the reference
# interpreter (--check exits 1 on any cross-request contamination), and
# the queue must drain to exactly one response per submission (the
# binary exits 1 on a count mismatch).
"$BUILD_DIR"/src/serve/futharkcc-serve --builtin 32 --fault-rate 0.4 \
  --corrupt-rate 0.1 --fault-seed 1 --check --quiet \
  2>"$BUILD_DIR"/ci_serve_soak.log
grep -q "0 mismatches" "$BUILD_DIR"/ci_serve_soak.log
# Nothing may be silently dropped or left hanging under faults.
grep -Eq "32 submitted, 32 admitted, 32 completed, 0 failed" \
  "$BUILD_DIR"/ci_serve_soak.log

echo "== serve bench: sustained rate + cache hit rate into BENCH_trace =="
# bench_serve exits 1 itself when any request fails or the hit rate on
# the repeated-program workload drops below 90%; the python pass
# re-asserts from the machine-readable trace rows that CI and notebooks
# consume.  Each bench binary writes its rows to its own --trace-out file.
(cd "$BUILD_DIR" && ./bench/bench_serve --trace-out BENCH_trace_serve.json \
  >/dev/null)
python3 - "$BUILD_DIR"/BENCH_trace_serve.json <<'EOF'
import json, sys
rows = {r["benchmark"]: r for r in json.load(open(sys.argv[1]))["benchmarks"]}
tp, soak = rows["serve_throughput"], rows["serve_soak"]
assert tp["completed"] == tp["requests"], "throughput leg dropped requests"
assert tp["cache_hit_rate"] >= 0.9, \
    f"cache hit rate {tp['cache_hit_rate']:.2%} below 90%"
assert tp["requests_per_sec"] > 0, "no sustained rate reported"
assert soak["completed"] == soak["requests"], \
    "soak leg dropped requests under 40% faults"
assert soak["counters"].get("serve.cache_evictions", 0) == 0, \
    "fault recovery evicted healthy artifacts"
print(f"ok: {tp['requests_per_sec']:.0f} req/s simulated, "
      f"{tp['cache_hit_rate']:.1%} hit rate, "
      f"soak {soak['completed']:.0f}/{soak['requests']:.0f} under faults")
EOF

echo "== shard leg: multi-device differential and scaling =="
# The sharding test layer: property tests that the shard-plan verifier
# rejects corrupted plans (wrong widths, input classes or histogram
# marking, dropped transfers) and that blockCuts partitions every width,
# the pinned plan dumps + N=1 no-op invariant, and the 20-seed
# differential sweep at 1/2/4 devices (Sharded* legs).
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'ShardVerifyTest|ShardPlanGolden|Sharded'
# The fuzz sweep's devices2 and hist-global-devices2 legs cover the
# sharded path on 3000 seeds.
# --print-shard-plan dumps the decomposition for a real program.
"$BUILD_DIR"/src/driver/futharkcc --devices 4 --print-shard-plan \
  examples/kmeans.fut > "$BUILD_DIR"/ci_shardplan.txt 2>/dev/null
grep -q "shard plan (devices=4)" "$BUILD_DIR"/ci_shardplan.txt
grep -q "sharded width=" "$BUILD_DIR"/ci_shardplan.txt
# Scaling: bench_shard exits 1 itself unless >= 2 aligned-chain members
# reach 1.5x at 4 devices; the python pass re-asserts from the
# machine-readable trace that the 2-device makespan never exceeds the
# 1-device makespan on every member that must scale.
(cd "$BUILD_DIR" && ./bench/bench_shard --trace-out BENCH_trace_shard.json \
  >/dev/null)
python3 - "$BUILD_DIR"/BENCH_trace_shard.json <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))["benchmarks"]
by = {}
for r in rows:
    by.setdefault(r["benchmark"], {})[int(r["devices"])] = r
wins = 0
for name, curve in sorted(by.items()):
    if name == "reduce-tail":
        continue  # documented anti-pattern member (all-gather tax)
    assert curve[2]["makespan"] <= curve[1]["makespan"], \
        f"{name}: 2-device makespan exceeds 1-device"
    if curve[4]["speedup"] >= 1.5:
        wins += 1
assert wins >= 2, f"only {wins} members reached 1.5x at 4 devices"
print(f"ok: {wins} members >= 1.5x at 4 devices; 2-device <= 1-device")
EOF

echo "== histogram leg: lowering switch, atomic accounting, contention =="
# The reduce_by_index layer: the local-vs-global lowering switch at
# HistLocalWidthMax (bit-identical results either side, distinct cost
# profiles), exactly-once atomic accounting under fault-injected retries
# (failed launches charge nothing, corrupted attempts charge in full),
# and the pinned hist-merge shard plan.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'HistLoweringTest|HistFaultsTest|ShardPlanGolden'
# The fuzz sweep's hist-global legs cover the global-atomic strategy on
# 3000 seeds, alone and with partial-histogram merges.
# bench_histogram exits 1 itself unless the CGO'20 shapes verify against
# the interpreter and beat their reference baselines, conflicts fall
# monotonically as the width grows, and the lowering switch trades
# conflicts for local traffic; the python pass re-asserts the contention
# curve from the machine-readable trace.
(cd "$BUILD_DIR" && ./bench/bench_histogram \
  --trace-out BENCH_trace_hist.json >/dev/null)
python3 - "$BUILD_DIR"/BENCH_trace_hist.json <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))["benchmarks"]
shapes = [r for r in rows if r["benchmark"].startswith("histogram-")]
assert len(shapes) >= 3, f"expected 3 CGO'20 shapes, got {len(shapes)}"
for r in shapes:
    assert r["speedup"] >= 1.0, \
        f"{r['benchmark']}: {r['speedup']:.2f}x below its reference baseline"
curve = sorted((r for r in rows if r["benchmark"] == "hist-contention"),
               key=lambda r: r["width"])
assert len(curve) >= 4, "contention sweep missing widths"
confl = [r["atomic_conflicts"] for r in curve]
assert all(a >= b for a, b in zip(confl, confl[1:])), \
    f"conflicts not monotone non-increasing in width: {confl}"
assert confl[0] > confl[-1], "narrowest width is not the conflict worst case"
switch = {r["device"]: r for r in rows if r["benchmark"] == "hist-switch"}
assert switch["local"]["atomic_conflicts"] == 0, \
    "local subhistograms charged global conflicts"
assert switch["global"]["atomic_conflicts"] > 0, \
    "global atomics saw no contention on the sweep input"
print(f"ok: {len(shapes)} shapes >= 1.0x; conflicts {int(confl[0])} -> "
      f"{int(confl[-1])} over the width sweep; switch local=0/global="
      f"{int(switch['global']['atomic_conflicts'])} conflicts")
EOF

echo "== cost-model leg: roofline vs pipeline, tuner =="
# The pluggable CostModel seam: unit suites for the seam itself (exact
# roofline formula, typed Config errors, profile observables) and the
# autotuner's contracts.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'CostModelTest|TuneTest'
# The fuzz sweep's pipeline leg covers the other model on 3000 seeds:
# outputs bit-identical to the reference interpreter, and default's
# model-independent counters.
# bench_costmodel runs the sixteen-benchmark suite under both models,
# asserts output/counter agreement per benchmark, and records the E16
# calibration table (roofline vs pipeline cycles, divergence profile).
(cd "$BUILD_DIR" && ./bench/bench_costmodel \
  --trace-out BENCH_trace_costmodel.json >/dev/null)
python3 - "$BUILD_DIR"/BENCH_trace_costmodel.json <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))["benchmarks"]
assert len(rows) == 16, f"expected 16 calibration rows, got {len(rows)}"
for r in rows:
    assert r["outputs_identical"] == 1, f"{r['benchmark']}: outputs diverged"
    assert r["pipeline_kernel_cycles"] >= r["roofline_kernel_cycles"], \
        f"{r['benchmark']}: pipeline undercuts roofline"
div = sum(1 for r in rows if r["divergent_warps"] > 0)
print(f"ok: 16 benchmarks agree across models; {div} show warp divergence")
EOF
# Tuner smoke: the cycle-oracle autotuner must find >= 2 benchmarks that
# improve by >= 10% simulated cycles with bit-identical outputs (the
# binary exits 1 on any output mismatch or if the bar is missed).
"$BUILD_DIR"/src/tune/futharkcc-tune --rounds 2 --min-wins 2 \
  --min-improvement 10 --json "$BUILD_DIR"/ci_tune.json \
  > "$BUILD_DIR"/ci_tune.log
grep -q "benchmark(s) improved" "$BUILD_DIR"/ci_tune.log

echo "== AD leg: VJP unit suites, gradient-check fuzz, training bench =="
# The reverse-mode AD layer: per-construct adjoint rules over the core IR
# (VjpTest), and the gradient fuzzer's own contracts including the
# shrinker (GradFuzzTest).
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'VjpTest|GradFuzzTest'
# 3000-seed gradient-check sweep: random smooth f64 programs compiled
# with --vjp=main through the full pipeline (every per-pass verifier and
# the memory-plan verifier run on the adjoint code), adjoints executed
# on the simulated device and compared against central finite
# differences.  Any seed beyond the 1e-4 relative tolerance fails the
# sweep and a shrunk reproducer lands in the failure directory.
"$BUILD_DIR"/src/fuzz/futharkcc-fuzz --vjp --seed-range 1..3000 \
  --out "$BUILD_DIR"/fuzz-failures-vjp
# bench_ad exits 1 itself unless both training workloads (logistic
# regression through an unrolled GD loop, kmeans by host-driven GD)
# converge, the device gradients match finite differences, and the tape
# stays within the planned peak; the python pass re-asserts the E17
# acceptance numbers from the machine-readable trace.
(cd "$BUILD_DIR" && ./bench/bench_ad --trace-out BENCH_trace_ad.json \
  >/dev/null)
python3 - "$BUILD_DIR"/BENCH_trace_ad.json <<'EOF'
import json, sys
rows = {r["benchmark"]: r for r in json.load(open(sys.argv[1]))["benchmarks"]}
for name in ("ad-logreg-train", "ad-kmeans-gd"):
    r = rows[name]
    assert r["grad_rel_err"] < 1e-4, \
        f"{name}: gradient error {r['grad_rel_err']:.2e} beyond 1e-4"
    assert 0 <= r["tape_planned_bytes"] <= r["planned_peak_bytes"], \
        f"{name}: tape {r['tape_planned_bytes']} outside plan peak " \
        f"{r['planned_peak_bytes']}"
    assert r["vjp_cycles"] > r["primal_cycles"] > 0, \
        f"{name}: implausible cycle counts"
lr = rows["ad-logreg-train"]
# The unrolled-loop workload must actually tape loop-carried state;
# kmeans drives GD from the host, so its device tape is legitimately 0.
assert lr["tape_planned_bytes"] > 0, "logreg taped nothing"
assert lr["loss_trained"] < lr["loss_untrained"], \
    "unrolled GD failed to reduce the training loss"
print(f"ok: grad err logreg {rows['ad-logreg-train']['grad_rel_err']:.1e} / "
      f"kmeans {rows['ad-kmeans-gd']['grad_rel_err']:.1e}; tape "
      f"{int(lr['tape_planned_bytes'])} B <= plan peak "
      f"{int(lr['planned_peak_bytes'])} B; vjp overhead "
      f"{lr['vjp_overhead']:.2f}x")
EOF

echo "== bench trajectory: merged BENCH_trace.json at repo root =="
# The legs above wrote their rows to one file each (serve, shard, hist,
# costmodel, ad).  Merge them into one trajectory file at the repo root —
# the single artifact CI uploads and notebooks diff across commits — and
# assert its schema: a non-empty benchmarks array whose rows all carry
# benchmark/device names and a counters object.
python3 - "$BUILD_DIR" <<'EOF'
import json, sys
bd = sys.argv[1]
merged = []
for leg in ("serve", "shard", "hist", "costmodel", "ad"):
    merged += json.load(open(f"{bd}/BENCH_trace_{leg}.json"))["benchmarks"]
assert merged, "no benchmark rows to merge"
json.dump({"benchmarks": merged}, open("BENCH_trace.json", "w"), indent=1)
check = json.load(open("BENCH_trace.json"))
assert isinstance(check["benchmarks"], list) and check["benchmarks"], \
    "merged trajectory is empty"
for r in check["benchmarks"]:
    assert isinstance(r.get("benchmark"), str) and r["benchmark"], \
        f"row without benchmark name: {r}"
    assert isinstance(r.get("device"), str), f"row without device: {r}"
    assert isinstance(r.get("counters"), dict), \
        f"row without counters object: {r['benchmark']}"
print(f"ok: {len(merged)} schema-checked rows merged into ./BENCH_trace.json")
EOF

echo "== bench baseline: every simulated bench column matches BENCH_baseline.json =="
# Re-runs every bench binary and compares each simulated column, each trace counter and each report table
# against the committed baseline; any difference fails.  A change that
# moves simulated numbers on purpose regenerates the baseline with
# `python3 scripts/bench_baseline.py <build-dir> --update` and says why.
python3 scripts/bench_baseline.py "$BUILD_DIR"

echo "== hygiene: build artifacts never land in the source tree =="
# Regression guard for the stray libfut_*.a incident: a build must leave
# the tracked tree untouched and must not scatter archives or objects
# under src/ or tests/ (the out-of-tree build owns all artifacts).
STRAYS=$(find src tests bench examples -name '*.a' -o -name '*.o' | head)
if [ -n "$STRAYS" ]; then
  echo "stray build artifacts in the source tree:" >&2
  echo "$STRAYS" >&2
  exit 1
fi
DIRTY=$(git status --porcelain)
if [ -n "$DIRTY" ]; then
  echo "working tree dirty after build + test run:" >&2
  echo "$DIRTY" >&2
  exit 1
fi
echo "ok: source tree clean"

echo "== ci.sh: all green =="
