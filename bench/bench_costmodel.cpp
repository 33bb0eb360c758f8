//===- bench_costmodel.cpp - Roofline vs pipeline calibration (E16) --------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// Runs the full sixteen-benchmark suite under both kernel cost models and
// prints the per-benchmark calibration table of EXPERIMENTS.md E16:
// roofline cycles, pipeline cycles, their ratio, and the pipeline-only
// observables (divergent warps, coalescer excess, bank-conflict extra).
//
// Two invariants are asserted per benchmark:
//
//  * outputs are bit-identical under either model (and against the
//    reference interpreter) — the cost model prices cycles, it must never
//    change what a program computes;
//  * the model-independent counters (kernel launches, global transactions,
//    transferred bytes, atomic traffic, local accesses, and the
//    Coalesced + Scattered == GlobalTransactions decomposition) are
//    exactly equal across models.
//
// All rows land in BENCH_trace.json for CI's schema check.
//
//===----------------------------------------------------------------------===//

#include "bench_suite/BenchTrace.h"
#include "bench_suite/Benchmarks.h"

#include <cstdio>
#include <string>

using namespace fut;
using namespace fut::bench;

namespace {

bool counterMismatch(const char *Name, int64_t A, int64_t B, bool &Ok) {
  if (A == B)
    return false;
  printf("    COUNTER MISMATCH %s: roofline %lld, pipeline %lld\n", Name,
         static_cast<long long>(A), static_cast<long long>(B));
  Ok = false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  printf("Cost-model calibration: roofline vs pipeline (E16)\n\n");
  printf("%-16s | %12s %12s %6s | %6s %6s %10s %8s\n", "benchmark",
         "roofline", "pipeline", "ratio", "warps", "divrg", "coalexcess",
         "bankconf");

  BenchTraceWriter Trace(traceOutPath(Argc, Argv));
  bool Ok = true;

  for (const BenchmarkDef &B : allBenchmarks()) {
    gpusim::DeviceParams Roof = gpusim::DeviceParams::gtx780();
    Roof.CostModelName = "roofline";
    gpusim::DeviceParams Pipe = Roof;
    Pipe.CostModelName = "pipeline";

    // Verify=true pins the roofline run against the reference
    // interpreter; the pipeline run is then compared against it.
    Trace.beginRun();
    auto R = runBenchmark(B, CompilerOptions(), Roof, /*Verify=*/true);
    if (!R) {
      printf("%-16s FAILED (roofline): %s\n", B.Name.c_str(),
             R.getError().Message.c_str());
      return 1;
    }
    auto P = runBenchmark(B, CompilerOptions(), Pipe);
    if (!P) {
      printf("%-16s FAILED (pipeline): %s\n", B.Name.c_str(),
             P.getError().Message.c_str());
      return 1;
    }

    // Invariant 1: bit-identical outputs.
    std::string Diff = firstDifference(P->Outputs, R->Outputs);
    bool Identical = Diff.empty();
    if (!Identical) {
      printf("%-16s OUTPUT DIVERGENCE between cost models: %s\n",
             B.Name.c_str(), Diff.c_str());
      Ok = false;
    }

    // Invariant 2: model-independent counters are exactly equal.
    const gpusim::CostReport &RC = R->Cost;
    const gpusim::CostReport &PC = P->Cost;
    counterMismatch("KernelLaunches", RC.KernelLaunches, PC.KernelLaunches,
                    Ok);
    counterMismatch("GlobalTransactions", RC.GlobalTransactions,
                    PC.GlobalTransactions, Ok);
    counterMismatch("TransferredBytes", RC.TransferredBytes,
                    PC.TransferredBytes, Ok);
    counterMismatch("AtomicTransactions", RC.AtomicTransactions,
                    PC.AtomicTransactions, Ok);
    counterMismatch("AtomicConflicts", RC.AtomicConflicts,
                    PC.AtomicConflicts, Ok);
    counterMismatch("LocalAccesses", RC.LocalAccesses, PC.LocalAccesses,
                    Ok);
    for (const gpusim::CostReport *CR : {&RC, &PC})
      if (CR->CoalescedTransactions + CR->ScatteredTransactions !=
          CR->GlobalTransactions) {
        printf("%-16s coalescing decomposition broken under %s\n",
               B.Name.c_str(), CR->CostModelUsed.c_str());
        Ok = false;
      }

    // Each run accumulates both models' totals, so either report carries
    // the calibration pair; the pipeline run also carries the profile.
    double Ratio = PC.PipelineKernelCycles > 0 && RC.RooflineKernelCycles > 0
                       ? PC.PipelineKernelCycles / PC.RooflineKernelCycles
                       : 0;
    printf("%-16s | %12.0f %12.0f %6.2f | %6lld %6lld %10lld %8lld\n",
           B.Name.c_str(), PC.RooflineKernelCycles, PC.PipelineKernelCycles,
           Ratio, static_cast<long long>(PC.WarpsSimulated),
           static_cast<long long>(PC.DivergentWarps),
           static_cast<long long>(PC.CoalescerExcessTx),
           static_cast<long long>(PC.BankConflictExtra));

    Trace.record(B.Name, "gtx780",
                 {{"roofline_kernel_cycles", PC.RooflineKernelCycles},
                  {"pipeline_kernel_cycles", PC.PipelineKernelCycles},
                  {"pipeline_ratio", Ratio},
                  {"warps", static_cast<double>(PC.WarpsSimulated)},
                  {"divergent_warps",
                   static_cast<double>(PC.DivergentWarps)},
                  {"coalescer_excess_tx",
                   static_cast<double>(PC.CoalescerExcessTx)},
                  {"bank_conflict_extra",
                   static_cast<double>(PC.BankConflictExtra)},
                  {"global_tx", static_cast<double>(PC.GlobalTransactions)},
                  {"outputs_identical", Identical ? 1.0 : 0.0}});
  }

  if (!Trace.write())
    fprintf(stderr, "warning: could not write %s\n", Trace.path().c_str());
  else
    printf("\ncost-model calibration written to %s\n", Trace.path().c_str());
  return Ok ? 0 : 1;
}
