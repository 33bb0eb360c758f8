//===- Main.cpp - The futharkcc command-line compiler ------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line driver: compiles a source file through the pipeline of
/// Fig 3, optionally dumping the IR after each phase, and optionally
/// running the entry point on the reference interpreter or the simulated
/// GPU with arguments given on the command line.
///
///   futharkcc prog.fut                      # compile, report statistics
///   futharkcc prog.fut --dump-ir            # print the final IR
///   futharkcc prog.fut --run 4 "[1,2,3,4]"  # run main on the device
///   futharkcc prog.fut --interp --run ...   # run on the interpreter
///   futharkcc prog.fut --no-fusion --no-coalescing --no-tiling ...
///   futharkcc prog.fut --device w8100 --run ...
///
/// Array arguments use the literal syntax [v1,v2,...]; element kind is
/// inferred from the first element (i32 by default, f32 with a decimal
/// point).
///
//===----------------------------------------------------------------------===//

#include "ad/Vjp.h"
#include "driver/Compiler.h"
#include "driver/ToolFlags.h"
#include "gpusim/CostModel.h"
#include "gpusim/Device.h"
#include "interp/Interp.h"
#include "ir/Printer.h"
#include "parser/Desugar.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace fut;

int main(int argc, char **argv) {
  std::vector<std::string> Files, RunArgs;
  bool DumpIR = false, UseInterp = false, Run = false;
  bool PrintMemPlan = false;
  bool PrintShardPlan = false;
  cli::TraceFlags Trace;
  CompilerOptions Opts;
  int Devices = 1;
  gpusim::DeviceParams DP;
  gpusim::ResilienceParams RP;
  using cli::number, cli::toggle;
  cli::Command Cmd{
      .Synopsis = "futharkcc <file.fut> [options] [--run args...]",
      .Flags = {
          toggle("--dump-ir", "print the compiled IR", DumpIR),
          toggle("--interp", "run on the reference interpreter", UseInterp),
          cli::devicePreset(DP),
          cli::costModel("kernel cycle model: roofline (closed-form, "
                         "default) or pipeline (warp scheduling, divergence, "
                         "coalescer queue, bank conflicts); outputs and "
                         "transaction counters are the same under both",
                         DP),
          toggle("--no-fusion", "disable the fusion engine",
                 Opts.EnableFusion, false),
          toggle("--no-coalescing", "disable the coalescing transformation",
                 Opts.Locality.EnableCoalescing, false),
          toggle("--no-tiling", "disable block tiling",
                 Opts.Locality.EnableTiling, false),
          toggle("--no-interchange", "disable map-loop interchange (G7)",
                 Opts.Flatten.EnableInterchange, false),
          toggle("--verify-ir", "check IR types after every pass (default)",
                 Opts.VerifyIR),
          toggle("--no-verify-ir", "skip that check", Opts.VerifyIR, false),
          toggle("--print-mem-plan", "dump the static memory plan",
                 PrintMemPlan),
          cli::text("--vjp", "<f>",
                    "add <f>_vjp, the reverse-mode derivative of <f>: the "
                    "primal results plus the adjoint of every float "
                    "parameter; --run then runs it (primal args, then one "
                    "seed per float result)",
                    Opts.VJP),
          number("--devices", "<n>",
                 "shard kernels across <n> simulated devices (default 1)",
                 Devices, 1),
          toggle("--print-shard-plan", "dump the multi-device shard plan",
                 PrintShardPlan),
          number("--device-mem", "<b>",
                 "device memory in bytes (0 = unlimited)", DP.DeviceMemBytes),
          number("--watchdog", "<c>", "kill a kernel over <c> cycles",
                 DP.WatchdogKernelCycles),
          number("--watchdog-total", "<c>", "kill the run over <c> cycles",
                 DP.WatchdogTotalCycles),
          number("--fault-rate", "<p>", "transient launch-failure probability",
                 RP.Faults.LaunchFailRate),
          number("--corrupt-rate", "<p>", "detected corruption probability",
                 RP.Faults.CorruptRate),
          number("--fault-seed", "<n>", "seed of the fault stream",
                 RP.Faults.Seed),
          number("--max-retries", "<n>", "retries per kernel (default 3)",
                 RP.MaxRetries),
          toggle("--no-fallback", "fail instead of falling back to the "
                 "interpreter", RP.InterpFallback, false),
          toggle("--sync", "serial cost model ablation: one blocking queue, "
                 "no copy/compute overlap", DP.AsyncTimeline, false),
          Trace.summaryFlag(),
          Trace.fileFlag(),
          {.Name = "--run",
           .Meta = "v1 v2 ...",
           .Help = "run main on scalars (3, 2.5, true) or arrays ([1,2,3]); "
                   "when traced, a parameterless main runs without it",
           .Set = [&](const std::string &) { return Run = true; },
           .Rest = &RunArgs},
      },
      .Args = &Files,
      .MinArgs = 1,
      .MaxArgs = 1};
  if (auto Exit = Cmd.parse(argc, argv))
    return *Exit;
  const std::string &File = Files[0];

  std::ifstream In(File);
  if (!In) {
    fprintf(stderr, "error: cannot open %s\n", File.c_str());
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Source = Buf.str();

  // Every exit from here on emits whatever was traced, so a failed run
  // still produces an inspectable trace.
  Trace.begin();
  auto Fail = [&](const std::string &Msg) {
    fprintf(stderr, "%s\n", Msg.c_str());
    Trace.finish();
    return 1;
  };

  NameSource Names;
  auto C = compileSource(Source, Names, Opts);
  if (!C)
    return Fail(File + ": " + C.getError().str());

  fprintf(stderr,
          "%s: %d vertical + %d redomap + %d stream + %d horizontal + %d "
          "hist fusions; %d kernels (%d seg-reduce, %d seg-scan, %d "
          "seg-hist), %d interchanges, %d sequentialised SOACs; %d "
          "coalesced, %d tiled inputs\n",
          File.c_str(), C->Fusion.Vertical, C->Fusion.Redomap,
          C->Fusion.StreamFusions, C->Fusion.Horizontal,
          C->Fusion.HistFusions, C->Flatten.kernels(),
          C->Flatten.SegReduces, C->Flatten.SegScans, C->Flatten.SegHists,
          C->Flatten.Interchanges, C->Flatten.SequentialisedSOACs,
          C->Locality.CoalescedInputs, C->Locality.TiledInputs);

  if (DumpIR)
    printf("%s\n", printProgram(C->P).c_str());
  if (PrintMemPlan)
    printf("%s", C->MemPlan.str().c_str());
  if (PrintShardPlan)
    printf("%s", C->Shards.str(C->P, Devices).c_str());

  // With tracing requested but no --run, a parameterless entry point is
  // run automatically so the trace includes kernel launches.  Under --vjp
  // the entry point is the generated gradient function.
  const std::string Entry =
      Opts.VJP.empty() ? std::string("main") : ad::vjpName(Opts.VJP);
  const FunDef *Main = C->P.findFun(Entry);
  bool AutoRun = Trace.enabled() && !Run && !UseInterp && Main &&
                 Main->Params.empty();
  if (RunArgs.empty() && !AutoRun && !(Run && Main && Main->Params.empty()))
    return Trace.finish();

  std::vector<Value> Args;
  for (const std::string &S : RunArgs) {
    auto V = parseValue(S);
    if (!V)
      return Fail("argument error: " + V.getError().Message);
    Args.push_back(std::move(*V));
  }

  std::vector<Value> Outputs;
  if (UseInterp) {
    Interpreter I(C->P);
    auto R = I.runFunction(Entry, Args);
    if (!R)
      return Fail("runtime error: " + R.getError().str());
    Outputs = R.take();
  } else {
    DeviceRunOptions RO;
    RO.Device = DP;
    RO.Resilience = RP;
    RO.MemPlan = &C->MemPlan;
    if (Devices > 1) {
      RO.Shards = &C->Shards;
      RO.Devices = Devices;
    }
    auto R = runOnDevice(C->P, Args, RO, Entry);
    if (!R)
      return Fail(R.getError().str());
    if (R->InterpFallback)
      fprintf(stderr,
              "device [%s]: persistent failure (%s); completed on the "
              "reference interpreter\n",
              DP.Name.c_str(), R->FallbackError.str().c_str());
    Outputs = std::move(R->Outputs);
    fprintf(stderr, "device [%s]: %s\n", DP.Name.c_str(),
            R->Cost.str().c_str());
  }
  for (const Value &V : Outputs)
    printf("%s\n", V.str().c_str());
  return Trace.finish();
}
