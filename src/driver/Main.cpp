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
#include "gpusim/CostModel.h"
#include "gpusim/Device.h"
#include "interp/Interp.h"
#include "ir/Printer.h"
#include "parser/Desugar.h"
#include "support/Utils.h"
#include "trace/Trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace fut;

namespace {

void usage() {
  fprintf(stderr,
          "usage: futharkcc <file.fut> [options] [--run args...]\n"
          "  --dump-ir          print the compiled IR\n"
          "  --interp           run on the reference interpreter\n"
          "  --device <name>    gtx780 (default) or w8100\n"
          "  --cost-model <m>   kernel cycle model: roofline (closed-form\n"
          "                     default) or pipeline (warp-scheduler\n"
          "                     occupancy, divergence serialisation,\n"
          "                     coalescer queue, bank conflicts); outputs\n"
          "                     and transaction counters are identical\n"
          "                     under either model\n"
          "  --no-fusion        disable the fusion engine\n"
          "  --no-coalescing    disable the coalescing transformation\n"
          "  --no-tiling        disable block tiling\n"
          "  --no-interchange   disable map-loop interchange (G7)\n"
          "  --verify-ir        re-derive and check IR types after every\n"
          "                     pass (default; --no-verify-ir disables)\n"
          "  --print-mem-plan   dump the static memory plan (slab layout,\n"
          "                     aliases, live ranges) after compilation\n"
          "  --vjp <f>          differentiate <f> (reverse-mode AD): adds\n"
          "                     <f>_vjp returning the primal results plus\n"
          "                     the adjoint of every float parameter; --run\n"
          "                     then executes <f>_vjp (primal args followed\n"
          "                     by one seed per float result)\n"
          "  --devices <n>      shard kernels across <n> simulated devices\n"
          "                     (default 1: single-device, bit-identical to\n"
          "                     the pre-sharding model)\n"
          "  --print-shard-plan dump the multi-device shard plan (block\n"
          "                     ownership, input classes, transfer edges)\n"
          "  --device-mem <b>   device memory capacity in bytes (0 = "
          "unlimited)\n"
          "  --watchdog <c>     kill any kernel over <c> simulated cycles\n"
          "  --watchdog-total <c>  kill the run over <c> simulated cycles\n"
          "  --fault-rate <p>   inject transient launch failures with "
          "probability p\n"
          "  --corrupt-rate <p> inject detected result corruption with "
          "probability p\n"
          "  --fault-seed <n>   seed of the deterministic fault stream\n"
          "  --max-retries <n>  transient-fault retries per kernel "
          "(default 3)\n"
          "  --no-fallback      fail instead of degrading to the "
          "interpreter\n"
          "  --sync             serial cost model ablation: charge every\n"
          "                     command as if the device had one blocking\n"
          "                     queue (disables copy/compute overlap)\n"
          "  --trace            print a span/counter summary to stderr\n"
          "  --trace-out <file> write a Chrome trace_event JSON file\n"
          "                     (load in chrome://tracing or Perfetto);\n"
          "                     a parameterless main is run automatically\n"
          "  --run v1 v2 ...    run main on the given arguments\n"
          "arguments: scalars (3, 2.5, true) or arrays ([1,2,3], "
          "[1.5,2.5])\n");
}

/// Parses a command-line value: a scalar or a [..] literal.
ErrorOr<Value> parseValue(const std::string &S) {
  auto ParseScalar = [](const std::string &T) -> ErrorOr<PrimValue> {
    if (T == "true")
      return PrimValue::makeBool(true);
    if (T == "false")
      return PrimValue::makeBool(false);
    try {
      if (T.find('.') != std::string::npos ||
          T.find('e') != std::string::npos)
        return PrimValue::makeF32(std::stof(T));
      return PrimValue::makeI32(static_cast<int32_t>(std::stol(T)));
    } catch (...) {
      return CompilerError("cannot parse value '" + T + "'");
    }
  };

  if (S.empty())
    return CompilerError("empty argument");
  if (S.front() != '[') {
    auto P = ParseScalar(S);
    if (!P)
      return P.getError();
    return Value::scalar(*P);
  }
  if (S.back() != ']')
    return CompilerError("unterminated array literal");
  std::vector<PrimValue> Elems;
  std::string Inner = S.substr(1, S.size() - 2);
  std::stringstream SS(Inner);
  std::string Tok;
  while (std::getline(SS, Tok, ',')) {
    // Trim whitespace.
    size_t B = Tok.find_first_not_of(" \t");
    size_t E = Tok.find_last_not_of(" \t");
    if (B == std::string::npos)
      continue;
    auto P = ParseScalar(Tok.substr(B, E - B + 1));
    if (!P)
      return P.getError();
    Elems.push_back(*P);
  }
  if (Elems.empty())
    return CompilerError("empty array literals need a kind; not supported");
  ScalarKind Kind = Elems[0].kind();
  int64_t N = static_cast<int64_t>(Elems.size());
  for (const PrimValue &E : Elems)
    if (E.kind() != Kind)
      return CompilerError("mixed element kinds in array literal");
  return Value::array(Kind, {N}, std::move(Elems));
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 2;
  }

  std::string File;
  bool DumpIR = false, UseInterp = false, Run = false;
  bool PrintMemPlan = false;
  bool PrintShardPlan = false;
  bool TraceSummary = false;
  std::string TraceOut;
  CompilerOptions Opts;
  int Devices = 1;
  // The --device preset applies first, wherever it is, so that the device
  // flags on either side of it refine it.
  auto Preset = gpusim::devicePresetFromArgs(argc, argv, "--run");
  if (!Preset) {
    fprintf(stderr, "%s\n", Preset.getError().Message.c_str());
    return 2;
  }
  gpusim::DeviceParams DP = *Preset;
  gpusim::ResilienceParams RP;
  std::vector<std::string> RunArgs;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (Run) {
      RunArgs.push_back(A);
    } else if (A == "--dump-ir") {
      DumpIR = true;
    } else if (A == "--interp") {
      UseInterp = true;
    } else if (A == "--no-fusion") {
      Opts.EnableFusion = false;
    } else if (A == "--no-coalescing") {
      Opts.Locality.EnableCoalescing = false;
    } else if (A == "--no-tiling") {
      Opts.Locality.EnableTiling = false;
    } else if (A == "--no-interchange") {
      Opts.Flatten.EnableInterchange = false;
    } else if (A == "--verify-ir") {
      Opts.VerifyIR = true;
    } else if (A == "--no-verify-ir") {
      Opts.VerifyIR = false;
    } else if (A == "--print-mem-plan") {
      PrintMemPlan = true;
    } else if (A == "--print-shard-plan") {
      PrintShardPlan = true;
    } else if (A == "--vjp") {
      if (++I >= argc) {
        usage();
        return 2;
      }
      Opts.VJP = argv[I];
    } else if (A.rfind("--vjp=", 0) == 0) {
      Opts.VJP = A.substr(strlen("--vjp="));
      if (Opts.VJP.empty()) {
        usage();
        return 2;
      }
    } else if (A == "--devices") {
      if (++I >= argc || !parseNumArg(argv[I], Devices) || Devices < 1) {
        usage();
        return 2;
      }
    } else if (A.rfind("--devices=", 0) == 0) {
      if (!parseNumArg(A.substr(strlen("--devices=")), Devices) ||
          Devices < 1) {
        usage();
        return 2;
      }
    } else if (A == "--device") {
      if (++I >= argc) { // the preset is already applied
        usage();
        return 2;
      }
    } else if (A == "--cost-model" || A.rfind("--cost-model=", 0) == 0) {
      std::string Name;
      if (A == "--cost-model") {
        if (++I >= argc) {
          usage();
          return 2;
        }
        Name = argv[I];
      } else {
        Name = A.substr(strlen("--cost-model="));
      }
      if (!gpusim::CostModel::byName(Name)) {
        fprintf(stderr, "unknown cost model '%s'\n", Name.c_str());
        return 2;
      }
      DP.CostModelName = Name;
    } else if (A == "--device-mem") {
      if (++I >= argc || !parseNumArg(argv[I], DP.DeviceMemBytes)) {
        usage();
        return 2;
      }
    } else if (A == "--watchdog") {
      if (++I >= argc || !parseNumArg(argv[I], DP.WatchdogKernelCycles)) {
        usage();
        return 2;
      }
    } else if (A == "--watchdog-total") {
      if (++I >= argc || !parseNumArg(argv[I], DP.WatchdogTotalCycles)) {
        usage();
        return 2;
      }
    } else if (A == "--fault-rate") {
      if (++I >= argc || !parseNumArg(argv[I], RP.Faults.LaunchFailRate)) {
        usage();
        return 2;
      }
    } else if (A == "--corrupt-rate") {
      if (++I >= argc || !parseNumArg(argv[I], RP.Faults.CorruptRate)) {
        usage();
        return 2;
      }
    } else if (A == "--fault-seed") {
      if (++I >= argc || !parseNumArg(argv[I], RP.Faults.Seed)) {
        usage();
        return 2;
      }
    } else if (A == "--max-retries") {
      if (++I >= argc || !parseNumArg(argv[I], RP.MaxRetries)) {
        usage();
        return 2;
      }
    } else if (A == "--no-fallback") {
      RP.InterpFallback = false;
    } else if (A == "--sync") {
      DP.AsyncTimeline = false;
    } else if (A == "--trace") {
      TraceSummary = true;
    } else if (A == "--trace-out") {
      if (++I >= argc) {
        usage();
        return 2;
      }
      TraceOut = argv[I];
    } else if (A.rfind("--trace-out=", 0) == 0) {
      TraceOut = A.substr(strlen("--trace-out="));
    } else if (A == "--run") {
      Run = true;
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      fprintf(stderr, "unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    } else {
      File = A;
    }
  }
  if (File.empty()) {
    usage();
    return 2;
  }

  std::ifstream In(File);
  if (!In) {
    fprintf(stderr, "error: cannot open %s\n", File.c_str());
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Source = Buf.str();

  bool Tracing = TraceSummary || !TraceOut.empty();
  if (Tracing) {
    trace::TraceSession::global().clear();
    trace::TraceSession::global().setEnabled(true);
  }

  // Emit whatever was traced even on early exits, so a failed run still
  // produces an inspectable trace.
  auto ExportTrace = [&]() -> int {
    if (!Tracing)
      return 0;
    if (TraceSummary)
      fprintf(stderr, "%s", trace::TraceSession::global().summary().c_str());
    if (!TraceOut.empty()) {
      if (auto Err = trace::TraceSession::global().writeChromeTrace(TraceOut)) {
        fprintf(stderr, "trace error: %s\n",
                Err.getError().Message.c_str());
        return 1;
      }
      fprintf(stderr, "trace written to %s\n", TraceOut.c_str());
    }
    return 0;
  };

  NameSource Names;
  auto C = compileSource(Source, Names, Opts);
  if (!C) {
    ExportTrace();
    fprintf(stderr, "%s: %s\n", File.c_str(),
            C.getError().str().c_str());
    return 1;
  }

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
  bool AutoRun = Tracing && !Run && !UseInterp && Main &&
                 Main->Params.empty();
  if (RunArgs.empty() && !AutoRun && !(Run && Main && Main->Params.empty()))
    return ExportTrace();

  std::vector<Value> Args;
  for (const std::string &S : RunArgs) {
    auto V = parseValue(S);
    if (!V) {
      fprintf(stderr, "argument error: %s\n", V.getError().Message.c_str());
      ExportTrace();
      return 1;
    }
    Args.push_back(std::move(*V));
  }

  std::vector<Value> Outputs;
  if (UseInterp) {
    Interpreter I(C->P);
    auto R = I.runFunction(Entry, Args);
    if (!R) {
      fprintf(stderr, "runtime error: %s\n", R.getError().str().c_str());
      ExportTrace();
      return 1;
    }
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
    if (!R) {
      fprintf(stderr, "%s\n", R.getError().str().c_str());
      ExportTrace();
      return 1;
    }
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
  return ExportTrace();
}
