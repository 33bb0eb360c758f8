//===- Compiler.cpp - The full pipeline of Fig 3 -------------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"

#include "ad/Vjp.h"
#include "check/Verify.h"
#include "ir/Printer.h"
#include "opt/Simplify.h"
#include "parser/Desugar.h"
#include "support/Utils.h"
#include "trace/Trace.h"
#include "uniq/Uniqueness.h"

#include <sstream>

using namespace fut;

std::string fut::CompilerOptions::cacheCanonical() const {
  // One line per knob, fixed order.  VerifyIR and the test hooks are
  // deliberately absent: they gate acceptance, not output.
  std::ostringstream OS;
  OS << "fusion=" << EnableFusion << ";kernels=" << ExtractKernels
     << ";interchange=" << Flatten.EnableInterchange
     << ";segreduce=" << Flatten.EnableSegReduce
     << ";kreduce=" << Flatten.KernelizeReduce
     << ";coalesce=" << Locality.EnableCoalescing
     << ";tile=" << Locality.EnableTiling;
  // The AD stage only enters the key when it is on: no --vjp, no key
  // change.
  if (!VJP.empty())
    OS << ";vjp=" << VJP;
  return OS.str();
}

std::string fut::DeviceProgram::str() const { return printProgram(*this); }

uint64_t fut::CompileResult::fingerprint() const {
  std::ostringstream Meta;
  Meta << "fusion=" << Fusion.Vertical << "," << Fusion.Redomap << ","
       << Fusion.StreamFusions << "," << Fusion.Horizontal
       << ";flatten=" << Flatten.kernels() << "," << Flatten.SegReduces
       << "," << Flatten.SegScans << "," << Flatten.Interchanges << ","
       << Flatten.SequentialisedSOACs
       << ";locality=" << Locality.CoalescedInputs << ","
       << Locality.TiledInputs;
  uint64_t H = fnv1a64(P.str());
  H = fnv1a64(MemPlan.str(), H);
  return fnv1a64(Meta.str(), H);
}

uint64_t fut::artifactCacheKey(const std::string &Source,
                               const CompilerOptions &Opts) {
  uint64_t H = fnv1a64(Source);
  // NUL separator so (source, options) pairs cannot collide by sliding
  // bytes across the boundary.
  H = fnv1a64(std::string(1, '\0'), H);
  return fnv1a64(Opts.cacheCanonical(), H);
}

ErrorOr<CompileResult> fut::compileProgram(Program P, NameSource &Names,
                                           const CompilerOptions &Opts) {
  trace::ScopedSpan CompileSpan("compile", "compiler");
  // Each pass boundary: optional test-only corruption hook, then the
  // type-rederiving verifier.
  auto AfterPass = [&](const std::string &Pass,
                       bool Flattened) -> MaybeError {
    if (Opts.PostPassHook)
      Opts.PostPassHook(P, Pass);
    if (!Opts.VerifyIR)
      return MaybeError::success();
    trace::ScopedSpan Span("verify:" + Pass, "compiler");
    VerifyOptions VO;
    VO.Flattened = Flattened;
    // The ablation pipelines deliberately leave SOACs on the host: with
    // KernelizeReduce off reductions stay sequential, and without G5 a
    // vectorised reduce falls back to the histogram-style host path.
    VO.AllowHostSOACs =
        !Opts.Flatten.KernelizeReduce || !Opts.Flatten.EnableSegReduce;
    return verifyProgram(P, Pass, VO);
  };

  if (auto Err = AfterPass("frontend", false))
    return Err;
  {
    trace::ScopedSpan Span("pass:uniqueness", "compiler");
    if (auto Err = checkProgramUniqueness(P))
      return Err.getError();
  }

  CompileResult R;
  {
    trace::ScopedSpan Span("pass:inline", "compiler");
    inlineFunctions(P, Names);
    // The function about to be differentiated must survive DCE even when
    // main does not call it (the usual case: main *is* the primal).
    removeDeadFunctions(P, Opts.VJP.empty()
                               ? std::vector<std::string>{}
                               : std::vector<std::string>{Opts.VJP});
    if (auto Err = AfterPass("inline", false))
      return Err;
  }

  // Function-transform stage: reverse-mode AD.  Runs after inlining (the
  // primal must be call-free) and before flattening, so the generated
  // adjoint SOACs are still host-level and flow through fusion and kernel
  // extraction like hand-written code.
  if (!Opts.VJP.empty()) {
    {
      trace::ScopedSpan Span("pass:ad-vjp", "compiler");
      auto Stats = ad::vjpProgram(P, Opts.VJP, Names);
      if (!Stats)
        return Stats.getError();
    }
    if (auto Err = AfterPass("ad-vjp", false))
      return Err;
  }

  simplifyProgram(P, Names);
  if (auto Err = AfterPass("simplify", false))
    return Err;

  if (Opts.EnableFusion) {
    R.Fusion = fuseProgram(P, Names);
    if (auto Err = AfterPass("fusion", false))
      return Err;
    simplifyProgram(P, Names);
    if (auto Err = AfterPass("simplify-post-fusion", false))
      return Err;
  }

  if (Opts.ExtractKernels) {
    R.Flatten = extractKernels(P, Names, Opts.Flatten);
    if (auto Err = AfterPass("kernel-extraction", true))
      return Err;
    simplifyProgram(P, Names);
    if (auto Err = AfterPass("simplify-post-extraction", true))
      return Err;
    R.Locality = optimiseLocality(P, Opts.Locality);
    if (auto Err = AfterPass("locality", true))
      return Err;

    {
      trace::ScopedSpan Span("pass:memplan", "compiler");
      R.MemPlan = mem::planMemory(P);
    }
    if (Opts.PostPlanHook)
      Opts.PostPlanHook(R.MemPlan);
    if (Opts.VerifyIR) {
      trace::ScopedSpan Span("verify:memplan", "compiler");
      if (auto Err = verifyMemoryPlan(P, R.MemPlan, "memplan"))
        return Err;
    }

    {
      trace::ScopedSpan Span("pass:shardplan", "compiler");
      R.Shards = shard::planShards(P);
    }
    if (Opts.PostShardPlanHook)
      Opts.PostShardPlanHook(R.Shards);
    if (Opts.VerifyIR) {
      trace::ScopedSpan Span("verify:shardplan", "compiler");
      if (auto Err = verifyShardPlan(P, R.Shards, "shardplan"))
        return Err;
    }
  }

  R.P = std::move(P);
  return R;
}

ErrorOr<CompileResult> fut::compileSource(const std::string &Source,
                                          NameSource &Names,
                                          const CompilerOptions &Opts) {
  ErrorOr<Program> P = [&] {
    trace::ScopedSpan Span("pass:frontend", "compiler");
    return frontend(Source, Names);
  }();
  if (!P)
    return P.getError();
  return compileProgram(P.take(), Names, Opts);
}

ErrorOr<gpusim::RunResult> fut::runOnDevice(const Program &P,
                                            const std::vector<Value> &Args,
                                            const DeviceRunOptions &Opts,
                                            const std::string &Fun) {
  gpusim::Device D(Opts.Device, Opts.Resilience);
  if (Opts.MemPlan)
    D.setMemoryPlan(Opts.MemPlan);
  if (Opts.Shards && Opts.Devices > 1)
    D.setShardPlan(Opts.Shards, Opts.Devices);
  return D.run(P, Fun, Args);
}
