//===- Fuzz.cpp - Seeded well-typed program fuzzer ------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"

#include "driver/Compiler.h"
#include "interp/Interp.h"
#include "parser/Desugar.h"
#include "support/Utils.h"

#include <functional>
#include <optional>
#include <sstream>

using namespace fut;
using namespace fut::fuzz;

//===----------------------------------------------------------------------===//
// Plan sampling
//===----------------------------------------------------------------------===//

Plan fut::fuzz::samplePlan(uint64_t Seed) {
  // Mix the seed so consecutive seeds give unrelated plans.
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);

  Plan P;
  P.N = 4 + static_cast<int64_t>(Rng.nextBelow(37));
  int Steps = 3 + static_cast<int>(Rng.nextBelow(5));
  for (int I = 0; I < Steps; ++I) {
    Step S;
    S.K = static_cast<Step::Kind>(Rng.nextBelow(16));
    S.Variant = static_cast<int>(Rng.nextBelow(5));
    S.Pos = static_cast<int64_t>(Rng.nextBelow(8)) + 2;
    S.Small = static_cast<int64_t>(Rng.nextBelow(19)) - 9;
    S.SRef = static_cast<int>(Rng.nextBelow(8));
    P.Steps.push_back(S);
  }
  for (int64_t I = 0; I < P.N; ++I)
    P.Input.push_back(static_cast<int32_t>(Rng.nextBelow(101)) - 50);
  return P;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

/// Render state: a linear chain of length-n arrays (a0, a1, ...) plus
/// accumulated scalars (s0, s1, ...).  Every step consumes the newest
/// array, so removing any subset of steps keeps the program well-typed.
struct Render {
  std::ostringstream Body;
  int NextArr = 0;
  int NextScalar = 0;
  int ScalarCount = 0;
  int64_t N;

  explicit Render(int64_t N) : N(N) {}

  std::string arr() const { return "a" + std::to_string(NextArr); }
  std::string newArr() { return "a" + std::to_string(++NextArr); }
  std::string newScalar() {
    ++ScalarCount;
    return "s" + std::to_string(NextScalar++);
  }

  /// The scalar expression a step embeds, fully determined by the step.
  std::string scalarExpr(const Step &S, const std::string &X) {
    switch (S.Variant) {
    case 0:
      return X + " * " + std::to_string(S.Pos) + " + " +
             std::to_string(S.Small);
    case 1:
      return X + " % " + std::to_string(S.Pos) + " - " +
             std::to_string(S.Small);
    case 2:
      return X + " - " + X + " / " + std::to_string(S.Pos);
    case 3:
      if (ScalarCount > 0)
        return X + " + s" + std::to_string(S.SRef % ScalarCount);
      return X + " + " + std::to_string(S.Small);
    default:
      return std::to_string(S.Small) + " - " + X;
    }
  }

  void render(const Step &S) {
    switch (S.K) {
    case Step::Kind::Map: {
      std::string In = arr(), Out = newArr();
      Body << "  let " << Out << " = map (\\(x: i32): i32 -> "
           << scalarExpr(S, "x") << ") " << In << "\n";
      return;
    }
    case Step::Kind::Mask: {
      std::string In = arr(), Out = newArr();
      Body << "  let " << Out << " = map (\\(x: i32): i32 -> if x % "
           << S.Pos << " == 0 then " << scalarExpr(S, "x") << " else "
           << std::to_string(S.Small) << ") " << In << "\n";
      return;
    }
    case Step::Kind::Scan: {
      std::string In = arr(), Out = newArr();
      // Parenthesised: a bare negative neutral would parse as binary minus.
      Body << "  let " << Out << " = scan (+) (0 + "
           << std::to_string(S.Small) << ") " << In << "\n";
      return;
    }
    case Step::Kind::Reduce: {
      std::string In = arr(), Sc = newScalar();
      switch (S.Variant % 3) {
      case 0:
        Body << "  let " << Sc << " = reduce (+) 0 " << In << "\n";
        break;
      case 1:
        Body << "  let " << Sc << " = reduce min 1000000 " << In << "\n";
        break;
      default:
        Body << "  let " << Sc << " = reduce max (0 - 1000000) " << In
             << "\n";
        break;
      }
      return;
    }
    case Step::Kind::InPlace: {
      // In-place update of a fresh copy: the chain array may be aliased by
      // an earlier binding's view, so consume a freshly mapped copy.
      std::string In = arr(), Fresh = newArr();
      Body << "  let " << Fresh << " = map (\\(x: i32): i32 -> x + 0) "
           << In << "\n";
      std::string Out = newArr();
      int64_t Idx = S.Pos % N;
      Body << "  let " << Out << " = " << Fresh << " with [" << Idx
           << "] <- " << Fresh << "[" << Idx << "] * 2 + "
           << std::to_string(S.Small) << "\n";
      return;
    }
    case Step::Kind::ZipIota: {
      std::string In = arr(), Out = newArr();
      Body << "  let " << Out
           << " = map (\\(x: i32) (i: i32): i32 -> x * 2 - i) " << In
           << " (iota n)\n";
      return;
    }
    case Step::Kind::MapLoop: {
      std::string In = arr(), Out = newArr();
      Body << "  let " << Out
           << " = map (\\(x: i32): i32 -> loop (acc = x) for i < " << S.Pos
           << " do acc + i * " << std::to_string((S.Small & 3) + 2) << ") "
           << In << "\n";
      return;
    }
    case Step::Kind::MapReduce: {
      std::string In = arr(), Out = newArr();
      Body << "  let " << Out
           << " = map (\\(x: i32): i32 -> reduce (+) x (iota " << S.Pos
           << ")) " << In << "\n";
      return;
    }
    case Step::Kind::Histogram: {
      std::string In = arr(), Sc = newScalar();
      Body << "  let " << Sc << " = reduce (+) 0\n"
           << "    (loop (h = replicate " << S.Pos << " 0) for i < n do\n"
           << "      let c = " << In << "[i] % " << S.Pos << "\n"
           << "      let c = if c < 0 then c + " << S.Pos << " else c\n"
           << "      in h with [c] <- h[c] + 1)\n";
      return;
    }
    case Step::Kind::Concat: {
      std::string In = arr(), Sc = newScalar();
      Body << "  let " << Sc << " = reduce (+) (0 + " << S.Small
           << ") (concat " << In << " " << In << ")\n";
      return;
    }
    case Step::Kind::Transpose: {
      std::string In = arr(), Sc = newScalar();
      int64_t K = S.Pos;
      Body << "  let m" << Sc
           << " = map (\\(x: i32): [" << K << "]i32 -> "
           << "map (\\(i: i32): i32 -> x * " << ((S.Small & 3) + 1)
           << " + i) (iota " << K << ")) " << In << "\n"
           << "  let " << Sc
           << " = reduce (+) 0 (map (\\(r: [n]i32): i32 -> reduce (+) 0 r)"
           << " (transpose m" << Sc << "))\n";
      return;
    }
    case Step::Kind::MapScan: {
      std::string In = arr(), Out = newArr();
      Body << "  let " << Out
           << " = map (\\(x: i32): i32 -> reduce (+) x (scan (+) 0 (iota "
           << S.Pos << "))) " << In << "\n";
      return;
    }
    case Step::Kind::PowMap: {
      std::string In = arr(), Out = newArr();
      Body << "  let " << Out << " = map (\\(x: i32): i32 -> x ** "
           << (S.Pos % 4) << " + " << std::to_string(S.Small) << ") " << In
           << "\n";
      return;
    }
    case Step::Kind::DivVar: {
      // The divisor x % Pos + Small can be zero for some inputs, so this
      // step exercises the typed-runtime-error agreement path.
      std::string In = arr(), Out = newArr();
      Body << "  let " << Out << " = map (\\(x: i32): i32 -> " << S.Pos
           << " / (x % " << S.Pos << " + " << std::to_string(S.Small)
           << ")) " << In << "\n";
      return;
    }
    case Step::Kind::IndexScalar: {
      std::string In = arr(), Sc = newScalar();
      Body << "  let " << Sc << " = " << In << "[" << (S.Pos % N) << "] * "
           << std::to_string((S.Small & 3) + 1) << "\n";
      return;
    }
    case Step::Kind::ReduceByIndex: {
      // Indexed reduction with a commutative operator (+ / min / max), so
      // the device's per-shard fold order cannot change the result.  The
      // neutral must be the operator's true identity — shards beyond
      // device 0 prime their partial from it, so anything else would be
      // folded in once per extra device.  Bins are normalized into
      // [0, Pos); the histogram is checksummed into the scalar pool so
      // every bin reaches the comparison.
      std::string In = arr(), Sc = newScalar();
      int64_t W = S.Pos;
      const char *Op;
      std::string Ne;
      switch (S.Variant % 3) {
      case 0:
        Op = "(+)";
        Ne = "0";
        break;
      case 1:
        Op = "min";
        Ne = "2147483647";
        break;
      default:
        Op = "max";
        Ne = "(0 - 2147483647 - 1)";
        break;
      }
      Body << "  let ri" << Sc << " = map (\\(x: i32): i32 -> "
           << "let c = x % " << W << " in if c < 0 then c + " << W
           << " else c) " << In << "\n"
           << "  let rh" << Sc << " = reduce_by_index (replicate " << W
           << " " << Ne << ") " << Op << " " << Ne << " ri" << Sc << " "
           << In << "\n"
           << "  let " << Sc << " = reduce (+) 0 rh" << Sc << "\n";
      return;
    }
    }
  }
};

} // namespace

FuzzCase fut::fuzz::renderPlan(const Plan &P, uint64_t Seed) {
  Render R(P.N);
  R.Body << "fun main (n: i32) (a0: [n]i32): ([n]i32, i32) =\n";
  for (const Step &S : P.Steps)
    R.render(S);

  // Fold every scalar produced along the way into the checksum so no
  // construct's result escapes the comparison.
  R.Body << "  let check = reduce (+) 0 " << R.arr() << "\n";
  std::string Check = "check";
  for (int I = 0; I < R.NextScalar; ++I)
    Check += " + s" + std::to_string(I);
  R.Body << "  in (" << R.arr() << ", " << Check << ")\n";

  FuzzCase C;
  C.Seed = Seed;
  C.Source = R.Body.str();
  std::vector<PrimValue> Elems;
  for (int64_t I = 0; I < P.N; ++I)
    Elems.push_back(PrimValue::makeI32(
        I < static_cast<int64_t>(P.Input.size()) ? P.Input[I] : 0));
  C.Args.push_back(
      Value::scalar(PrimValue::makeI32(static_cast<int32_t>(P.N))));
  C.Args.push_back(Value::array(ScalarKind::I32, {P.N}, std::move(Elems)));
  return C;
}

FuzzCase fut::fuzz::generate(uint64_t Seed) {
  return renderPlan(samplePlan(Seed), Seed);
}

//===----------------------------------------------------------------------===//
// Differential oracle
//===----------------------------------------------------------------------===//

ErrorOr<std::vector<Value>>
fut::fuzz::referenceRun(const std::string &Source,
                        const std::vector<Value> &Args, InterpOptions IO,
                        int64_t *CopiedConsumes) {
  NameSource Names;
  auto P = frontend(Source, Names);
  if (!P)
    return P.getError();
  Program Prog = P.take(); // Interpreter holds a reference
  Interpreter I(Prog, std::move(IO));
  auto Out = I.run(Args);
  if (CopiedConsumes)
    *CopiedConsumes = I.copiedConsumes();
  return Out;
}

Outcome fut::fuzz::runSourceDifferential(const std::string &Source,
                                         const std::vector<Value> &Args,
                                         const gpusim::DeviceParams &DP,
                                         int Devices,
                                         const gpusim::ResilienceParams &RP) {
  auto Fail = [&](const std::string &What) {
    Outcome O;
    O.Ok = false;
    O.Message = What + "\nprogram:\n" + Source;
    return O;
  };

  auto Ref = referenceRun(Source, Args);

  // Subject: the full pipeline (with the IR verifier after every pass)
  // on the simulated device, running the plan the compiler made.
  NameSource Names;
  CompilerOptions CO;
  CO.Devices = Devices;
  auto C = compileSource(Source, Names, CO);
  if (!C)
    return Fail("compilation failed: " + C.getError().str());
  DeviceRunOptions RO;
  RO.Device = DP;
  RO.Resilience = RP;
  RO.MemPlan = &C->MemPlan;
  if (Devices > 1) {
    RO.Shards = &C->Shards;
    RO.Devices = Devices;
  }
  auto R = runOnDevice(C->P, Args, RO);

  // A typed runtime error is a legitimate program outcome; the two sides
  // must agree on it exactly, like they must agree on values.
  if (!Ref && !R) {
    const CompilerError &RE = Ref.getError(), &DE = R.getError();
    if (RE.isRuntime() && RE.Kind == DE.Kind && RE.Message == DE.Message) {
      Outcome O;
      O.Ok = true;
      O.BothFailed = true;
      return O;
    }
    return Fail("error mismatch\n  device:    " + DE.str() +
                "\n  reference: " + RE.str());
  }
  if (!Ref)
    return Fail("only the reference failed: " + Ref.getError().str());
  if (!R)
    return Fail("only the device failed: " + R.getError().str());

  std::string Diff = firstDifference(R->Outputs, *Ref);
  if (!Diff.empty())
    return Fail("device (got) vs reference (want): " + Diff);

  Outcome O;
  O.Ok = true;
  return O;
}

Outcome fut::fuzz::runDifferential(const FuzzCase &C,
                                   const gpusim::DeviceParams &DP,
                                   int Devices,
                                   const gpusim::ResilienceParams &RP) {
  Outcome O = runSourceDifferential(C.Source, C.Args, DP, Devices, RP);
  if (!O.Ok)
    O.Message = "seed: " + std::to_string(C.Seed) + "\n" + O.Message;
  return O;
}

namespace {

/// Runs \p C's compiled program on the device under \p DP.
ErrorOr<gpusim::RunResult> runCompiledOn(const CompileResult &Compiled,
                                 const FuzzCase &C,
                                 const gpusim::DeviceParams &DP, int Devices) {
  DeviceRunOptions RO;
  RO.Device = DP;
  RO.MemPlan = &Compiled.MemPlan;
  if (Devices > 1) {
    RO.Shards = &Compiled.Shards;
    RO.Devices = Devices;
  }
  return runOnDevice(Compiled.P, C.Args, RO);
}

/// Two device legs of one program that must agree, \p A and \p B named
/// \p NameA and \p NameB: a mismatch when only one failed or they failed
/// differently, agreement when both failed alike, and nothing when both
/// succeeded (their results are the caller's to compare).
std::optional<Outcome> agreeOnErrors(
    const ErrorOr<gpusim::RunResult> &A, const ErrorOr<gpusim::RunResult> &B,
    const std::string &NameA, const std::string &NameB,
    const std::function<Outcome(const std::string &)> &Fail) {
  if (A && B)
    return std::nullopt;
  if (!A && !B) {
    if (A.getError().Kind == B.getError().Kind &&
        A.getError().Message == B.getError().Message) {
      Outcome O;
      O.Ok = true;
      O.BothFailed = true;
      return O;
    }
    return Fail("error mismatch\n  " + NameA + ": " + A.getError().str() +
                "\n  " + NameB + ": " + B.getError().str());
  }
  return !A ? Fail("only " + NameA + " failed: " + A.getError().str())
            : Fail("only " + NameB + " failed: " + B.getError().str());
}

} // namespace

Outcome fut::fuzz::runCrossModel(const FuzzCase &C,
                                 const gpusim::DeviceParams &DP,
                                 int Devices) {
  auto Fail = [&](const std::string &What) {
    Outcome O;
    O.Ok = false;
    O.Message = "seed: " + std::to_string(C.Seed) + "\ncross-model " + What +
                "\nprogram:\n" + C.Source;
    return O;
  };

  NameSource Names;
  CompilerOptions CO;
  CO.Devices = Devices;
  auto Compiled = compileSource(C.Source, Names, CO);
  if (!Compiled)
    return Fail("compilation failed: " + Compiled.getError().str());

  auto RunUnder = [&](const char *Model) {
    gpusim::DeviceParams Under = DP;
    Under.CostModelName = Model;
    return runCompiledOn(*Compiled, C, Under, Devices);
  };
  auto Roof = RunUnder("roofline");
  auto Pipe = RunUnder("pipeline");
  if (auto Disagreed = agreeOnErrors(Roof, Pipe, "roofline", "pipeline", Fail))
    return *Disagreed;

  std::string Diff = firstDifference(Pipe->Outputs, Roof->Outputs);
  if (!Diff.empty())
    return Fail("pipeline (got) vs roofline (want): " + Diff);

  // Model-independent counters: the model prices cycles, it does not
  // change the traffic.  Each pair must be exactly equal, and the
  // coalescing decomposition must account for every global transaction
  // under both models.
  const gpusim::CostReport &RC = Roof->Cost;
  const gpusim::CostReport &PC = Pipe->Cost;
  auto CounterMismatch = [&](const char *Name, int64_t A, int64_t B) {
    return Fail(std::string("counter ") + Name +
                " differs\n  roofline: " + std::to_string(A) +
                "\n  pipeline: " + std::to_string(B));
  };
  if (RC.KernelLaunches != PC.KernelLaunches)
    return CounterMismatch("KernelLaunches", RC.KernelLaunches,
                           PC.KernelLaunches);
  if (RC.GlobalTransactions != PC.GlobalTransactions)
    return CounterMismatch("GlobalTransactions", RC.GlobalTransactions,
                           PC.GlobalTransactions);
  if (RC.TransferredBytes != PC.TransferredBytes)
    return CounterMismatch("TransferredBytes", RC.TransferredBytes,
                           PC.TransferredBytes);
  if (RC.AtomicTransactions != PC.AtomicTransactions)
    return CounterMismatch("AtomicTransactions", RC.AtomicTransactions,
                           PC.AtomicTransactions);
  if (RC.AtomicConflicts != PC.AtomicConflicts)
    return CounterMismatch("AtomicConflicts", RC.AtomicConflicts,
                           PC.AtomicConflicts);
  if (RC.LocalAccesses != PC.LocalAccesses)
    return CounterMismatch("LocalAccesses", RC.LocalAccesses,
                           PC.LocalAccesses);
  for (const gpusim::CostReport *CR : {&RC, &PC})
    if (CR->CoalescedTransactions + CR->ScatteredTransactions !=
        CR->GlobalTransactions)
      return Fail(std::string("coalescing decomposition broken under ") +
                  CR->CostModelUsed + ": " +
                  std::to_string(CR->CoalescedTransactions) + " + " +
                  std::to_string(CR->ScatteredTransactions) +
                  " != " + std::to_string(CR->GlobalTransactions));

  Outcome O;
  O.Ok = true;
  return O;
}

Outcome fut::fuzz::runSplitRanges(const FuzzCase &C,
                                  const gpusim::DeviceParams &DP,
                                  int Devices) {
  auto Fail = [&](const std::string &What) {
    Outcome O;
    O.Ok = false;
    O.Message = "seed: " + std::to_string(C.Seed) + "\nsplit ranges " + What +
                "\nprogram:\n" + C.Source;
    return O;
  };

  NameSource Names;
  CompilerOptions CO;
  CO.Devices = Devices;
  auto Compiled = compileSource(C.Source, Names, CO);
  if (!Compiled)
    return Fail("compilation failed: " + Compiled.getError().str());

  auto Run = [&](bool Split) {
    gpusim::DeviceParams Under = DP;
    Under.ForceSplitRanges = Split;
    return runCompiledOn(*Compiled, C, Under, Devices);
  };
  auto Whole = Run(false);
  auto Split = Run(true);
  if (auto Disagreed = agreeOnErrors(Whole, Split, "whole", "split", Fail))
    return *Disagreed;
  std::string Diff = firstDifference(Split->Outputs, Whole->Outputs);
  if (!Diff.empty())
    return Fail("split (got) vs whole (want): " + Diff);
  if (Split->Cost.str() != Whole->Cost.str())
    return Fail("cost line differs\n  whole: " + Whole->Cost.str() +
                "\n  split: " + Split->Cost.str());

  Outcome O;
  O.Ok = true;
  return O;
}

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

ShrinkResult fut::fuzz::shrink(const Plan &P, uint64_t Seed,
                               const gpusim::DeviceParams &DP, int Devices) {
  // Candidates rerun under the same device configuration the failure was
  // found with, so mode-specific failures (--hist-global sweeps, --devices
  // sharding sweeps) keep failing while they shrink.
  ShrinkResult SR = shrinkPlan(
      P,
      [&](const Plan &Cand) {
        Outcome O = runDifferential(renderPlan(Cand, Seed), DP, Devices);
        return O.Ok ? std::string() : O.Message;
      },
      [](Plan &Q) {
        std::vector<int32_t *> In;
        for (int32_t &X : Q.Input)
          In.push_back(&X);
        return In;
      });
  SR.Minimal = renderPlan(SR.MinimalPlan, Seed);
  return SR;
}

//===----------------------------------------------------------------------===//
// Regression-file round trip
//===----------------------------------------------------------------------===//

std::string
fut::fuzz::toRegressionFile(const FuzzCase &C,
                            const std::vector<std::string> &CommentLines) {
  std::ostringstream OS;
  for (const std::string &L : CommentLines)
    OS << "-- " << L << "\n";
  OS << "-- args:";
  for (const Value &V : C.Args) {
    if (V.isScalar()) {
      OS << " " << V.getScalar().str();
    } else {
      OS << " [";
      const std::vector<PrimValue> &Flat = V.flat();
      for (size_t I = 0; I < Flat.size(); ++I)
        OS << (I ? "," : "") << Flat[I].str();
      OS << "]";
    }
  }
  OS << "\n" << C.Source;
  return OS.str();
}

bool fut::fuzz::parseArgsLine(const std::string &Line,
                              std::vector<Value> &Out) {
  const std::string Prefix = "-- args:";
  if (Line.rfind(Prefix, 0) != 0)
    return false;
  std::string Rest = Line.substr(Prefix.size());

  auto ParseScalar = [](const std::string &T, PrimValue &V) {
    if (T == "true") {
      V = PrimValue::makeBool(true);
      return true;
    }
    if (T == "false") {
      V = PrimValue::makeBool(false);
      return true;
    }
    try {
      size_t Used = 0;
      if (T.find('.') != std::string::npos ||
          T.find("f32") != std::string::npos) {
        V = PrimValue::makeF32(std::stof(T, &Used));
        return true;
      }
      V = PrimValue::makeI32(static_cast<int32_t>(std::stol(T, &Used)));
      return Used > 0;
    } catch (...) {
      return false;
    }
  };

  size_t I = 0;
  while (I < Rest.size()) {
    while (I < Rest.size() && (Rest[I] == ' ' || Rest[I] == '\t'))
      ++I;
    if (I >= Rest.size())
      break;
    if (Rest[I] == '[') {
      size_t End = Rest.find(']', I);
      if (End == std::string::npos)
        return false;
      std::string Inner = Rest.substr(I + 1, End - I - 1);
      std::vector<PrimValue> Elems;
      std::stringstream SS(Inner);
      std::string Tok;
      while (std::getline(SS, Tok, ',')) {
        PrimValue V;
        if (!ParseScalar(Tok, V))
          return false;
        Elems.push_back(V);
      }
      if (Elems.empty())
        return false;
      ScalarKind K = Elems[0].kind();
      int64_t N = static_cast<int64_t>(Elems.size());
      Out.push_back(Value::array(K, {N}, std::move(Elems)));
      I = End + 1;
    } else {
      size_t End = Rest.find(' ', I);
      if (End == std::string::npos)
        End = Rest.size();
      PrimValue V;
      if (!ParseScalar(Rest.substr(I, End - I), V))
        return false;
      Out.push_back(Value::scalar(V));
      I = End;
    }
  }
  return !Out.empty();
}

bool fut::fuzz::loadRegressionFile(const std::string &Contents,
                                   FuzzCase &Out) {
  std::stringstream SS(Contents);
  std::string Line;
  std::ostringstream Src;
  bool HaveArgs = false;
  while (std::getline(SS, Line)) {
    if (!HaveArgs && Line.rfind("-- args:", 0) == 0) {
      if (!parseArgsLine(Line, Out.Args))
        return false;
      HaveArgs = true;
      continue;
    }
    if (Line.rfind("--", 0) == 0)
      continue; // comment header
    Src << Line << "\n";
  }
  Out.Source = Src.str();
  return HaveArgs && !Out.Source.empty();
}
