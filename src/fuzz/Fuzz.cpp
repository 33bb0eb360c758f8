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

const std::vector<Leg> &fut::fuzz::sweepLegs() {
  static const std::vector<Leg> Legs = [] {
    gpusim::DeviceParams Split = gpusim::DeviceParams::gtx780();
    Split.ForceSplitRanges = true;
    gpusim::DeviceParams HistGlobal = gpusim::DeviceParams::gtx780();
    HistGlobal.HistLocalWidthMax = 0;
    gpusim::DeviceParams Pipeline = gpusim::DeviceParams::gtx780();
    Pipeline.CostModelName = "pipeline";
    gpusim::DeviceParams Lanes = gpusim::DeviceParams::gtx780();
    Lanes.ForceLaneByLane = true;
    return std::vector<Leg>{
        {.Name = "default"},
        {.Name = "split",
         .Device = Split,
         .Check = Leg::Twin::CostLine},
        {.Name = "devices2", .Devices = 2},
        {.Name = "hist-global", .Device = HistGlobal},
        {.Name = "hist-global-devices2", .Device = HistGlobal, .Devices = 2},
        {.Name = "pipeline",
         .Device = Pipeline,
         .Check = Leg::Twin::Counters},
        {.Name = "lanes", .Device = Lanes, .Check = Leg::Twin::CostLine},
    };
  }();
  return Legs;
}

namespace {

/// A leg's device run against the reference: bit-identical outputs, or
/// the identical typed runtime error; "" or what differs.
std::string disagreement(const ErrorOr<std::vector<Value>> &Ref,
                         const ErrorOr<gpusim::RunResult> &Dev) {
  if (!Ref && !Dev) {
    const CompilerError &RE = Ref.getError(), &DE = Dev.getError();
    if (RE.isRuntime() && RE.Kind == DE.Kind && RE.Message == DE.Message)
      return "";
    return "error mismatch\n  device:    " + DE.str() +
           "\n  reference: " + RE.str();
  }
  if (!Ref)
    return "only the reference failed: " + Ref.getError().str();
  if (!Dev)
    return "only the device failed: " + Dev.getError().str();
  std::string Diff = firstDifference(Dev->Outputs, *Ref);
  return Diff.empty() ? "" : "device (got) vs reference (want): " + Diff;
}

/// The first of \p Fields on which the twin run \p T differs from leg
/// default's run \p B, with both values; "" when all agree.
template <typename V, size_t N>
std::string differingField(
    const std::pair<const char *, V gpusim::CostReport::*> (&Fields)[N],
    const std::string &Twin, const gpusim::CostReport &T,
    const gpusim::CostReport &B) {
  for (const auto &[Name, Field] : Fields)
    if (T.*Field != B.*Field) {
      std::ostringstream OS;
      OS.precision(17);
      OS << "counter " << Name << " differs from leg default\n  default: "
         << B.*Field << "\n  " << Twin << ": " << T.*Field;
      return OS.str();
    }
  return "";
}

/// The twin check of \p Twin (run \p T) against leg default (run \p B);
/// "" or what differs.
std::string twinDisagreement(const Leg &Twin, const gpusim::CostReport &T,
                             const gpusim::CostReport &B) {
  using CR = gpusim::CostReport;
  const std::string Base = "default";
  if (Twin.Check == Leg::Twin::CostLine) {
    if (T.str() != B.str())
      return "cost line differs from leg " + Base + "\n  " + Base + ": " +
             B.str() + "\n  " + Twin.Name + ": " + T.str();
    // Every run prices each launch under both models and profiles its
    // warps, so the fields a roofline cost line leaves out must agree too.
    const std::pair<const char *, double CR::*> Cycles[] = {
        {"RooflineKernelCycles", &CR::RooflineKernelCycles},
        {"PipelineKernelCycles", &CR::PipelineKernelCycles},
    };
    const std::pair<const char *, int64_t CR::*> Profile[] = {
        {"WarpsSimulated", &CR::WarpsSimulated},
        {"DivergentWarps", &CR::DivergentWarps},
        {"CoalescerExcessTx", &CR::CoalescerExcessTx},
        {"BankConflictExtra", &CR::BankConflictExtra},
    };
    std::string What = differingField(Cycles, Twin.Name, T, B);
    return What.empty() ? differingField(Profile, Twin.Name, T, B) : What;
  }
  // The cost model prices cycles; it must not change the traffic.
  const std::pair<const char *, int64_t CR::*> Counters[] = {
      {"KernelLaunches", &CR::KernelLaunches},
      {"GlobalTransactions", &CR::GlobalTransactions},
      {"TransferredBytes", &CR::TransferredBytes},
      {"AtomicTransactions", &CR::AtomicTransactions},
      {"AtomicConflicts", &CR::AtomicConflicts},
      {"LocalAccesses", &CR::LocalAccesses},
  };
  if (std::string What = differingField(Counters, Twin.Name, T, B);
      !What.empty())
    return What;
  for (const auto &[Name, R] :
       {std::pair{&Base, &B}, std::pair{&Twin.Name, &T}})
    if (R->CoalescedTransactions + R->ScatteredTransactions !=
        R->GlobalTransactions)
      return "coalescing decomposition broken on leg " + *Name + ": " +
             std::to_string(R->CoalescedTransactions) + " + " +
             std::to_string(R->ScatteredTransactions) +
             " != " + std::to_string(R->GlobalTransactions);
  return "";
}

/// The leg every twin compares with, or null when \p Legs lacks it.
const Leg *findDefault(const std::vector<Leg> &Legs) {
  for (const Leg &L : Legs)
    if (L.Name == "default")
      return &L;
  return nullptr;
}

} // namespace

std::vector<Outcome>
fut::fuzz::runSourceDifferential(const std::string &Source,
                                 const std::vector<Value> &Args,
                                 const std::vector<Leg> &Legs) {
  std::vector<Outcome> Out(Legs.size());
  auto Fail = [&](size_t I, const std::string &What) {
    Out[I].Ok = false;
    Out[I].Message =
        "leg " + Legs[I].Name + ": " + What + "\nprogram:\n" + Source;
  };

  auto Ref = referenceRun(Source, Args);

  // Subject: the full pipeline (with the IR verifier after every pass),
  // compiled once; no leg sets a compiler option.
  NameSource Names;
  const ErrorOr<CompileResult> C = compileSource(Source, Names);
  if (!C) {
    for (size_t I = 0; I < Legs.size(); ++I)
      Fail(I, "compilation failed: " + C.getError().str());
    return Out;
  }

  // One device run per leg, on the plans the compiler made.
  std::vector<ErrorOr<gpusim::RunResult>> Runs;
  Runs.reserve(Legs.size());
  for (size_t I = 0; I < Legs.size(); ++I) {
    const Leg &L = Legs[I];
    DeviceRunOptions RO;
    RO.Device = L.Device;
    RO.Resilience = L.Resilience;
    RO.MemPlan = &C->MemPlan;
    if (L.Devices > 1) {
      RO.Shards = &C->Shards;
      RO.Devices = L.Devices;
    }
    Runs.push_back(runOnDevice(C->P, Args, RO));
    std::string What = disagreement(Ref, Runs.back());
    if (What.empty()) {
      Out[I].Ok = true;
      Out[I].BothFailed = !Ref;
    } else {
      Fail(I, What);
    }
  }

  // The twin checks reuse the runs: only two that succeeded have a cost
  // report to compare (two that failed already agree with the reference).
  for (size_t I = 0; I < Legs.size(); ++I) {
    const Leg &L = Legs[I];
    if (L.Check == Leg::Twin::None || !Out[I].Ok)
      continue;
    const Leg *Base = findDefault(Legs);
    if (!Base) {
      Fail(I, "twin of leg default, which is not run");
      continue;
    }
    const auto &T = Runs[I], &B = Runs[static_cast<size_t>(Base - &Legs[0])];
    if (!T || !B)
      continue;
    std::string What = twinDisagreement(L, T->Cost, B->Cost);
    if (!What.empty())
      Fail(I, What);
  }
  return Out;
}

std::vector<Outcome> fut::fuzz::runDifferential(const FuzzCase &C,
                                                const std::vector<Leg> &Legs) {
  std::vector<Outcome> Out = runSourceDifferential(C.Source, C.Args, Legs);
  for (Outcome &O : Out)
    if (!O.Ok)
      O.Message = "seed: " + std::to_string(C.Seed) + "\n" + O.Message;
  return Out;
}

std::vector<Leg> fut::fuzz::rerunLegs(const std::vector<Leg> &Legs,
                                      size_t Failing) {
  std::vector<Leg> Rerun;
  const Leg &L = Legs[Failing];
  if (const Leg *Base =
          L.Check == Leg::Twin::None ? nullptr : findDefault(Legs))
    Rerun.push_back(*Base);
  Rerun.push_back(L);
  return Rerun;
}

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

ShrinkResult fut::fuzz::shrink(const Plan &P, uint64_t Seed,
                               const std::vector<Leg> &Legs, size_t Failing) {
  std::vector<Leg> Rerun = rerunLegs(Legs, Failing);
  ShrinkResult SR = shrinkPlan(
      P,
      [&](const Plan &Cand) {
        Outcome O = runDifferential(renderPlan(Cand, Seed), Rerun).back();
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
  // Values are separated by blanks; an array literal runs to its ']'.
  for (size_t I = Prefix.size();
       (I = Line.find_first_not_of(" \t", I)) != std::string::npos;) {
    size_t End = Line[I] == '[' ? Line.find(']', I)
                                : Line.find_first_of(" \t", I);
    if (Line[I] == '[' && End != std::string::npos)
      ++End;
    auto V = parseValue(Line.substr(I, End - I));
    if (!V)
      return false;
    Out.push_back(V.take());
    I = End;
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
