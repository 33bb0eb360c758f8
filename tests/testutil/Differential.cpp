//===- Differential.cpp - Seeded differential test harness ----------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "Differential.h"

#include "driver/Compiler.h"
#include "interp/Interp.h"
#include "parser/Desugar.h"
#include "support/Utils.h"

#include <sstream>

using namespace fut;
using namespace fut::test;

namespace {

/// Generation state: a linear chain of length-n arrays (a0, a1, ...) plus
/// accumulated scalars (s0, s1, ...).  Every step consumes the newest
/// array and produces the next, so the chain threads cleanly through the
/// uniqueness checker even when a step consumes its input in place.
struct Gen {
  SplitMix64 Rng;
  std::ostringstream Body;
  int NextArr = 0;
  int NextScalar = 0;
  std::vector<std::string> Scalars;
  int64_t N; // length of every chain array, known to the generator

  explicit Gen(uint64_t Seed, int64_t N) : Rng(Seed), N(N) {}

  std::string arr() const { return "a" + std::to_string(NextArr); }
  std::string newArr() { return "a" + std::to_string(++NextArr); }
  std::string newScalar() {
    std::string S = "s" + std::to_string(NextScalar++);
    Scalars.push_back(S);
    return S;
  }

  int64_t smallConst() { return static_cast<int64_t>(Rng.nextBelow(19)) - 9; }
  int64_t posConst() { return static_cast<int64_t>(Rng.nextBelow(8)) + 2; }

  /// A scalar expression in \p X, optionally referencing a known scalar.
  std::string scalarExpr(const std::string &X) {
    switch (Rng.nextBelow(5)) {
    case 0:
      return X + " * " + std::to_string(posConst()) + " + " +
             std::to_string(smallConst());
    case 1:
      return X + " % " + std::to_string(posConst()) + " - " +
             std::to_string(smallConst());
    case 2:
      return X + " - " + X + " / " + std::to_string(posConst());
    case 3:
      if (!Scalars.empty())
        return X + " + " + Scalars[Rng.nextBelow(Scalars.size())];
      return X + " + " + std::to_string(smallConst());
    default:
      return std::to_string(smallConst()) + " - " + X;
    }
  }

  void stepMap() {
    std::string In = arr(), Out = newArr();
    Body << "  let " << Out << " = map (\\(x: i32): i32 -> "
         << scalarExpr("x") << ") " << In << "\n";
  }

  /// Filter encoded as a conditional mask (the language has no filter).
  void stepMask() {
    std::string In = arr(), Out = newArr();
    int64_t D = posConst();
    Body << "  let " << Out << " = map (\\(x: i32): i32 -> if x % "
         << D << " == 0 then " << scalarExpr("x") << " else "
         << std::to_string(smallConst()) << ") " << In << "\n";
  }

  void stepScan() {
    std::string In = arr(), Out = newArr();
    // Parenthesised: a bare negative neutral would parse as binary minus.
    Body << "  let " << Out << " = scan (+) (0 + "
         << std::to_string(smallConst()) << ") " << In << "\n";
  }

  void stepReduce() {
    std::string In = arr(), S = newScalar();
    switch (Rng.nextBelow(3)) {
    case 0:
      Body << "  let " << S << " = reduce (+) 0 " << In << "\n";
      break;
    case 1:
      Body << "  let " << S << " = reduce min 1000000 " << In << "\n";
      break;
    default:
      Body << "  let " << S << " = reduce max (0 - 1000000) " << In
           << "\n";
      break;
    }
  }

  /// In-place update of a fresh copy: the chain array may be aliased by
  /// an earlier binding's view, so consume a freshly mapped copy instead.
  void stepInPlace() {
    std::string In = arr(), Fresh = newArr();
    Body << "  let " << Fresh << " = map (\\(x: i32): i32 -> x + 0) "
         << In << "\n";
    std::string Out = newArr();
    int64_t Idx = static_cast<int64_t>(Rng.nextBelow(N));
    Body << "  let " << Out << " = " << Fresh << " with [" << Idx
         << "] <- " << Fresh << "[" << Idx << "] * 2 + "
         << std::to_string(smallConst()) << "\n";
  }

  void stepZipIota() {
    std::string In = arr(), Out = newArr();
    Body << "  let " << Out
         << " = map (\\(x: i32) (i: i32): i32 -> x * 2 - i) " << In
         << " (iota n)\n";
  }

  /// A sequential loop inside every thread of a map nest.
  void stepMapLoop() {
    std::string In = arr(), Out = newArr();
    int64_t Trips = posConst();
    Body << "  let " << Out
         << " = map (\\(x: i32): i32 -> loop (acc = x) for i < "
         << Trips << " do acc + i * " << std::to_string(posConst())
         << ") " << In << "\n";
  }

  /// A nested reduction over a thread-private iota.
  void stepMapReduce() {
    std::string In = arr(), Out = newArr();
    int64_t Inner = posConst();
    Body << "  let " << Out
         << " = map (\\(x: i32): i32 -> reduce (+) x (iota " << Inner
         << ")) " << In << "\n";
  }

  /// A histogram-style loop over the chain array into a replicated
  /// accumulator, reduced back to a scalar.
  void stepHistogram() {
    std::string In = arr(), S = newScalar();
    int64_t K = posConst();
    Body << "  let " << S << " = reduce (+) 0\n"
         << "    (loop (h = replicate " << K << " 0) for i < n do\n"
         << "      let c = " << In << "[i] % " << K << "\n"
         << "      let c = if c < 0 then c + " << K << " else c\n"
         << "      in h with [c] <- h[c] + 1)\n";
  }

  void step() {
    switch (Rng.nextBelow(9)) {
    case 0:
      return stepMap();
    case 1:
      return stepMask();
    case 2:
      return stepScan();
    case 3:
      return stepReduce();
    case 4:
      return stepInPlace();
    case 5:
      return stepZipIota();
    case 6:
      return stepMapLoop();
    case 7:
      return stepMapReduce();
    default:
      return stepHistogram();
    }
  }
};

} // namespace

GeneratedProgram fut::test::generateProgram(uint64_t Seed) {
  // Mix the seed so consecutive seeds give unrelated programs.
  SplitMix64 Setup(Seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  int64_t N = 4 + static_cast<int64_t>(Setup.nextBelow(37));
  int Steps = 3 + static_cast<int>(Setup.nextBelow(5));

  Gen G(Setup.next(), N);
  G.Body << "fun main (n: i32) (a0: [n]i32): ([n]i32, i32) =\n";
  for (int I = 0; I < Steps; ++I)
    G.step();

  // Fold every scalar produced along the way into the checksum so no
  // construct's result escapes the comparison.
  G.Body << "  let check = reduce (+) 0 " << G.arr() << "\n";
  std::string Check = "check";
  for (const std::string &S : G.Scalars)
    Check += " + " + S;
  G.Body << "  in (" << G.arr() << ", " << Check << ")\n";

  GeneratedProgram GP;
  GP.Seed = Seed;
  GP.Source = G.Body.str();

  std::vector<PrimValue> Elems;
  for (int64_t I = 0; I < N; ++I)
    Elems.push_back(PrimValue::makeI32(
        static_cast<int32_t>(Setup.nextBelow(101)) - 50));
  GP.Args.push_back(Value::scalar(PrimValue::makeI32(static_cast<int32_t>(N))));
  GP.Args.push_back(Value::array(ScalarKind::I32, {N}, std::move(Elems)));
  return GP;
}

DifferentialOutcome
fut::test::runDifferential(const GeneratedProgram &GP,
                           const gpusim::ResilienceParams &RP,
                           const gpusim::DeviceParams &DP, int Devices) {
  auto Fail = [&](const std::string &What) {
    DifferentialOutcome O;
    O.Ok = false;
    std::ostringstream OS;
    OS << What << "\nseed: " << GP.Seed << "\nprogram:\n" << GP.Source;
    O.Message = OS.str();
    return O;
  };

  // Reference: the unoptimised frontend output on the plain interpreter.
  NameSource RefNames;
  auto RefProg = frontend(GP.Source, RefNames);
  if (!RefProg)
    return Fail("frontend failed: " + RefProg.getError().str());
  Program RefP = RefProg.take(); // Interpreter holds a reference
  Interpreter I(RefP);
  auto Ref = I.run(GP.Args);
  if (!Ref)
    return Fail("reference interpreter failed: " + Ref.getError().str());

  // Subject: the full pipeline on the simulated device.
  NameSource Names;
  CompilerOptions CO;
  CO.Devices = Devices;
  auto C = compileSource(GP.Source, Names, CO);
  if (!C)
    return Fail("compilation failed: " + C.getError().str());
  DeviceRunOptions RO;
  RO.Device = DP;
  RO.Resilience = RP;
  if (Devices > 1) {
    RO.Shards = &C->Shards;
    RO.Devices = Devices;
  }
  auto R = runOnDevice(C->P, GP.Args, RO);
  if (!R)
    return Fail("device run failed: " + R.getError().str());

  if (R->Outputs.size() != Ref->size())
    return Fail("result arity mismatch: device returned " +
                std::to_string(R->Outputs.size()) + ", reference " +
                std::to_string(Ref->size()));
  for (size_t J = 0; J < Ref->size(); ++J)
    if (!(R->Outputs[J] == (*Ref)[J]))
      return Fail("result " + std::to_string(J) +
                  " differs\n  device:    " + R->Outputs[J].str() +
                  "\n  reference: " + (*Ref)[J].str());

  DifferentialOutcome O;
  O.Ok = true;
  return O;
}
