//===- GradFuzz.cpp - Seeded gradient-check fuzzer ------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "fuzz/GradFuzz.h"

#include "driver/Compiler.h"
#include "interp/Interp.h"
#include "parser/Desugar.h"
#include "support/Utils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

using namespace fut;
using namespace fut::fuzz;

//===----------------------------------------------------------------------===//
// Plan sampling
//===----------------------------------------------------------------------===//

GradPlan fut::fuzz::sampleGradPlan(uint64_t Seed) {
  // A different mixing constant than samplePlan, so seed k's gradient
  // program is unrelated to seed k's differential program.
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + 0x6a09e667f3bcc909ULL);

  GradPlan P;
  // Small arrays keep the finite-difference loop cheap: the oracle runs
  // the interpreter twice per input component.
  P.N = 4 + static_cast<int64_t>(Rng.nextBelow(9));
  int Steps = 3 + static_cast<int>(Rng.nextBelow(5));
  for (int I = 0; I < Steps; ++I) {
    GradStep S;
    S.K = static_cast<GradStep::Kind>(Rng.nextBelow(11));
    S.Variant = static_cast<int>(Rng.nextBelow(5));
    S.Pos = static_cast<int64_t>(Rng.nextBelow(8)) + 2;
    S.Small = static_cast<int64_t>(Rng.nextBelow(19)) - 9;
    S.SRef = static_cast<int>(Rng.nextBelow(8));
    P.Steps.push_back(S);
  }
  // Full-precision continuous inputs: exact ties (which would make max
  // reductions and branch points non-differentiable) have measure zero.
  P.X0 = Rng.nextDouble() * 2.0 - 1.0;
  for (int64_t I = 0; I < P.N; ++I)
    P.Input.push_back(Rng.nextDouble() * 4.0 - 2.0);
  return P;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

/// A non-negative fixed-point f64 literal; negative values are rendered as
/// a parenthesised subtraction (the surface grammar has no unary minus).
std::string fl(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.4ff64", std::fabs(V));
  if (V < 0)
    return std::string("(0.0f64 - ") + Buf + ")";
  return Buf;
}

/// Render state, mirroring the differential fuzzer: a linear chain of
/// f64 arrays (a0, a1, ...), a pool of f64 scalars (s0, s1, ...), and
/// auxiliary names (b0, h0, ...) for the non-chain arrays some steps need.
struct GradRender {
  std::ostringstream Body;
  int NextArr = 0;
  int NextScalar = 0;
  int NextAux = 0;
  int64_t N;

  explicit GradRender(int64_t N) : N(N) {}

  std::string arr() const { return numbered('a', NextArr); }
  std::string newArr() { return numbered('a', ++NextArr); }
  std::string newScalar() { return numbered('s', NextScalar++); }

  /// Prefix then N, built by appending: GCC 12 reports a false -Wrestrict
  /// for `"literal" + std::string&&` in Release builds.
  static std::string numbered(char Prefix, int N) {
    std::string S(1, Prefix);
    S += std::to_string(N);
    return S;
  }

  /// A small additive term reading the scalar pool (or a constant when
  /// shrinking has emptied it); scaled down so chains stay contractive.
  std::string scalarTerm(const GradStep &S) {
    if (NextScalar > 0)
      return "s" + std::to_string(S.SRef % NextScalar) + " * 0.01f64";
    return fl(static_cast<double>(S.Small) / 10.0);
  }

  /// The smooth scalar expression a Map step embeds.  All variants are
  /// differentiable everywhere and bounded or contractive, so chained
  /// steps cannot blow up the magnitudes finite differences depend on.
  std::string smoothExpr(const GradStep &S, const std::string &X) {
    switch (S.Variant) {
    case 0:
      return "sin " + X + " + cos (" + X + " * 0.5f64)";
    case 1:
      return X + " * 0.3f64 + " + fl(static_cast<double>(S.Small) / 10.0);
    case 2:
      return "exp (" + X + " * 0.1f64) * 0.5f64";
    case 3:
      return "atan " + X + " + " + scalarTerm(S);
    default:
      return X + " / (1.0f64 + " + X + " * " + X + ")";
    }
  }

  void render(const GradStep &S) {
    switch (S.K) {
    case GradStep::Kind::Map: {
      std::string In = arr(), Out = newArr();
      Body << "  let " << Out << " = map (\\(x: f64): f64 -> "
           << smoothExpr(S, "x") << ") " << In << "\n";
      return;
    }
    case GradStep::Kind::MapFree: {
      // The active scalar input enters as a lambda free variable: its
      // per-element adjoint contributions must be reduced with (+).
      std::string In = arr(), Out = newArr();
      Body << "  let " << Out
           << " = map (\\(x: f64): f64 -> x * (x0 * 0.2f64) + sin x0) "
           << In << "\n";
      return;
    }
    case GradStep::Kind::SumReduce: {
      std::string In = arr(), Sc = newScalar();
      Body << "  let " << Sc << " = reduce (+) 0.0f64 " << In << "\n";
      return;
    }
    case GradStep::Kind::ProdReduce: {
      // Normalised near 1 so the product of up to N factors stays small
      // and the prefix/suffix exchange is well-conditioned.
      std::string In = arr(), Norm = newArr(), Sc = newScalar();
      Body << "  let " << Norm
           << " = map (\\(x: f64): f64 -> 1.0f64 + x * x * 0.01f64) " << In
           << "\n"
           << "  let " << Sc << " = reduce (*) 1.0f64 " << Norm << "\n";
      return;
    }
    case GradStep::Kind::MaxReduce: {
      std::string In = arr(), Sc = newScalar();
      Body << "  let " << Sc << " = reduce max 0.0f64 " << In << "\n";
      return;
    }
    case GradStep::Kind::Scan: {
      // Rebound with atan: prefix sums grow with N, and later exp-style
      // steps must not see unbounded inputs.
      std::string In = arr(), Sums = newArr(), Out = newArr();
      Body << "  let " << Sums << " = scan (+) 0.0f64 " << In << "\n"
           << "  let " << Out
           << " = map (\\(x: f64): f64 -> atan (x * 0.1f64)) " << Sums
           << "\n";
      return;
    }
    case GradStep::Kind::Dot: {
      std::string In = arr(), Cos = newArr(), Sc = newScalar();
      Body << "  let " << Cos << " = map (\\(x: f64): f64 -> cos x) " << In
           << "\n"
           << "  let " << Sc
           << " = reduce (+) 0.0f64 (map (\\(x: f64) (y: f64): f64 -> "
              "x * y) "
           << In << " " << Cos << ")\n";
      return;
    }
    case GradStep::Kind::Loop: {
      if (S.Variant % 2 == 0) {
        // Scalar-carried loop indexing the chain array: the reverse loop
        // must restore each iterate from the tape and route the adjoint
        // through the indexed reads.
        std::string In = arr(), Sc = newScalar();
        Body << "  let " << Sc
             << " = loop (acc = 1.0f64) for i < n do acc * (1.0f64 + "
             << In << "[i] * " << In << "[i] * 0.01f64)\n";
        return;
      }
      // Array-carried loop over a fresh (consumable) copy: the tape must
      // checkpoint a whole array per iteration.
      int64_t Iters = 2 + S.Pos % 3;
      std::string In = arr(), Fresh = newArr(), Out = newArr();
      Body << "  let " << Fresh
           << " = map (\\(x: f64): f64 -> x * 0.5f64) " << In << "\n"
           << "  let " << Out << " = loop (acc = " << Fresh
           << ") for i < " << Iters
           << " do map (\\(x: f64): f64 -> sin x + 0.1f64) acc\n";
      return;
    }
    case GradStep::Kind::InPlace: {
      // One cell of a fresh copy is overwritten with an x0 term: the
      // overwritten cell's upstream adjoint must be masked out and the
      // stored value's routed to x0.
      int64_t Idx = S.Pos % N;
      std::string In = arr(), Out = newArr();
      Body << "  let " << Out
           << " = map (\\(x: f64): f64 -> x * 0.5f64 + 0.2f64) " << In
           << "\n"
           << "  let " << Out << "[" << Idx << "] = x0 * 0.3f64\n";
      return;
    }
    case GradStep::Kind::Branch: {
      // The condition depends only on n, so a perturbation of any float
      // input can never flip the branch under finite differences.
      int64_t M = 2 + S.Pos % 3;
      std::string In = arr(), Out = newArr();
      Body << "  let " << Out << " = if (n % " << M << ") == 0\n"
           << "    then map (\\(x: f64): f64 -> x * 0.4f64 + 0.1f64) "
           << In << "\n"
           << "    else map (\\(x: f64): f64 -> sin x) " << In << "\n";
      return;
    }
    case GradStep::Kind::RbiGather: {
      // Bins derive from iota, not data, so they are perturbation-stable;
      // the histogram is checksummed so every bin's adjoint flows back.
      int64_t W = 2 + S.Pos % 6;
      std::string In = arr();
      std::string Bins = "b" + std::to_string(NextAux);
      std::string Hist = "h" + std::to_string(NextAux++);
      std::string Sc = newScalar();
      Body << "  let " << Bins << " = map (\\(i: i32): i32 -> i % " << W
           << ") (iota n)\n"
           << "  let " << Hist << " = reduce_by_index (replicate " << W
           << " 0.0f64) (+) 0.0f64 " << Bins << " " << In << "\n"
           << "  let " << Sc
           << " = reduce (+) 0.0f64 (map (\\(x: f64): f64 -> sin x) "
           << Hist << ")\n";
      return;
    }
    }
  }
};

} // namespace

FuzzCase fut::fuzz::renderGradPlan(const GradPlan &P, uint64_t Seed) {
  GradRender R(P.N);
  R.Body << "fun main (n: i32) (x0: f64) (a0: [n]f64): f64 =\n";
  for (const GradStep &S : P.Steps)
    R.render(S);

  // Checksum the final chain array and fold in every scalar produced along
  // the way, each with its own weight, so no construct's adjoint path
  // escapes the comparison.  The x0 term keeps x0 active even in the empty
  // plan the shrinker may reach.
  R.Body << "  let cf = reduce (+) 0.0f64 (map (\\(x: f64): f64 -> sin x) "
         << R.arr() << ")\n";
  R.Body << "  in cf * 0.1f64 + x0 * 0.05f64";
  for (int I = 0; I < R.NextScalar; ++I) {
    char W[32];
    std::snprintf(W, sizeof(W), "%.4ff64", 0.1 / (1 + I));
    R.Body << " + s" << I << " * " << W;
  }
  R.Body << "\n";

  FuzzCase C;
  C.Seed = Seed;
  C.Source = R.Body.str();
  C.Args.push_back(
      Value::scalar(PrimValue::makeI32(static_cast<int32_t>(P.N))));
  C.Args.push_back(Value::scalar(PrimValue::makeF64(P.X0)));
  std::vector<PrimValue> Elems;
  for (double D : P.Input)
    Elems.push_back(PrimValue::makeF64(D));
  C.Args.push_back(Value::array(ScalarKind::F64, {P.N}, std::move(Elems)));
  return C;
}

FuzzCase fut::fuzz::generateGrad(uint64_t Seed) {
  return renderGradPlan(sampleGradPlan(Seed), Seed);
}

//===----------------------------------------------------------------------===//
// The gradient oracle
//===----------------------------------------------------------------------===//

GradOutcome fut::fuzz::runGradientCheck(const FuzzCase &C) {
  GradOutcome O;
  auto Fail = [&](const std::string &What) {
    O.Ok = false;
    O.Message = "seed: " + std::to_string(C.Seed) + "\n" + What +
                "\nprogram:\n" + C.Source;
    return O;
  };

  // Reference: the unoptimised frontend output on the plain interpreter.
  NameSource RefNames;
  auto RefProg = frontend(C.Source, RefNames);
  if (!RefProg)
    return Fail("frontend failed: " + RefProg.getError().str());
  Program RefP = RefProg.take();
  auto Primal = [&](const std::vector<Value> &Args) -> ErrorOr<double> {
    Interpreter I(RefP);
    auto R = I.run(Args);
    if (!R)
      return R.getError();
    return (*R)[0].getScalar().getFloat();
  };

  auto Base = Primal(C.Args);
  if (!Base)
    return Fail("reference primal failed: " + Base.getError().str());

  // Subject: --vjp=main through the full verified pipeline, main_vjp on
  // the simulated device with output seed 1, so the adjoints *are* the
  // gradient.
  NameSource Names;
  CompilerOptions CO;
  CO.VJP = "main";
  auto Compiled = compileSource(C.Source, Names, CO);
  if (!Compiled)
    return Fail("vjp compilation failed: " + Compiled.getError().str());

  std::vector<Value> VArgs = C.Args;
  VArgs.push_back(Value::scalar(PrimValue::makeF64(1.0)));
  DeviceRunOptions RO;
  RO.MemPlan = &Compiled->MemPlan;
  auto R = runOnDevice(Compiled->P, VArgs, RO, "main_vjp");
  if (!R)
    return Fail("device vjp run failed: " + R.getError().str());
  if (R->Outputs.size() != 3)
    return Fail("vjp arity mismatch: expected (primal, adj x0, adj a0), "
                "got " +
                std::to_string(R->Outputs.size()) + " results");

  // The primal the VJP carries along must match the reference (loosely:
  // kernel extraction may re-associate float reductions).
  double DevPrimal = R->Outputs[0].getScalar().getFloat();
  if (std::fabs(DevPrimal - *Base) >
      1e-6 * std::max({1.0, std::fabs(DevPrimal), std::fabs(*Base)}))
    return Fail("primal mismatch: device vjp " + std::to_string(DevPrimal) +
                ", reference " + std::to_string(*Base));

  if (!R->Outputs[2].isArray() ||
      R->Outputs[2].numElems() != C.Args[2].numElems())
    return Fail("adjoint of a0 has the wrong shape");

  // Central finite differences per active input component.
  std::string WorstWhat;
  double WorstVjp = 0, WorstFd = 0;
  bool AnyBad = false;
  std::string FdError;
  auto Check = [&](const std::string &What, double Vjp, size_t ArgIdx,
                   int64_t Elem) {
    auto At = [&](double H) -> ErrorOr<double> {
      std::vector<Value> A = C.Args;
      if (A[ArgIdx].isScalar()) {
        A[ArgIdx] = Value::scalar(
            PrimValue::makeF64(A[ArgIdx].getScalar().getFloat() + H));
      } else {
        Value V = A[ArgIdx];
        V.flatMut()[static_cast<size_t>(Elem)] = PrimValue::makeF64(
            V.flat()[static_cast<size_t>(Elem)].getFloat() + H);
        A[ArgIdx] = V;
      }
      return Primal(A);
    };
    double X = ArgIdx == 1
                   ? C.Args[1].getScalar().getFloat()
                   : C.Args[2].flat()[static_cast<size_t>(Elem)].getFloat();
    double H = 1e-6 * std::max(1.0, std::fabs(X));
    auto Hi = At(H), Lo = At(-H);
    if (!Hi || !Lo) {
      FdError = "perturbed primal failed at " + What + ": " +
                (!Hi ? Hi.getError().str() : Lo.getError().str());
      return;
    }
    double Fd = (*Hi - *Lo) / (2 * H);
    double Rel =
        std::fabs(Vjp - Fd) / std::max({1.0, std::fabs(Vjp), std::fabs(Fd)});
    if (Rel > O.MaxRelErr) {
      O.MaxRelErr = Rel;
      WorstWhat = What;
      WorstVjp = Vjp;
      WorstFd = Fd;
    }
    if (Rel >= GradRelTol)
      AnyBad = true;
  };

  Check("x0", R->Outputs[1].getScalar().getFloat(), 1, 0);
  const std::vector<PrimValue> &AdjA = R->Outputs[2].flat();
  for (size_t I = 0; I < AdjA.size(); ++I)
    Check("a0[" + std::to_string(I) + "]", AdjA[I].getFloat(), 2,
          static_cast<int64_t>(I));

  if (!FdError.empty())
    return Fail(FdError);
  if (AnyBad) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "gradient mismatch at %s: vjp %.12g, central fd %.12g "
                  "(rel err %.3g, tol %.1g)",
                  WorstWhat.c_str(), WorstVjp, WorstFd, O.MaxRelErr,
                  GradRelTol);
    return Fail(Buf);
  }

  O.Ok = true;
  return O;
}

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

GradShrinkResult fut::fuzz::shrinkGrad(const GradPlan &P, uint64_t Seed) {
  GradShrinkResult SR = shrinkPlan(
      P,
      [&](const GradPlan &Cand) {
        GradOutcome O = runGradientCheck(renderGradPlan(Cand, Seed));
        return O.Ok ? std::string() : O.Message;
      },
      // x0 first, then the elements.
      [](GradPlan &Q) {
        std::vector<double *> In = {&Q.X0};
        for (double &X : Q.Input)
          In.push_back(&X);
        return In;
      });
  SR.Minimal = renderGradPlan(SR.MinimalPlan, Seed);
  return SR;
}
