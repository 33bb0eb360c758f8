//===- bench_ad.cpp - Reverse-mode AD training workloads --------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// The ML-training workload class for the VJP pass (DESIGN 5k): two
// gradient-descent programs differentiated end-to-end through the full
// verified pipeline and timed on the simulated device.
//
//   ad-logreg-train  Logistic regression where the *training loop itself*
//                    is inside the differentiated program: T unrolled GD
//                    steps over a scalar weight, so the reverse sweep pays
//                    for a stack-of-iterates tape.  The VJP's d loss/d w0
//                    is the hypergradient through the whole optimisation,
//                    checked against central finite differences of the
//                    primal through the reference interpreter.
//
//   ad-kmeans-gd     1-D k-means (k = 3) as a differentiable objective:
//                    mean squared distance to the nearest centroid
//                    (branch-based min, so the pullback exercises the
//                    if-adjoint).  The host runs plain gradient descent on
//                    the centroids, calling the compiled main_vjp each
//                    step; the loss must fall monotonically in total.
//
// Each row records simulated cycles for the primal and the VJP (the
// classic AD constant-factor claim), the statically planned tape bytes
// (MemPlan entries named adtape*), the plan's peak bound, and the
// worst gradient error vs finite differences — the quantities the CI AD
// leg asserts on from BENCH_trace.json.
//
//===----------------------------------------------------------------------===//

#include "bench_suite/BenchTrace.h"
#include "driver/Compiler.h"
#include "interp/Interp.h"
#include "support/Utils.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace fut;

namespace {

Value iv(int32_t V) { return Value::scalar(PrimValue::makeI32(V)); }
Value dv(double V) { return Value::scalar(PrimValue::makeF64(V)); }
Value dvec(const std::vector<double> &Xs) {
  return makeVectorValue(ScalarKind::F64, Xs);
}

double scalarOf(const Value &V) { return V.getScalar().getFloat(); }

/// The memory plan's AD-tape accounting for main_vjp: statically planned
/// stack-of-iterates bytes.  The benches here pin their loop trip counts
/// so the tape is fully static (TapeSymbolic = 0).
struct TapeBytes {
  int64_t Static = 0;
  int Entries = 0;
  int Symbolic = 0;
};

TapeBytes tapePlannedBytes(const CompileResult &C) {
  TapeBytes T;
  if (const mem::FunPlan *FP = C.MemPlan.forFun("main_vjp")) {
    T.Static = FP->TapeBytes;
    T.Entries = FP->TapeArrays;
    T.Symbolic = FP->TapeSymbolic;
  }
  return T;
}

/// Central finite differences of the scalar-result primal with respect to
/// one scalar argument, through the reference interpreter (the same oracle
/// the gradient fuzzer uses).
ErrorOr<double> centralFd(const Program &P, std::vector<Value> Args,
                          size_t ArgIdx) {
  double X = scalarOf(Args[ArgIdx]);
  double H = 1e-6 * std::max(1.0, std::fabs(X));
  double Vals[2];
  for (int S = 0; S < 2; ++S) {
    Args[ArgIdx] = dv(X + (S == 0 ? H : -H));
    Interpreter I(P);
    auto R = I.runFunction("main", Args);
    if (!R)
      return R.getError();
    Vals[S] = scalarOf((*R)[0]);
  }
  return (Vals[0] - Vals[1]) / (2 * H);
}

double relErr(double A, double B) {
  return std::fabs(A - B) / std::max({1.0, std::fabs(A), std::fabs(B)});
}

/// Logistic regression with the GD loop inside the program: T unrolled
/// steps on the scalar weight w (fixed literal trip count so the tape is
/// statically sized), then the final-loss evaluation.
std::string logregSource(int Iters) {
  std::string T = std::to_string(Iters);
  return
      "fun main (n: i32) (w0: f64) (b: f64) (xs: [n]f64) (ys: [n]f64)"
      ": f64 =\n"
      "  let w = loop (w = w0) for i < " + T + " do\n"
      "    let gs = map (\\(x: f64) (y: f64): f64 ->\n"
      "                    let z = y * (w * x + b)\n"
      "                    let s = 1.0f64 / (1.0f64 + exp z)\n"
      "                    in (0.0f64 - s) * y * x) xs ys\n"
      "    let g = (reduce (+) 0.0f64 gs) / (f64 n)\n"
      "    in w - 0.5f64 * g\n"
      "  let losses = map (\\(x: f64) (y: f64): f64 ->\n"
      "                      log (1.0f64 + exp (0.0f64 - y * (w * x + b))))\n"
      "                   xs ys\n"
      "  in (reduce (+) 0.0f64 losses) / (f64 n)\n";
}

/// k = 3 one-dimensional k-means objective: mean squared distance to the
/// nearest centroid.  The min is branch-based, so the adjoint routes each
/// point's contribution to exactly the centroid that claimed it.
const char *KmeansSource =
    "fun main (n: i32) (c1: f64) (c2: f64) (c3: f64) (xs: [n]f64): f64 =\n"
    "  let costs = map (\\(x: f64): f64 ->\n"
    "                     let d1 = (x - c1) * (x - c1)\n"
    "                     let d2 = (x - c2) * (x - c2)\n"
    "                     let d3 = (x - c3) * (x - c3)\n"
    "                     let m = if d1 < d2 then d1 else d2\n"
    "                     in if m < d3 then m else d3) xs\n"
    "  in (reduce (+) 0.0f64 costs) / (f64 n)\n";

ErrorOr<CompileResult> compileVjp(const std::string &Src) {
  NameSource NS;
  CompilerOptions O;
  O.VJP = "main";
  return compileSource(Src, NS, O);
}

ErrorOr<gpusim::RunResult> runVjp(const CompileResult &C,
                                  const std::vector<Value> &Args,
                                  const std::string &Fun) {
  DeviceRunOptions RO;
  RO.Device = gpusim::DeviceParams::gtx780();
  RO.Device.AsyncTimeline = false; // pinned serial cycles, like Fig 4
  RO.MemPlan = &C.MemPlan;
  return runOnDevice(C.P, Args, RO, Fun);
}

bool Ok = true;

void check(bool Cond, const char *What) {
  if (!Cond) {
    printf("REGRESSION: %s\n", What);
    Ok = false;
  }
}

} // namespace

static bool benchLogreg(bench::BenchTraceWriter &Trace) {
  // Separable data with label noise: y = sign(w* x + b* + noise).
  const int64_t N = 4096;
  const int Iters = 48;
  SplitMix64 Rng(0xad109);
  std::vector<double> Xs(N), Ys(N);
  for (int64_t I = 0; I < N; ++I) {
    Xs[I] = Rng.nextDouble() * 6.0 - 3.0;
    double Noise = (Rng.nextDouble() - 0.5) * 0.8;
    Ys[I] = (1.7 * Xs[I] - 0.4 + Noise) > 0 ? 1.0 : -1.0;
  }
  const double W0 = 0.1, B = -0.1;
  std::vector<Value> Primal = {iv(static_cast<int32_t>(N)), dv(W0), dv(B),
                               dvec(Xs), dvec(Ys)};

  auto C = compileVjp(logregSource(Iters));
  if (!C) {
    printf("ad-logreg-train FAILED to compile: %s\n",
           C.getError().Message.c_str());
    return false;
  }
  TapeBytes Tape = tapePlannedBytes(*C);

  auto Prim = runVjp(*C, Primal, "main");
  std::vector<Value> VArgs = Primal;
  VArgs.push_back(dv(1.0)); // seed on the single f64 result
  auto Vjp = runVjp(*C, VArgs, "main_vjp");
  if (!Prim || !Vjp) {
    printf("ad-logreg-train FAILED to run: %s\n",
           (Prim ? Vjp : Prim).getError().Message.c_str());
    return false;
  }
  // main_vjp : primal results ++ one adjoint per active (f64) input.
  if (Vjp->Outputs.size() != 5) {
    printf("ad-logreg-train: expected 5 outputs, got %zu\n",
           Vjp->Outputs.size());
    return false;
  }
  double LossTrained = scalarOf(Vjp->Outputs[0]);
  double DW0 = scalarOf(Vjp->Outputs[1]);
  double DB = scalarOf(Vjp->Outputs[2]);

  // The hypergradient through all 48 unrolled GD steps must match central
  // finite differences of the primal through the interpreter.
  auto FdW = centralFd(C->P, Primal, 1);
  auto FdB = centralFd(C->P, Primal, 2);
  if (!FdW || !FdB) {
    printf("ad-logreg-train FD FAILED: %s\n",
           (FdW ? FdB : FdW).getError().Message.c_str());
    return false;
  }
  double GradErr = std::max(relErr(DW0, *FdW), relErr(DB, *FdB));

  // Untrained baseline: the same program with a single GD step.  Training
  // through more iterations must reduce the final loss.
  auto C1 = compileVjp(logregSource(1));
  double LossUntrained = 0;
  if (C1) {
    auto R1 = runVjp(*C1, Primal, "main");
    if (R1)
      LossUntrained = scalarOf(R1->Outputs[0]);
  }

  printf("%-18s | primal %10.0f cy   vjp %10.0f cy  (%.2fx)\n",
         "ad-logreg-train", Prim->Cost.TotalCycles, Vjp->Cost.TotalCycles,
         Vjp->Cost.TotalCycles / Prim->Cost.TotalCycles);
  printf("%-18s | tape %lld B static (%d arrays, %d symbolic), plan peak "
         "%lld B\n",
         "", static_cast<long long>(Tape.Static), Tape.Entries,
         Tape.Symbolic, static_cast<long long>(Vjp->Cost.PlannedPeakBytes));
  printf("%-18s | loss %0.4f -> %0.4f over %d unrolled steps, grad rel "
         "err %.3g\n",
         "", LossUntrained, LossTrained, Iters, GradErr);

  check(GradErr < 1e-4, "logreg hypergradient disagrees with FD");
  check(Tape.Entries > 0, "logreg loop produced no tape arrays");
  check(Tape.Symbolic == 0, "logreg tape should be statically sized");
  check(Tape.Static > 0, "logreg tape has no planned bytes");
  check(Tape.Static <= Vjp->Cost.PlannedPeakBytes,
        "tape bytes exceed the planned peak");
  check(LossTrained < LossUntrained, "training did not reduce the loss");

  Trace.beginRun();
  Trace.record("ad-logreg-train", "gtx780",
               {{"primal_cycles", Prim->Cost.TotalCycles},
                {"vjp_cycles", Vjp->Cost.TotalCycles},
                {"vjp_overhead",
                 Vjp->Cost.TotalCycles / Prim->Cost.TotalCycles},
                {"tape_planned_bytes", static_cast<double>(Tape.Static)},
                {"planned_peak_bytes",
                 static_cast<double>(Vjp->Cost.PlannedPeakBytes)},
                {"grad_rel_err", GradErr},
                {"loss_untrained", LossUntrained},
                {"loss_trained", LossTrained},
                {"gd_steps", static_cast<double>(Iters)}});
  return true;
}

static bool benchKmeans(bench::BenchTraceWriter &Trace) {
  // Three well-separated 1-D clusters; centroids start bunched together.
  const int64_t N = 6144;
  SplitMix64 Rng(0xad209);
  const double Centers[3] = {-2.0, 0.5, 3.0};
  std::vector<double> Xs(N);
  for (int64_t I = 0; I < N; ++I)
    Xs[I] = Centers[Rng.nextBelow(3)] + (Rng.nextDouble() - 0.5) * 0.6;
  double Cs[3] = {-0.6, 0.0, 0.6};

  auto C = compileVjp(KmeansSource);
  if (!C) {
    printf("ad-kmeans-gd FAILED to compile: %s\n",
           C.getError().Message.c_str());
    return false;
  }
  TapeBytes Tape = tapePlannedBytes(*C);

  auto ArgsAt = [&](const double *P) {
    return std::vector<Value>{iv(static_cast<int32_t>(N)), dv(P[0]),
                              dv(P[1]), dv(P[2]), dvec(Xs)};
  };

  // One FD spot check at the starting point, against the first adjoint.
  std::vector<Value> VArgs = ArgsAt(Cs);
  VArgs.push_back(dv(1.0));
  auto First = runVjp(*C, VArgs, "main_vjp");
  if (!First || First->Outputs.size() != 5) {
    printf("ad-kmeans-gd FAILED first vjp run\n");
    return false;
  }
  auto Fd1 = centralFd(C->P, ArgsAt(Cs), 1);
  if (!Fd1) {
    printf("ad-kmeans-gd FD FAILED: %s\n", Fd1.getError().Message.c_str());
    return false;
  }
  double GradErr = relErr(scalarOf(First->Outputs[1]), *Fd1);

  auto Prim = runVjp(*C, ArgsAt(Cs), "main");
  if (!Prim) {
    printf("ad-kmeans-gd FAILED primal run\n");
    return false;
  }

  // Host-side gradient descent: every step runs the compiled main_vjp on
  // the device and moves the centroids along the adjoints.
  const int Steps = 40;
  const double Lr = 0.8;
  double LossBefore = scalarOf(First->Outputs[0]);
  double Loss = LossBefore;
  for (int S = 0; S < Steps; ++S) {
    std::vector<Value> A = ArgsAt(Cs);
    A.push_back(dv(1.0));
    auto R = runVjp(*C, A, "main_vjp");
    if (!R) {
      printf("ad-kmeans-gd FAILED at GD step %d\n", S);
      return false;
    }
    Loss = scalarOf(R->Outputs[0]);
    for (int K = 0; K < 3; ++K)
      Cs[K] -= Lr * scalarOf(R->Outputs[1 + K]);
  }

  printf("%-18s | primal %10.0f cy   vjp %10.0f cy  (%.2fx)\n",
         "ad-kmeans-gd", Prim->Cost.TotalCycles, First->Cost.TotalCycles,
         First->Cost.TotalCycles / Prim->Cost.TotalCycles);
  printf("%-18s | tape %lld B (loop-free objective), plan peak %lld B\n",
         "", static_cast<long long>(Tape.Static),
         static_cast<long long>(First->Cost.PlannedPeakBytes));
  printf("%-18s | loss %0.4f -> %0.4f over %d GD steps, centroids "
         "(%.2f %.2f %.2f), grad rel err %.3g\n",
         "", LossBefore, Loss, Steps, Cs[0], Cs[1], Cs[2], GradErr);

  check(GradErr < 1e-4, "kmeans gradient disagrees with FD");
  check(Tape.Static <= First->Cost.PlannedPeakBytes,
        "tape bytes exceed the planned peak");
  check(Loss < 0.5 * LossBefore, "kmeans GD did not reduce the loss");
  // With well-separated clusters GD should have found all three centers.
  for (int K = 0; K < 3; ++K) {
    double Best = 1e9;
    for (double Ctr : Centers)
      Best = std::min(Best, std::fabs(Cs[K] - Ctr));
    check(Best < 0.25, "a centroid did not converge to a cluster center");
  }

  Trace.beginRun();
  Trace.record("ad-kmeans-gd", "gtx780",
               {{"primal_cycles", Prim->Cost.TotalCycles},
                {"vjp_cycles", First->Cost.TotalCycles},
                {"vjp_overhead",
                 First->Cost.TotalCycles / Prim->Cost.TotalCycles},
                {"tape_planned_bytes", static_cast<double>(Tape.Static)},
                {"planned_peak_bytes",
                 static_cast<double>(First->Cost.PlannedPeakBytes)},
                {"grad_rel_err", GradErr},
                {"loss_before", LossBefore},
                {"loss_after", Loss},
                {"gd_steps", static_cast<double>(Steps)}});
  return true;
}

int main(int Argc, char **Argv) {
  printf("Reverse-mode AD: gradient-descent training workloads (E17)\n\n");
  bench::BenchTraceWriter Trace(bench::traceOutPath(Argc, Argv));
  if (!benchLogreg(Trace))
    return 1;
  printf("\n");
  if (!benchKmeans(Trace))
    return 1;
  if (!Trace.write())
    fprintf(stderr, "warning: could not write %s\n", Trace.path().c_str());
  else
    printf("\nAD training counters written to %s\n", Trace.path().c_str());
  return Ok ? 0 : 1;
}
