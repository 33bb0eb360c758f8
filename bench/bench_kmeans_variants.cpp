//===- bench_kmeans_variants.cpp - Figure 4 and the in-place ablation -------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
// Regenerates the K-means cluster-counting comparison of Fig 4 and the
// in-place-updates ablation of Section 6.1.1: the work-inefficient
// fully-parallel formulation (Fig 4b, O(n*k) work, the only option without
// in-place updates) against the stream_red formulation (Fig 4c), plus the
// purely sequential loop (Fig 4a) on the host for reference.  The paper
// reports the 4b formulation to be 8.3x slower.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "gpusim/Device.h"
#include "support/Utils.h"

#include <cstdio>

using namespace fut;

namespace {

const char *Fig4a =
    "fun main (k: i32) (n: i32) (membership: [n]i32): [k]i32 =\n"
    "  loop (counts = replicate k 0) for i < n do\n"
    "    let cluster = membership[i]\n"
    "    in counts with [cluster] <- counts[cluster] + 1";

const char *Fig4b =
    "fun main (k: i32) (n: i32) (membership: [n]i32): [k]i32 =\n"
    "  let increments =\n"
    "    map (\\(cluster: i32): [k]i32 ->\n"
    "           let incr = replicate k 0\n"
    "           let incr[cluster] = 1\n"
    "           in incr)\n"
    "        membership\n"
    "  in reduce (map (+)) (replicate k 0) increments";

const char *Fig4c =
    "fun main (k: i32) (n: i32) (membership: [n]i32): [k]i32 =\n"
    "  stream_red (map (+))\n"
    "    (\\(acc: *[k]i32) (chunk: [chunksize]i32): [k]i32 ->\n"
    "       loop (acc) for i < chunksize do\n"
    "         let cluster = chunk[i]\n"
    "         in acc with [cluster] <- acc[cluster] + 1)\n"
    "    (replicate k 0) membership";

double run(const char *Src, const char *Name) {
  NameSource NS;
  auto C = compileSource(Src, NS);
  if (!C) {
    fprintf(stderr, "%s: %s\n", Name, C.getError().Message.c_str());
    return -1;
  }
  int64_t N = 65536, K = 32;
  SplitMix64 Rng(42);
  std::vector<int64_t> Member(N);
  for (auto &M : Member)
    M = static_cast<int64_t>(Rng.nextBelow(K));
  std::vector<Value> Args = {Value::scalar(PrimValue::makeI32(K)),
                             Value::scalar(PrimValue::makeI32(N)),
                             makeIntVectorValue(ScalarKind::I32, Member)};
  // Fig 4 cycle counts are pinned under the serial (--sync) cost model.
  gpusim::DeviceParams DP = gpusim::DeviceParams::gtx780();
  DP.AsyncTimeline = false;
  gpusim::Device D(DP);
  auto R = D.runMain(C->P, Args);
  if (!R) {
    fprintf(stderr, "%s: %s\n", Name, R.getError().Message.c_str());
    return -1;
  }
  printf("%-28s %12.0f cycles   (%s)\n", Name, R->Cost.TotalCycles,
         R->Cost.str().c_str());
  return R->Cost.TotalCycles;
}

} // namespace

int main() {
  printf("Figure 4: counting cluster sizes in K-means (n=65536, k=32)\n\n");
  double A = run(Fig4a, "Fig 4a (sequential loop)");
  double B = run(Fig4b, "Fig 4b (map + reduce, O(nk))");
  double C = run(Fig4c, "Fig 4c (stream_red)");
  if (A < 0 || B < 0 || C < 0)
    return 1;
  printf("\nwithout in-place updates (4b) vs stream_red (4c): %.1fx slower "
         "(paper: 8.3x)\n",
         B / C);
  printf("sequential host loop (4a) vs stream_red (4c):     %.1fx slower\n",
         A / C);
  return 0;
}
