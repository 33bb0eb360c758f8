//===- Tune.cpp - Cycle-oracle autotuner over DeviceParams knobs ----------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "tune/Tune.h"

#include "support/Utils.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

using namespace fut;
using namespace fut::tune;

std::string TuneKnobs::str() const {
  std::ostringstream OS;
  OS << "wg=" << WorkgroupSize << " histlocal=" << HistLocalWidthMax
     << " tile=" << TileWidth << " launchfrac=" << PipelinedLaunchFraction;
  return OS.str();
}

namespace {

/// The candidate lattice.  Small and pinned: the point of the tuner is the
/// oracle and the bit-identity constraint, not an exotic search.
const int kWorkgroupSizes[] = {64, 128, 256, 512, 1024};
const int64_t kHistLocalWidths[] = {0, 1024, 4096, 16384, 1 << 20};
const int kTileWidths[] = {0, 128, 256, 512, 1024};
const double kLaunchFractions[] = {0.25, 0.5, 0.75, 0.95};

struct KnobKey {
  int WG;
  int64_t HL;
  int TW;
  double LF;
  bool operator<(const KnobKey &O) const {
    if (WG != O.WG)
      return WG < O.WG;
    if (HL != O.HL)
      return HL < O.HL;
    if (TW != O.TW)
      return TW < O.TW;
    return LF < O.LF;
  }
};

KnobKey keyOf(const TuneKnobs &K) {
  return {K.WorkgroupSize, K.HistLocalWidthMax, K.TileWidth,
          K.PipelinedLaunchFraction};
}

} // namespace

ErrorOr<TuneResult> fut::tune::tuneBenchmark(const bench::BenchmarkDef &B,
                                             const TuneOptions &O) {
  TuneResult R;
  R.Bench = B.Name;
  R.Baseline = TuneKnobs::from(O.Device);

  CompilerOptions CO;

  // Baseline run: its outputs are the hard constraint every candidate
  // must reproduce bit-for-bit, and its cycles are the bar to beat.
  gpusim::DeviceParams BaseDP = O.Device;
  auto Base = bench::runBenchmark(B, CO, BaseDP);
  if (!Base)
    return Base.getError();
  R.BaselineCycles = Base->Cost.TotalCycles;
  R.Evals = 1;
  const std::vector<Value> &Golden = Base->Outputs;

  // Eval cache: cycles of every configuration tried, +inf for rejected
  // (output-divergent or failing) ones so descent never revisits them.
  std::map<KnobKey, double> Cache;
  Cache[keyOf(R.Baseline)] = R.BaselineCycles;

  auto Eval = [&](const TuneKnobs &K) -> double {
    auto It = Cache.find(keyOf(K));
    if (It != Cache.end())
      return It->second;
    gpusim::DeviceParams DP = O.Device;
    K.applyTo(DP);
    ++R.Evals;
    auto Run = bench::runBenchmark(B, CO, DP);
    double Cycles = std::numeric_limits<double>::infinity();
    if (Run) {
      if (firstDifference(Run->Outputs, Golden).empty())
        Cycles = Run->Cost.TotalCycles;
      else
        ++R.OutputMismatches;
    }
    Cache[keyOf(K)] = Cycles;
    return Cycles;
  };

  TuneKnobs Cur = R.Baseline;
  double CurCycles = R.BaselineCycles;

  // Coordinate descent, axis order shuffled deterministically per round.
  SplitMix64 Rng(O.Seed * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL);
  for (int Round = 0; Round < O.Rounds; ++Round) {
    int Axes[] = {0, 1, 2, 3};
    for (int I = 3; I > 0; --I)
      std::swap(Axes[I], Axes[Rng.nextBelow(static_cast<uint64_t>(I) + 1)]);
    for (int Axis : Axes) {
      TuneKnobs BestK = Cur;
      double BestC = CurCycles;
      auto Try = [&](const TuneKnobs &K) {
        double C = Eval(K);
        if (C < BestC) {
          BestC = C;
          BestK = K;
        }
      };
      switch (Axis) {
      case 0:
        for (int V : kWorkgroupSizes) {
          TuneKnobs K = Cur;
          K.WorkgroupSize = V;
          Try(K);
        }
        break;
      case 1:
        for (int64_t V : kHistLocalWidths) {
          TuneKnobs K = Cur;
          K.HistLocalWidthMax = V;
          Try(K);
        }
        break;
      case 2:
        for (int V : kTileWidths) {
          TuneKnobs K = Cur;
          K.TileWidth = V;
          Try(K);
        }
        break;
      case 3:
        for (double V : kLaunchFractions) {
          TuneKnobs K = Cur;
          K.PipelinedLaunchFraction = V;
          Try(K);
        }
        break;
      }
      Cur = BestK;
      CurCycles = BestC;
    }
  }

  R.Best = Cur;
  R.BestCycles = CurCycles;
  return R;
}

std::string fut::tune::toJson(const std::vector<TuneResult> &Results) {
  std::ostringstream OS;
  auto Knobs = [&](const TuneKnobs &K) {
    OS << "{\"workgroup\": " << K.WorkgroupSize
       << ", \"hist_local_width_max\": " << K.HistLocalWidthMax
       << ", \"tile_width\": " << K.TileWidth
       << ", \"pipelined_launch_fraction\": " << K.PipelinedLaunchFraction
       << "}";
  };
  OS << "[\n";
  for (size_t I = 0; I < Results.size(); ++I) {
    const TuneResult &R = Results[I];
    OS << "  {\"bench\": \"" << R.Bench << "\", \"baseline_cycles\": "
       << static_cast<int64_t>(R.BaselineCycles)
       << ", \"best_cycles\": " << static_cast<int64_t>(R.BestCycles)
       << ", \"improvement_pct\": ";
    char Buf[32];
    snprintf(Buf, sizeof(Buf), "%.1f", R.improvementPct());
    OS << Buf << ", \"evals\": " << R.Evals
       << ", \"output_mismatches\": " << R.OutputMismatches
       << ", \"baseline\": ";
    Knobs(R.Baseline);
    OS << ", \"best\": ";
    Knobs(R.Best);
    OS << "}" << (I + 1 < Results.size() ? "," : "") << "\n";
  }
  OS << "]\n";
  return OS.str();
}
