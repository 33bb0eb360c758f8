//===- Speed.cpp - Machine-speed calibration for wall-clock metrics --------===//
//
// Part of futharkcc's two-clock benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "Speed.h"

#include "Stats.h"

#include <chrono>
#include <cmath>
#include <memory_resource>
#include <string>
#include <unordered_map>

using namespace perfbench;

namespace {

double scale(double ReferenceSecs) {
  return std::pow(SpeedTracker::kNominalSecs / ReferenceSecs,
                  SpeedTracker::kSensitivity);
}

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

SpeedTracker::SpeedTracker() : Buffer(1 << 20) {}

double SpeedTracker::measure() {
  // An untimed pass first: the timed one then finds the arena in cache
  // whatever the operation before it evicted, so it tracks the machine and
  // not futharkcc's working set.
  pass();
  double T0 = nowS();
  pass();
  return nowS() - T0;
}

void SpeedTracker::pass() {
  // Hash-table inserts and short strings, the allocation-heavy mix of the
  // compiler and simulator, in a private arena: through malloc the loop
  // ran 3.5x slower once the heap was fragmented, so it would have tracked
  // futharkcc's memory use instead of the machine.
  std::pmr::monotonic_buffer_resource Arena(Buffer.data(), Buffer.size(),
                                            std::pmr::null_memory_resource());
  std::pmr::unordered_map<uint64_t, uint64_t> Map(&Arena);
  Map.reserve(4096);
  uint64_t X = Sink | 1;
  for (int I = 0; I < 6000; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    Map[X >> 52] += X;
  }
  std::pmr::vector<std::pmr::string> Strings(&Arena);
  for (int I = 0; I < 300; ++I)
    Strings.emplace_back(24 + I % 40, static_cast<char>('a' + I % 26));
  for (const auto &KV : Map)
    Sink += KV.second;
  Sink += Strings.back().size();
}

void SpeedTracker::tick() {
  double Now = nowS();
  if (Last >= 0 && Now - Last < 0.01)
    return;
  Secs.push_back(measure());
  Last = nowS();
}

double SpeedTracker::factor() const {
  if (Secs.empty())
    return 1;
  size_t From = Secs.size() > 5 ? Secs.size() - 5 : 0;
  return scale(median(std::vector<double>(Secs.begin() + From, Secs.end())));
}

double SpeedTracker::factorSince(size_t From) const {
  if (From >= Secs.size())
    return factor();
  return scale(median(std::vector<double>(Secs.begin() + From, Secs.end())));
}
