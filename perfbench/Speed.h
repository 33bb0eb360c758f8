//===- Speed.h - Machine-speed calibration for wall-clock metrics -*- C++ -*-===//
//
// Part of futharkcc's two-clock benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machines run at a speed that drifts in multi-second stretches
/// (the same compile measured 360, 490 and 620 µs within one minute on a
/// 4-core Xeon container).  SpeedTracker runs a fixed reference loop, which
/// shares no code with futharkcc, between the benchmark's operations, and
/// scales each wall time by a power of nominal / recent reference time.  A
/// change to futharkcc moves the scaled time exactly as it moves the raw
/// one; a slower stretch of machine time moves neither.  The loop is timed
/// on a warm cache, so futharkcc's own footprint does not leak into the
/// factor.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPEED_H
#define PERFBENCH_SPEED_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class SpeedTracker {
public:
  /// The reference loop's time, in seconds, that counts as speed 1.
  static constexpr double kNominalSecs = 85e-6;
  /// In slow stretches compiles and KernelSim slow down more than the
  /// cache-resident loop.  Over ten suite-sim runs on a 4-core Xeon
  /// container whose loop time varied by up to 1.27x, the slope of log
  /// raw time on log loop time was 1.40 for setup_s, 1.32 and 1.39 for
  /// compile_us_p50/p99 and 1.75 for device_run_ms_geomean.  Their spreads
  /// (quartile distance over median) were 16%, 9%, 10% and 16% scaled by
  /// the plain ratio and 9%, 6%, 3% and 10% by its power 1.5.
  static constexpr double kSensitivity = 1.5;

  SpeedTracker();

  /// Times the reference loop once, unless it last ran under 10 ms ago.
  void tick();

  /// (kNominalSecs / median of the last five reference times) ^
  /// kSensitivity; 1 before the first.  Multiply a wall time by it to
  /// calibrate it.
  double factor() const;

  /// As factor(), over the reference times since sample \p From (see
  /// samples()); factor() when there is none.
  double factorSince(size_t From) const;

  size_t samples() const { return Secs.size(); }

  /// Runs the reference loop twice and returns the second run's wall
  /// seconds.
  double measure();

private:
  void pass();

  std::vector<std::byte> Buffer; ///< The reference loop's arena.
  std::vector<double> Secs;
  double Last = -1;
  uint64_t Sink = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPEED_H
