//===- BufferManager.h - Device allocations and liveness --------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Device-memory management for the GPU simulator.  Two pieces:
///
/// LivenessInfo precomputes, for every statement expression in a program,
/// the set of names live *after* it (a backward pass over every function
/// body).  Nested bodies that may re-execute (loops, lambdas) are handled
/// conservatively: everything free in the body, plus the body's own result
/// names (which feed the next iteration through merge parameters), is kept
/// live throughout the body.  The simulator queries the set at each kernel
/// launch to release device buffers no later host code or kernel can
/// reach — the fix for the historical LiveDeviceBytes leak, where kernel
/// intermediates consumed only by later kernels were never released.
///
/// DeviceBufferManager tracks refcounted device allocations keyed by IR
/// name.  Aliases (let y = x) share one allocation; bytes are released
/// when the last name referencing an allocation is dropped.  Each buffer
/// carries dual residency state — a host readback keeps the device copy
/// valid, so re-using the array on the device no longer pays a phantom
/// re-upload — and a ready-time on the simulated timeline, which is the
/// dependency the two-engine scheduler (Timeline.h) respects.
///
/// Byte accounting *executes* the compiler's static memory plan
/// (mem/MemPlan.h).  Each name maps to its planned slab, and occupancy is
/// tracked per (slab, double-buffer half): a flat slab holds one
/// occupant, a hoisted slab holds two — the carried generation in one
/// half stays charged while the new one is written to the other, exactly
/// the concurrency the plan sized the slab at 2x for.  A binding whose
/// storage the plan reuses (a consumed input's block, a rebound name's
/// own half, a coloured temporary) evicts only that half's stale
/// occupancy instead of double-charging.  Names the plan does not cover
/// (or every name, without a plan) get an implicit slot of their own.
/// Residency and timeline state (refcounts, DeviceValid, ReadyAt) never
/// depend on the plan, so simulated cycles don't either — only the byte
/// counters do.
///
/// The manager is pure accounting: array contents always live in host
/// interpreter Values.  Renamings the simulator cannot see (loop merge
/// parameters binding a prior iteration's value) simply have no buffer
/// entry and cost nothing, matching the pre-manager model.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_GPUSIM_BUFFERMANAGER_H
#define FUTHARKCC_GPUSIM_BUFFERMANAGER_H

#include "ir/IR.h"
#include "ir/Name.h"
#include "mem/MemPlan.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace fut {
namespace gpusim {

/// Per-statement live-after sets for a whole program, keyed by the
/// statement's expression object (stable for the lifetime of the Program).
class LivenessInfo {
  std::unordered_map<const Exp *, NameSet> LiveAfter;

public:
  explicit LivenessInfo(const Program &P);

  /// Names live after the statement binding \p E, or null when \p E is not
  /// a statement expression of the analysed program.
  const NameSet *liveAfter(const Exp *E) const {
    auto It = LiveAfter.find(E);
    return It == LiveAfter.end() ? nullptr : &It->second;
  }

private:
  NameSet computeBody(const Body &B, NameSet Live);
};

/// Refcounted device allocations with residency and timeline state.
class DeviceBufferManager {
  struct Alloc {
    int64_t Bytes = 0;
    int Refs = 0;
    bool DeviceValid = true;
    double ReadyAt = 0; ///< Simulated time the device copy is usable.
    int Slot = 0;       ///< Slab half occupied (keys Slots).
  };

  /// One (slab, half)'s occupancy.  At most one allocation's bytes are
  /// charged per half; binding a new tenant into a half evicts its stale
  /// occupancy (the plan proved the lifetimes disjoint or aliasable),
  /// while the other half of a hoisted slab stays charged.
  struct SlotState {
    int OccId = -1; ///< Occupant allocation, -1 when vacant.
    bool EverUsed = false;
    bool Hoisted = false;
    VName LastName;       ///< Last occupant's IR name (reuse counting).
    int64_t MaxBytes = 0; ///< Widest tenant ever charged (plannedPeakBytes
                          ///< fallback for symbolically sized slabs).
  };

  int64_t Capacity; ///< <= 0 means unlimited.
  std::vector<Alloc> Allocs;
  NameMap<int> NameToAlloc;

  /// Plan execution state.  Slots is keyed by a composite slot id:
  /// planned slab S, half H -> 2*S + H (flat slabs only use half 0); names
  /// the plan doesn't cover get negative ids.
  const mem::FunPlan *Plan;
  std::unordered_map<int, SlotState> Slots;
  NameMap<int> ImplicitSlot; ///< Names the plan doesn't cover.
  int NextImplicitSlot = -1; ///< Implicit slabs grow downwards.
  int64_t HoistedAllocCount = 0;
  int64_t ReusedBlockCount = 0;
  int64_t ImplicitLiveBytes = 0; ///< Live bytes in implicit (unplanned)
  int64_t ImplicitPeakBytes = 0; ///< slots, and their high-water mark.

  int64_t LiveBytesNow = 0;
  int64_t PeakBytesSeen = 0;
  int64_t FreedBytesTotal = 0;

  void dropRef(int Id);
  int planSlot(const VName &N, bool &Hoisted);
  void vacate(int Slot);

public:
  /// Executes \p Plan, one function's memory plan; null gives every name
  /// its own implicit slot.
  DeviceBufferManager(int64_t Capacity, const mem::FunPlan *Plan)
      : Capacity(Capacity), Plan(Plan) {}

  /// True when \p Bytes more would still fit.
  bool wouldFit(int64_t Bytes) const {
    return Capacity <= 0 || LiveBytesNow + Bytes <= Capacity;
  }
  int64_t capacity() const { return Capacity; }

  /// Binds \p N to a fresh device allocation of \p Bytes ready at
  /// \p ReadyAt, releasing whatever \p N named before (a loop-body
  /// rebinding).  Returns false when the allocation would exceed capacity
  /// (nothing is changed, including \p N's previous binding).
  bool bind(const VName &N, int64_t Bytes, double ReadyAt);

  /// Makes \p Dst share \p Src's allocation (let-bound aliases); no-op
  /// when \p Src has no allocation.  Any previous binding of \p Dst is
  /// released.
  void alias(const VName &Dst, const VName &Src);

  bool tracked(const VName &N) const { return NameToAlloc.count(N) != 0; }
  bool deviceValid(const VName &N) const;
  /// Ready-time of \p N's device copy; 0 when untracked.
  double readyAt(const VName &N) const;
  /// Updates the ready-time of \p N's device copy (upload completion, or
  /// an on-device transpose rewriting it).
  void setReady(const VName &N, double T);

  /// Marks the device copy invalid (sync-mode readback mirrors the old
  /// model, where a readback released the device allocation) and releases
  /// the bytes.
  void invalidateDevice(const VName &N);

  /// Drops \p N's reference entirely.
  void release(const VName &N);

  /// Releases every tracked name not in \p Keep: the liveness-driven
  /// sweep run at each kernel launch.
  void freeDead(const NameSet &Keep);

  int64_t liveBytes() const { return LiveBytesNow; }
  int64_t peakBytes() const { return PeakBytesSeen; }
  int64_t freedBytes() const { return FreedBytesTotal; }
  /// Rebinds served by a hoisted double-buffered slab.
  int64_t hoistedAllocs() const { return HoistedAllocCount; }
  /// Slab occupancies taken over from a different array.
  int64_t reusedBlocks() const { return ReusedBlockCount; }
  /// The plan-derived residency bound — the sum of every slab half the
  /// run actually materialised, charged at its planned static extent
  /// (widest observed tenant for symbolically sized slabs), plus the peak
  /// of allocations the plan does not cover.  An upper bound on
  /// peakBytes() by construction, and genuinely static for fully
  /// statically shaped programs: it reflects the arena layout, not the
  /// moment-to-moment live counter.  0 without a plan.
  int64_t plannedPeakBytes() const;
};

} // namespace gpusim
} // namespace fut

#endif // FUTHARKCC_GPUSIM_BUFFERMANAGER_H
