//===- MemPlan.h - Static device-memory planning ----------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-flattening memory-planning stage: rather than leaving device
/// allocation to a runtime allocator, the compiler computes per-program
/// liveness over device arrays, builds an interference relation, and
/// assigns every kernel input/output a static (slab, offset, bytes)
/// position in an arena layout.  Three placement
/// rules carry the paper's memory story (Sections 3 and 6):
///
///  * consumed-in-place arrays alias their source's slab — a kernel whose
///    output is an in-place update of a consumed input, or a host-level
///    `a with [i] <- v`, reuses the block instead of doubling it;
///  * loop-carried arrays get one hoisted, double-buffered slab outside
///    the LoopExp (the previous iteration's value is read from one half
///    while the new one is written to the other) instead of a fresh
///    alloc/free per iteration;
///  * non-interfering temporaries share slabs via best-fit colouring.
///
/// The plan is an artifact of compilation: driver/Compiler runs
/// planMemory after locality, check/Verify re-derives the liveness and
/// alias relations to reject unsound plans, and gpusim's buffer manager
/// *executes* the plan — it is the simulator's only device-memory model.
/// The analyses are exposed separately so the verifier and tests never
/// trust the planner's own bookkeeping.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_MEM_MEMPLAN_H
#define FUTHARKCC_MEM_MEMPLAN_H

#include "ir/IR.h"
#include "ir/Name.h"

#include <cstdint>
#include <string>
#include <vector>

namespace fut {
namespace mem {

/// The live range of one device array, in statement-walk order (the walk
/// numbers every host-level statement, recursing into loop and branch
/// bodies; kernel thread bodies are leaves).  Loop-carried names and
/// names live into a loop are extended to the loop's last statement, so
/// an interval is the span during which the array's *storage* must
/// survive, not merely its syntactic uses.
struct LiveInterval {
  VName Name;
  Type Ty;
  int Start = 0; ///< Statement index of the definition (0 for params).
  int End = 0;   ///< Last statement index needing the storage, inclusive.
  /// Fed back through a loop's merge parameters: live across the whole
  /// loop, eligible for a hoisted double-buffered slab.
  bool LoopCarried = false;
  /// Bound as a loop merge parameter (reads the previous iteration's
  /// carried value — the other half of a double buffer).
  bool MergeParam = false;
  /// Byte size when every dimension is constant; -1 when symbolic.
  int64_t Bytes = -1;
};

struct LiveIntervals {
  std::vector<LiveInterval> Intervals; ///< In definition order.
  NameMap<int> Index;

  const LiveInterval *lookup(const VName &N) const {
    auto It = Index.find(N);
    return It == Index.end() ? nullptr : &Intervals[It->second];
  }
};

/// Why two names may legally share storage.
enum class AliasKind : uint8_t {
  Let,        ///< let y = x.
  Consume,    ///< y is an in-place update of x (x consumed; Section 3).
  LoopResult, ///< Loop pattern / merge parameter <-> body result.
};

struct AliasEdge {
  VName Dst, Src;
  AliasKind Kind;
};

/// Liveness + alias analysis of one flattened function, the common input
/// of the planner and the plan verifier.
struct FunMemAnalysis {
  LiveIntervals Intervals;
  std::vector<AliasEdge> Aliases;
};

FunMemAnalysis analyseFun(const FunDef &F);

/// The liveness half of analyseFun.
LiveIntervals computeDeviceIntervals(const FunDef &F);

/// The alias half of analyseFun: let-aliases, consumption aliases and
/// loop-result feedback edges over device arrays.
std::vector<AliasEdge> computeAliasEdges(const FunDef &F);

/// True when the two storage lifetimes overlap (an interference edge).
inline bool interfere(const LiveInterval &A, const LiveInterval &B) {
  return A.Start <= B.End && B.Start <= A.End;
}

/// One array's assigned position: a slab id, a byte offset within the
/// slab, and the byte extent (-1 when the size is symbolic, in which case
/// BufferIndex disambiguates double-buffer halves).
struct PlanEntry {
  VName Name;
  int Slab = 0;
  int64_t Offset = 0;
  int64_t Bytes = -1;   ///< -1: symbolic size (see SizeExpr).
  std::string SizeExpr; ///< Stable textual size, e.g. "[n_3]i32".
  bool HasAlias = false;
  VName AliasOf;
  AliasKind Alias = AliasKind::Let;
  bool Hoisted = false;  ///< Lives in a hoisted double-buffered slab.
  int BufferIndex = 0;   ///< Double-buffer half (0 or 1).
  bool Reused = false;   ///< Placed in a slab another class used earlier.
  int Start = 0, End = 0; ///< Planned live range (informational; the
                          ///< verifier re-derives its own).
};

struct SlabInfo {
  int Id = 0;
  int64_t Bytes = -1;   ///< Static total extent; -1 when symbolic.
  std::string SizeExpr; ///< Per-buffer size text when symbolic.
  bool Hoisted = false; ///< Double-buffered loop-carried slab (2x extent).
};

struct FunPlan {
  std::string Fun;
  std::vector<PlanEntry> Entries; ///< In first-definition order.
  std::vector<SlabInfo> Slabs;
  NameMap<int> EntryIndex;
  /// Sum of the statically sized slabs' extents (hoisted slabs count both
  /// halves); symbolic slabs are excluded.
  int64_t StaticArenaBytes = 0;
  int HoistedSlabs = 0;
  int ReuseLinks = 0; ///< Classes placed into an already-used slab.
  /// The AD tape: stack-of-iterates arrays the VJP pass binds as adtape*
  /// loop results (one per taped loop and merge parameter).  They are
  /// host-resident and never join the slab colouring, but the plan
  /// accounts for them so the tape footprint can be checked against the
  /// device peak bound (bench_ad, the CI AD leg).
  int64_t TapeBytes = 0; ///< Sum of the statically sized tape extents.
  int TapeArrays = 0;
  int TapeSymbolic = 0; ///< Tape arrays whose trip count is runtime-sized.

  const PlanEntry *lookup(const VName &N) const {
    auto It = EntryIndex.find(N);
    return It == EntryIndex.end() ? nullptr : &Entries[It->second];
  }
};

struct MemoryPlan {
  std::vector<FunPlan> Funs;

  const FunPlan *forFun(const std::string &Name) const {
    for (const FunPlan &FP : Funs)
      if (FP.Fun == Name)
        return &FP;
    return nullptr;
  }

  /// Stable textual dump (the --print-mem-plan format, pinned by a golden
  /// test): deterministic order, no pointers, no unordered iteration.
  std::string str() const;
};

/// Plans every function of a flattened program.  Pure and deterministic:
/// the same program always yields the same plan.
MemoryPlan planMemory(const Program &P);

} // namespace mem
} // namespace fut

#endif // FUTHARKCC_MEM_MEMPLAN_H
