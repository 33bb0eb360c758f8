//===- Verify.h - Type-rederiving IR verifier -------------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IR verifier, the one checker run at every pass boundary (the
/// "Typechecking" box of Fig 3).  It re-derives the type of every
/// expression bottom-up from binding annotations and rejects a program the
/// moment any pass emits ill-formed or ill-typed code.  It is independent
/// of the frontend's type inference, so a buggy pass cannot smuggle bad
/// code to the simulator.  It checks:
///
///   * SSA discipline: unique binding tags, every use dominated by its
///     binding, no dangling names (including inside symbolic dimensions),
///   * arities: each pattern matches the number of values its expression
///     produces, and each lambda the number of values it is applied to
///     (including the stream fold's leading chunk-size parameter),
///   * bottom-up type agreement: the type derived for each expression must
///     match the pattern that binds it (element kind and rank exactly;
///     constant dimensions exactly; symbolic dimensions are wildcards since
///     passes rename them freely),
///   * SOAC boundaries: lambda parameter/return types against input-array
///     row types, neutral elements against accumulator types, widths
///     against input outer dimensions,
///   * consumption sanity: an array consumed by an in-place update is not
///     observed again in the same body (the post-`uniq` discipline that
///     later passes must preserve; direct consumption only, aliases are
///     the uniqueness checker's job),
///   * post-flattening: no SOAC survives at host level (nested parallelism
///     must be gone), kernels never nest,
///   * kernel well-formedness: grid/thread-index agreement, layout
///     permutations valid, declared KInput types consistent with the bound
///     arrays (these widths feed TiledElementBytes in the simulator), and
///     result types consistent with grid dimensions and thread-body
///     results.
///
/// Violations are reported as typed ErrorKind::Verify diagnostics naming
/// the pass that produced the program and the offending binding, so a bad
/// rewrite is caught at the pass boundary instead of surfacing as a wrong
/// answer deep in gpusim.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_CHECK_VERIFY_H
#define FUTHARKCC_CHECK_VERIFY_H

#include "ir/IR.h"
#include "mem/MemPlan.h"
#include "shard/ShardPlan.h"
#include "support/Error.h"

#include <string>

namespace fut {

/// What the verifier may assume about the program's position in the
/// pipeline.  The driver tightens these as passes establish invariants.
struct VerifyOptions {
  /// Kernel extraction has run: parallelism lives in KernelExps, and SOACs
  /// may only appear sequentialised inside kernel thread bodies.
  bool Flattened = false;

  /// With Flattened set, still tolerate SOACs in host-level code.  Used by
  /// the ablation pipelines that deliberately leave reductions on the host
  /// (FlattenOptions::KernelizeReduce = false).
  bool AllowHostSOACs = false;
};

/// Verifies the whole program as left by \p Pass; returns the first
/// violation as an ErrorKind::Verify diagnostic naming the pass and the
/// offending binding.
MaybeError verifyProgram(const Program &P, const std::string &Pass,
                         const VerifyOptions &Opts = {});

/// Verifies a static memory plan against the (flattened) program it was
/// computed for, by independently re-deriving liveness and aliasing:
///
///   * every kernel output array is placed by the plan,
///   * aliases recorded in the plan correspond to real alias edges (let
///     bindings, uniqueness-sanctioned consumption, loop results) and
///     land in the same slab as their source,
///   * no two simultaneously-live arrays overlap within a slab unless the
///     re-derived aliasing proves they share storage legitimately (for a
///     hoisted double-buffered slab the two halves may hold concurrently
///     live tenants).
///
/// Violations are ErrorKind::Verify diagnostics naming \p Pass, the
/// function, the slab and both offending arrays.
MaybeError verifyMemoryPlan(const Program &P, const mem::MemoryPlan &MP,
                            const std::string &Pass);

/// Verifies a multi-device shard plan against the (flattened) program it
/// was computed for, by independently re-deriving the decomposition:
///
///   * a kernel marked sharded is actually block-partitionable, along the
///     width, histogram marking and aligned inputs the plan records,
///   * every inter-device transfer the decomposition requires (a
///     partitioned value consumed whole, or observed by the host) is
///     present in the plan.
///
/// The plan holds no device count, so there are no rows or budgets to
/// check here: shard::blockCuts cuts rows at run time.  Violations are
/// ErrorKind::Verify diagnostics naming \p Pass, the function, the kernel
/// and the offending arrays.
MaybeError verifyShardPlan(const Program &P, const shard::ShardPlan &SP,
                           const std::string &Pass);

} // namespace fut

#endif // FUTHARKCC_CHECK_VERIFY_H
