//===- Compiler.h - The full pipeline of Fig 3 ------------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler driver: parse -> desugar/typecheck -> uniqueness check ->
/// inline -> simplify -> fuse -> simplify -> kernel extraction ->
/// simplify -> locality optimisation (Fig 3's architecture).  Each phase
/// can be disabled individually, which is how the Section 6.1.1 ablation
/// benchmarks measure the impact of fusion, coalescing and tiling.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_DRIVER_COMPILER_H
#define FUTHARKCC_DRIVER_COMPILER_H

#include "flatten/Flatten.h"
#include "fusion/Fusion.h"
#include "gpusim/Device.h"
#include "ir/IR.h"
#include "locality/Locality.h"
#include "mem/MemPlan.h"
#include "shard/ShardPlan.h"
#include "support/Error.h"

#include <functional>
#include <string>

namespace fut {

struct CompilerOptions {
  bool EnableFusion = true;
  bool ExtractKernels = true;
  /// Run the type-rederiving IR verifier (check/Verify.h) after every
  /// pass, the only pass-boundary IR check; violations abort compilation
  /// with an ErrorKind::Verify diagnostic naming the pass and the offending
  /// binding.  The --verify-ir flag; on by default so tests and CI always
  /// compile under it.
  bool VerifyIR = true;

  /// Name of a function to differentiate (the --vjp flag).  When
  /// non-empty, a function-transform stage runs after inlining: reverse-mode
  /// AD adds `<VJP>_vjp` (primal results followed by the adjoint of every
  /// active parameter) to the program, and the generated adjoint code flows
  /// through the normal simplify/fuse/flatten/memplan/shard pipeline and
  /// every per-pass verifier unchanged.  Empty (the default) is a pinned
  /// no-op that keeps existing cache keys and golden hashes byte-identical.
  std::string VJP;

  /// Test-only hook run after each pass rewrites the program and before
  /// the verifier sees it; used to inject a deliberately broken rewrite
  /// and assert the verifier catches it at the right pass boundary.
  std::function<void(Program &, const std::string &Pass)> PostPassHook;

  /// The memory-plan analogue of PostPassHook: runs on the freshly
  /// computed plan before the plan verifier, so tests can inject a
  /// deliberately overlapping layout and assert it is rejected.
  std::function<void(mem::MemoryPlan &)> PostPlanHook;

  /// The shard-plan analogue of PostPlanHook: runs on the freshly computed
  /// shard plan before the shard verifier, so tests can plant a wrong
  /// width, input class or histogram marking, or drop a boundary
  /// transfer, and assert each is rejected with a named diagnostic.
  std::function<void(shard::ShardPlan &)> PostShardPlanHook;

  FlattenOptions Flatten;
  LocalityOptions Locality;

  /// Stable textual dump of every option that changes the compiled
  /// artifact (test hooks and verification toggles are excluded: they
  /// affect *whether* compilation succeeds, never what it produces).
  /// Feeds the artifact cache key, so two requests differing in any
  /// semantically relevant flag never share an artifact.
  std::string cacheCanonical() const;
};

/// The device-executable half of a compiled artifact: the fully lowered
/// (flattened, fused, locality-optimised) program the simulator runs.
/// Structurally it *is* a Program — every existing consumer keeps working —
/// but it additionally carries the canonical dump used for content
/// addressing: str() is deterministic (the pipeline and the name source are
/// pure functions of the input), pinned by a golden-hash test so cache keys
/// cannot silently drift when a pass changes.
struct DeviceProgram : Program {
  DeviceProgram() = default;
  DeviceProgram(Program P) : Program(std::move(P)) {}

  /// Canonical textual form (the IR printer's output; stable order, tagged
  /// names, no pointers).
  std::string str() const;
};

struct CompileResult {
  DeviceProgram P;
  FusionStats Fusion;
  FlattenStats Flatten;
  LocalityStats Locality;
  /// The static device-memory plan ("pass:memplan"), verified against the
  /// program; empty when planning was disabled or kernels not extracted.
  mem::MemoryPlan MemPlan;
  /// The multi-device shard plan ("pass:shardplan"), verified against the
  /// program; empty when kernels were not extracted.  It holds no device
  /// count (DeviceRunOptions::Devices picks one per run) and is a pure
  /// function of the program, so it does not enter the fingerprint.
  shard::ShardPlan Shards;

  /// Content hash of the whole artifact: the canonical program dump, the
  /// memory-plan dump and the cost metadata (pass statistics).  Recompiling
  /// the same source with the same options always reproduces the same
  /// fingerprint — the property the serving layer's artifact cache and the
  /// quarantine recompile path rely on.
  uint64_t fingerprint() const;
};

/// The artifact-cache key: a content hash of the source text plus the
/// canonical compiler options.  Computable without compiling, which is what
/// makes compile-once/serve-many cheap on the hit path.
uint64_t artifactCacheKey(const std::string &Source,
                          const CompilerOptions &Opts);

/// Compiles surface source through the full pipeline.
ErrorOr<CompileResult> compileSource(const std::string &Source,
                                     NameSource &Names,
                                     const CompilerOptions &Opts = {});

/// Runs the middle- and back-end phases on an already-desugared program.
ErrorOr<CompileResult> compileProgram(Program P, NameSource &Names,
                                      const CompilerOptions &Opts = {});

/// How a compiled program is executed: the simulated device's hardware
/// parameters (capacity, throughputs, watchdog budgets) plus the host
/// runtime's resilience policy (fault plan, retries, interpreter
/// fallback).  The driver's --device-mem/--watchdog/--fault-rate/
/// --fault-seed/--max-retries flags populate this.
struct DeviceRunOptions {
  gpusim::DeviceParams Device = gpusim::DeviceParams::gtx780();
  gpusim::ResilienceParams Resilience;
  /// Compile-time memory plan to execute (must outlive the run).  Null
  /// lets the device plan the program itself when its parameters enable
  /// plan execution.
  const mem::MemoryPlan *MemPlan = nullptr;
  /// Compile-time shard plan plus the simulated device count; with
  /// Devices <= 1 (or no plan) execution is single-device and
  /// bit-identical to the pre-sharding model.
  const shard::ShardPlan *Shards = nullptr;
  int Devices = 1;
};

/// Runs a compiled program's entry point under the resilient host runtime.
ErrorOr<gpusim::RunResult> runOnDevice(const Program &P,
                                       const std::vector<Value> &Args,
                                       const DeviceRunOptions &Opts = {},
                                       const std::string &Fun = "main");

} // namespace fut

#endif // FUTHARKCC_DRIVER_COMPILER_H
