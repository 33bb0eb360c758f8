//===- Interp.h - Reference interpreter -------------------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A direct implementation of the core language's denotational semantics
/// (Section 2.1).  The interpreter is the oracle against which every
/// compiler pass is property-tested: a pass is correct when the transformed
/// program computes the same values as the original.
///
/// Every name a function binds gets a dense slot when the interpreter is
/// constructed; each call evaluates in one frame of slots, and each nested
/// body (branch, loop iteration, lambda call, kernel thread) clears what it
/// bound when it exits.  Consuming an array (an in-place update, a
/// histogram destination, a loop initialiser's last use) moves it out of
/// its slot, so an update the uniqueness checker accepted runs in
/// O(element size), as Section 3 promises.
///
/// Streaming SOACs take an arbitrary partitioning of their input; the chunk
/// size is configurable so tests can verify the paper's invariant that
/// "any partitioning leads to the same result".
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_INTERP_INTERP_H
#define FUTHARKCC_INTERP_INTERP_H

#include "interp/Value.h"
#include "ir/IR.h"
#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

namespace fut {

struct InterpOptions {
  /// Chunk size used when splitting streaming SOAC inputs; 0 means one
  /// maximal chunk (the "recover all inner parallelism" extreme).
  int64_t StreamChunk = 0;

  /// When positive, split streams into min(width, StreamInterleave)
  /// interleaved chunks instead (chunk g holds elements g, g+P, ...),
  /// matching the device chunking of compiled stream_reds.
  int64_t StreamInterleave = 0;

  /// Ignored.  Consumption is the interpreter's only semantics: a consumed
  /// array is always moved out of its binding.  The field remains because
  /// the benchmark harness still sets it.
  bool ConsumeOnUpdate = false;

  /// Abort with an error after this many evaluation steps (guards tests
  /// against runaway loops).
  int64_t MaxSteps = INT64_MAX;

  /// Observation hook, invoked once per expression evaluation with a view
  /// of the bindings visible to it.  The GPU simulator uses it to charge
  /// host-side costs and to track host/device residency of arrays.
  std::function<void(const Exp &, const EnvView &)> OnExp;

  /// Binding hook, invoked after a statement's pattern has been bound,
  /// with the values just bound.  The GPU simulator uses it to register
  /// kernel results as device-resident buffers under their bound names
  /// (and to release the buffer a loop-body rebinding replaces).
  std::function<void(const Stm &, const std::vector<Value> &)> OnBind;

  /// When set, KernelExp evaluation is delegated here (the GPU simulator's
  /// entry point); otherwise kernels are interpreted functionally.
  std::function<ErrorOr<std::vector<Value>>(const KernelExp &,
                                            const EnvView &)>
      HandleKernel;
};

struct InterpLayout;
class InterpFrame;

class Interpreter {
  const Program &Prog;
  InterpOptions Opts;
  int64_t Steps = 0;
  int64_t CopiedConsumes = 0;
  /// One slot layout per function of Prog, in Prog.Funs order.
  std::vector<std::unique_ptr<InterpLayout>> FunLayouts;
  /// Layouts of the closed lambdas passed to evalLambda, by address.
  std::unordered_map<const Lambda *, std::unique_ptr<InterpLayout>>
      LambdaLayouts;

public:
  explicit Interpreter(const Program &Prog, InterpOptions Opts = {});
  ~Interpreter();
  Interpreter(const Interpreter &) = delete;
  Interpreter &operator=(const Interpreter &) = delete;

  /// Runs the named function on the given arguments.
  ErrorOr<std::vector<Value>> runFunction(const std::string &Name,
                                          const std::vector<Value> &Args);

  /// Runs "main".
  ErrorOr<std::vector<Value>> run(const std::vector<Value> &Args) {
    return runFunction("main", Args);
  }

  /// Applies a lambda without free variables (such as a histogram
  /// operator) to the given values.  The lambda must outlive the
  /// interpreter.
  ErrorOr<std::vector<Value>> evalLambda(const Lambda &L,
                                         std::vector<Value> Args);

  /// How many arrays an update, reduce_by_index or SegHist consumed while
  /// their payload was still shared, and so mutated a copy of.  This
  /// counts the copies where they happen, including a consume of an array
  /// bound outside the innermost loop body or lambda, which must survive
  /// for the body's next run.
  int64_t copiedConsumes() const { return CopiedConsumes; }

private:
  /// Consumes the array bound to \p N for mutation in place, counting it
  /// in CopiedConsumes when its payload is shared.
  ErrorOr<Value> consumeToMutate(const VName &N, InterpFrame &F);
  ErrorOr<std::vector<Value>> callFunction(const FunDef &F,
                                           std::vector<Value> Args);
  MaybeError callLambda(const Lambda &L, std::vector<Value> &Args,
                        InterpFrame &F, std::vector<Value> &Out);
  MaybeError runBody(const Body &B, InterpFrame &F, std::vector<Value> &Out);
  MaybeError runScoped(const Body &B, InterpFrame &F, std::vector<Value> &Out);
  MaybeError bindParam(InterpFrame &F, const Param &P, Value V);
  MaybeError evalExp(const Exp &E, InterpFrame &F, std::vector<Value> &Out);
  MaybeError evalUpdate(const UpdateExp &X, InterpFrame &F,
                        std::vector<Value> &Out);
  MaybeError evalLoop(const LoopExp &X, InterpFrame &F,
                      std::vector<Value> &Out);
  MaybeError evalReduceByIndex(const ReduceByIndexExp &X, InterpFrame &F,
                               std::vector<Value> &Out);
  MaybeError evalStream(const StreamExp &S, InterpFrame &F,
                        std::vector<Value> &Out);
  MaybeError evalKernel(const KernelExp &K, InterpFrame &F,
                        std::vector<Value> &Out);
  MaybeError step(const Exp &E);
};

/// Concatenates rank>=1 values along the outer dimension (shapes of inner
/// dimensions must agree).
ErrorOr<Value> concatValues(const std::vector<Value> &Vs);

/// Assembles an array value from equally-shaped element values.
ErrorOr<Value> assembleArray(const std::vector<Value> &Elems);

} // namespace fut

#endif // FUTHARKCC_INTERP_INTERP_H
