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
/// The interpreter resolves each function once, on its first call: every
/// name the function binds gets a dense slot, and every operand, pattern
/// element and loop or lambda parameter becomes a slot index or a constant,
/// so evaluation looks up no name (hooks still find names through EnvView).
/// Each call evaluates in one frame of slots.  A statement writes its
/// results straight into its pattern's slots, and scalar operations
/// (arithmetic, conversions, a full index, loop indices) read and write
/// PrimValues in place, allocating nothing.  A nested body (branch, loop
/// iteration, lambda call, kernel thread) clears the slots it bound when it
/// exits; only a binding that may shadow another binding of its name saves
/// that binding in an undo log, to restore it then.  Consuming an array (an
/// in-place update, a histogram destination, a loop initialiser's last use)
/// moves it out of its slot, so an update the uniqueness checker accepted
/// runs in O(element size), as Section 3 promises.
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

class InterpFrame;
struct InterpOperand;
struct InterpBinding;
struct InterpBody;
struct InterpStm;
struct InterpLambda;
struct InterpFunction;

class Interpreter {
  const Program &Prog;
  InterpOptions Opts;
  int64_t Steps = 0;
  int64_t CopiedConsumes = 0;
  /// The resolved form of each function of Prog, in Prog.Funs order; null
  /// until the function's first call.
  std::vector<std::unique_ptr<InterpFunction>> Funs;
  /// The resolved closed lambdas passed to evalLambda, by address.
  std::unordered_map<const Lambda *, std::unique_ptr<InterpFunction>>
      ClosedLambdas;
  /// The error that stopped the run.  The evaluation steps below return
  /// false after setting it.
  CompilerError Failure;
  /// Scratch space for the indices of an index or update.
  std::vector<int64_t> Idx;
  /// The values a statement bound, as the binding hook sees them.
  std::vector<Value> HookVals;

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
  bool fail(CompilerError E);
  const Value *value(const InterpOperand &O, const InterpFrame &F);
  bool readInt(const InterpOperand &O, const InterpFrame &F, const char *What,
               int64_t &Out);
  /// Consumes the array bound to \p O for mutation in place, counting it
  /// in CopiedConsumes when its payload is shared.
  bool consumeToMutate(const InterpOperand &O, InterpFrame &F, Value &Out);
  bool bindValue(InterpFrame &F, const InterpBinding &B, Value &&V);
  bool bindScalar(InterpFrame &F, const InterpBinding &B, PrimValue V);
  bool callFunction(const FunDef &Fn, std::vector<Value> Args,
                    std::vector<Value> &Out);
  bool callLambda(const InterpLambda &L, std::vector<Value> &Args,
                  InterpFrame &F, std::vector<Value> &Out);
  bool runBody(const InterpBody &B, InterpFrame &F, std::vector<Value> &Out);
  bool runScoped(const InterpBody &B, InterpFrame &F,
                 std::vector<Value> &Out);
  bool execStm(const InterpStm &S, InterpFrame &F);
  bool bindResults(const InterpStm &S, InterpFrame &F, size_t Base);
  bool evalScalarOp(const InterpStm &S, InterpFrame &F, PrimValue &R);
  bool evalIndex(const InterpStm &S, InterpFrame &F, PrimValue &Elem,
                 Value &Sub, bool &Full);
  bool evalExp(const InterpStm &S, InterpFrame &F, std::vector<Value> &Out);
  bool evalUpdate(const InterpStm &S, InterpFrame &F, Value &Out);
  bool evalLoop(const InterpStm &S, InterpFrame &F, std::vector<Value> &Out);
  bool soacArrays(const InterpStm &S, InterpFrame &F, size_t From, int64_t W,
                  const char *Msg, std::vector<Value> &Out);
  bool evalMap(const InterpStm &S, InterpFrame &F, std::vector<Value> &Out);
  bool evalReduce(const InterpStm &S, InterpFrame &F,
                  std::vector<Value> &Out);
  bool evalScan(const InterpStm &S, InterpFrame &F, std::vector<Value> &Out);
  bool evalReduceByIndex(const InterpStm &S, InterpFrame &F,
                         std::vector<Value> &Out);
  bool evalStream(const InterpStm &S, InterpFrame &F,
                  std::vector<Value> &Out);
  bool evalKernel(const InterpStm &S, InterpFrame &F,
                  std::vector<Value> &Out);
};

/// Concatenates rank>=1 values along the outer dimension (shapes of inner
/// dimensions must agree).
ErrorOr<Value> concatValues(const std::vector<Value> &Vs);

/// Assembles an array value from equally-shaped element values.
ErrorOr<Value> assembleArray(const std::vector<Value> &Elems);

} // namespace fut

#endif // FUTHARKCC_INTERP_INTERP_H
