//===- KernelSim.cpp - One simulated kernel launch --------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A launch runs in two steps.
///
/// *Resolve.*  The thread body, the reduction operator and every nested
/// lambda, loop and branch are walked once.  Every bound name (pattern,
/// lambda parameter, loop index and merge parameter, thread and segment
/// index) gets a dense slot of the frame; every free name becomes either a
/// view slot of a kernel input or a host value copied from the host
/// environment once.  Constants get slots of their own, so every operand
/// is a slot index.
///
/// *Run.*  The lanes of one range execute in one frame: each thread
/// rewrites its index slots and then overwrites the slots its statements
/// bind.  Scalars are unboxed PrimValues, views of global memory stay
/// GlobalView records, and an in-place update moves the array out of its
/// slot so it stays O(1) when the array is not otherwise shared.
///
/// *Warp steps.*  A range runs the lanes it holds of one warp together:
/// each statement for every active lane before the next statement (see
/// the Warp steps section below), and lanes one after another when the
/// step fails or DeviceParams::ForceLaneByLane is set.
///
/// *Warp ranges.*  Threads share only read-only inputs and write their own
/// output rows, so lanes are independent.  A launch's lanes are its
/// threads, its segments when it has a grid (one thread per segment), or
/// the elements of a gridless segmented fold.  Its first lanes run first;
/// when their work scaled to the whole launch is large enough, the other
/// lanes run as contiguous ranges on the warp pool, each with its own
/// frame, lane traces, charges, profile and output rows, and the first
/// range absorbs them in lane order.  A range cut inside a warp hands that
/// warp's lanes back unmerged, so every warp merges once over all its
/// lanes; every charged counter and profile field is a sum, so the merged
/// counts are the one-range counts exactly.  The ranges of a gridless fold
/// only run element bodies and buffer their scalar results; once all have
/// finished, the first range applies the operator to them in element
/// order, so the fold is never reassociated.  A range that failed or
/// cannot follow the rows before it runs again on the first range, which
/// then meets what one range would.  SegHist launches and gridless folds
/// of arrays always run as one range.
///
/// Reduction operators (the kernel's ReduceFn and a stream_red's combine)
/// run through the same evaluator with charging switched off, resolved
/// like the interpreter applies a closed lambda: no free names, with the
/// dimensions of array parameters bound from the arguments' shapes.
///
/// Every charge (chargeRead, chargePrivate, chargeWrite) and every lane
/// boundary (openLane, mergeWarp) happens in the order each lane's thread
/// program prescribes, so counters, per-lane address traces and the warp
/// profile are a function of the program alone.
///
//===----------------------------------------------------------------------===//

#include "gpusim/KernelSim.h"
#include "gpusim/WarpPool.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <memory>

using namespace fut;
using namespace fut::gpusim;

namespace {

/// A view into a global input array: the input index plus leading indices
/// already applied, and an optional slice of the next dimension.
struct GlobalView {
  int InputIdx = -1;
  std::vector<int64_t> Prefix;
  int64_t SliceOff = 0;
  bool Sliced = false;
  int64_t SliceLen = 0;
  int64_t SliceStride = 1;
};

/// One frame slot: an unboxed scalar, a private array (registers/private
/// memory) or a view of global memory.  Unbound marks a free name with no
/// binding and an array consumed by an in-place update; reading it fails.
struct TVal {
  enum class Tag : uint8_t { Unbound, Scalar, Array, View };
  Tag T = Tag::Unbound;
  PrimValue S;
  Value A;
  GlobalView V;

  bool is(Tag X) const { return T == X; }
  void setScalar(PrimValue X) {
    T = Tag::Scalar;
    S = X;
  }
  void setArray(Value X) {
    T = Tag::Array;
    A = std::move(X);
  }
  /// Copies another slot's value.
  void assign(const TVal &O) {
    if (this == &O)
      return;
    T = O.T;
    if (T == Tag::Scalar)
      S = O.S;
    else if (T == Tag::Array)
      A = O.A;
    else if (T == Tag::View)
      V = O.V;
  }
  /// Copies another slot's value or, when \p Move, steals its array.
  void assign(TVal &O, bool Move) {
    if (!Move || O.T != Tag::Array || this == &O)
      return assign(static_cast<const TVal &>(O));
    T = Tag::Array;
    A = std::move(O.A);
    O.T = Tag::Unbound;
  }
  int64_t numElems() const { return T == Tag::Array ? A.numElems() : 1; }
  ScalarKind elemKind() const {
    return T == Tag::Array ? A.elemKind() : S.kind();
  }
  /// The private value as a Value (scalar or array).
  Value value() const { return T == Tag::Array ? A : Value::scalar(S); }
};

//===----------------------------------------------------------------------===//
// The resolved form
//===----------------------------------------------------------------------===//

struct RStm;

struct RBody {
  std::vector<RStm> Stms;
  std::vector<int> Result;
  /// Result I is a slot bound in this body and not named again later in
  /// Result, so the caller may steal its array.
  std::vector<bool> Movable;
};

/// A dimension variable of an operator lambda's array parameter, bound
/// from the argument's shape when the lambda is applied (as the
/// interpreter applies a closed lambda).
struct DimBind {
  int ParamIdx;
  int Dim;
  int Slot;
};

/// A lambda or a loop: parameter slots (a loop's index first, then its
/// merge parameters) and the body.
struct RLambda {
  std::vector<int> Params;
  std::vector<DimBind> Dims;
  RBody Body;
};

struct RStm {
  /// How a warp step runs the statement: for all active lanes at once
  /// (Scalar: SubExp, BinOp, UnOp, ConvOp; Read and View: an Index of a
  /// kernel input, or of a lane view of one, down to a scalar or to a lane
  /// view; If and Loop: their bodies under a lane mask), or lane by lane
  /// through execStm.
  enum class StepKind : uint8_t { Lane, Scalar, Read, View, If, Loop };

  const Exp *E = nullptr;
  StepKind Step = StepKind::Lane;
  /// Operand slots, in the order the expression evaluates them.
  std::vector<int> Ops;
  /// Pattern slots.
  std::vector<int> Out;
  /// If: then, else.
  std::vector<RBody> Bodies;
  /// Map/Reduce/Scan: the lambda; Stream: fold and combine; Loop: body.
  std::vector<RLambda> Fns;
  /// Update: the array is bound in this body, so it is moved out.
  bool Consume = false;
  /// Loop: a result names another merge parameter, so results are
  /// staged before the parameters are overwritten.
  bool ResultsAlias = false;
  /// The expression yields a different number of values than the pattern.
  bool BadArity = false;
  /// A warp-level statement run lane by lane: the warp-level slots it or
  /// its nested bodies read, loaded from the lane store for each lane.
  std::vector<int> LaneIns;
};

/// Accumulates equally-shaped elements into one flat row-major payload.
struct Column {
  bool Started = false;
  bool ElemScalar = true;
  bool Irregular = false;
  ScalarKind Kind = ScalarKind::I32;
  std::vector<int64_t> ElemShape;
  std::vector<PrimValue> Data;
  int64_t Rows = 0;

  void append(const TVal &V) {
    bool IsScalar = V.is(TVal::Tag::Scalar);
    ScalarKind K = V.elemKind();
    if (!Started) {
      Started = true;
      ElemScalar = IsScalar;
      Kind = K;
      if (!IsScalar)
        ElemShape = V.A.shape();
    } else if (Irregular || IsScalar != ElemScalar || K != Kind ||
               (!IsScalar && V.A.shape() != ElemShape)) {
      Irregular = true;
      return;
    }
    if (IsScalar)
      Data.push_back(V.S);
    else
      Data.insert(Data.end(), V.A.flat().begin(), V.A.flat().end());
    ++Rows;
  }

  /// Whether \p B's rows can follow this column's: they could not when
  /// B's first row would have made a regular column irregular.
  bool canTake(const Column &B) const {
    if (!Started || !B.Started || Irregular)
      return true;
    return !B.Irregular && B.ElemScalar == ElemScalar && B.Kind == Kind &&
           B.ElemShape == ElemShape;
  }
  /// Appends \p B's rows, as if they had been appended here.
  void take(Column &&B) {
    if (!B.Started || Irregular)
      return;
    if (!Started) {
      *this = std::move(B);
      return;
    }
    Data.insert(Data.end(), B.Data.begin(), B.Data.end());
    Rows += B.Rows;
  }

  /// A column's state to roll back to: appends only grow Data and Rows
  /// and may mark it irregular, and take() into an unstarted column
  /// replaces it.
  struct Mark {
    bool Started, Irregular;
    size_t Size;
    int64_t Rows;
  };
  Mark mark() const { return {Started, Irregular, Data.size(), Rows}; }
  void rollback(const Mark &M) {
    if (!M.Started)
      return reset();
    Irregular = M.Irregular;
    Data.resize(M.Size);
    Rows = M.Rows;
  }
  /// Empties the column, keeping its capacity.
  void reset() {
    Started = Irregular = false;
    ElemShape.clear();
    Data.clear();
    Rows = 0;
  }

  /// What assembling an irregular column reports.
  const char *irregularMessage() const {
    return ElemScalar ? "irregular array: element kind mismatch"
                      : "irregular array: all rows must have the same shape";
  }
};

PrimValue intOfKind(ScalarKind K, int64_t V) {
  return K == ScalarKind::I64 ? PrimValue::makeI64(V)
                              : PrimValue::makeI32(static_cast<int32_t>(V));
}

void advance(std::vector<int64_t> &Idx, const std::vector<int64_t> &Grid) {
  for (int I = static_cast<int>(Grid.size()) - 1; I >= 0; --I) {
    if (++Idx[I] < Grid[I])
      break;
    Idx[I] = 0;
  }
}

/// The grid index of the \p Flat-th point of \p Grid in row-major order.
std::vector<int64_t> gridIndex(int64_t Flat, const std::vector<int64_t> &Grid) {
  std::vector<int64_t> Idx(Grid.size(), 0);
  for (int I = static_cast<int>(Grid.size()) - 1; I >= 0 && Flat > 0; --I) {
    Idx[I] = Flat % Grid[I];
    Flat /= Grid[I];
  }
  return Idx;
}

#define KS_CHECK(EXPR)                                                         \
  do {                                                                         \
    if (!(EXPR))                                                               \
      return false;                                                            \
  } while (false)

//===----------------------------------------------------------------------===//
// The launch
//===----------------------------------------------------------------------===//

/// What a launch resolves once, on the launching thread, before any of its
/// threads runs: the kernel inputs, the slot layout and resolved bodies,
/// the launch's shape and the host values its kernel kind needs.  Warp
/// ranges only ever read it.
struct ResolvedForm {
  std::vector<Value> InputVals;
  std::vector<uint64_t> InputBase;
  std::vector<bool> InputTiled;
  std::vector<std::vector<int>> InputPerm;

  /// A warp-level slot an Index binds to a view of a kernel input (a lane
  /// view) keeps the view's Len indices, one scalar row each from its
  /// Lane, and names the input; Input is -1 for every other slot.
  struct LaneView {
    int Input = -1;
    int Len = 0;
  };
  /// What resolve knows of a slot: its name (null for a constant), the
  /// scope that binds it (-1: inputs, host values, constants), and its
  /// place in a range's lane store.  A warp-level slot (one bound by a
  /// statement a warp step runs, or a thread or segment index) holds one
  /// value per lane, Lane >= 0 indexing the scalars and <= -2 the other
  /// values (index -2 - Lane); -1 is every other slot.
  struct SlotInfo {
    const VName *Name = nullptr;
    int Scope = -1;
    int Lane = -1;
    LaneView View = {};
  };
  std::vector<SlotInfo> Slots;
  int LaneScalars = 0, LaneValues = 0;
  /// The distinct warp-level slots among the thread body's results.
  std::vector<int> ResultLanes;
  RBody ThreadBody;
  RLambda ReduceOp;
  std::vector<int> ThreadIdxSlots;
  int SegIdxSlot = -1;
  int ReduceFnOps = 0;

  /// The launch grid, with a sharded launch's outer dimension cut to its
  /// window, and the number of grid points (threads, or segments).
  std::vector<int64_t> Grid;
  int64_t GridSize = 1;
  /// The launch's lanes, which ranges are cut in: its threads, its
  /// segments when it has a grid (one thread per segment), or the
  /// elements of a gridless segmented fold.  A warp is WarpSize
  /// consecutive lanes.
  int64_t Units = 0;
  bool Gridless = false;
  /// The first grid row and the first thread of a sharded launch's
  /// window.  Thread indices and output-write addresses stay those of the
  /// uncut grid of GlobalThreads threads, so coalescing behaves as on the
  /// real shard.
  int64_t OuterOffset = 0;
  int64_t ThreadOffset = 0;
  int64_t GlobalThreads = 0;
  /// Segmented kernels: the segment length and the neutral elements.
  int64_t SegSize = 0;
  std::vector<TVal> Neutral;
  /// SegHist kernels: the destination, its width and the neutral element.
  const Value *HistDest = nullptr;
  int64_t HistWidth = 0;
  PrimValue HistNeutral;
};

/// Builds a launch's ResolvedForm and the frame its first range runs in.
/// The only part of a launch that reads the host environment.
class Resolver {
  const KernelExp &K;
  const EnvView &HostEnv;
  ResolvedForm &Form;
  std::vector<TVal> &F;

  NameMap<int> Scope;
  std::vector<std::pair<const VName *, int>> Undo;
  NameMap<int> FreeSlots;
  bool OperatorMode = false;
  int NextScope = 0;
  /// Whether the statements being resolved run at warp level: in the
  /// thread body, outside any statement a warp step runs lane by lane.
  bool WarpLevel = false;
  /// The warp-level slots the warp-level statement being resolved reads,
  /// collected while Collecting.  Only a lane-by-lane statement keeps
  /// them, and only a Read may become one; neither has nested warp-level
  /// statements, so one collection is open at a time.
  std::vector<int> Reads;
  bool Collecting = false;

public:
  Resolver(const KernelExp &K, const EnvView &HostEnv, ResolvedForm &Form,
           std::vector<TVal> &F)
      : K(K), HostEnv(HostEnv), Form(Form), F(F) {}

  MaybeError run(int64_t OuterOffset, int64_t OuterCount);

private:
  MaybeError resolveInputs();
  int newSlot(const VName *Name, int ScopeId);
  int bind(const VName &N, int ScopeId, int ScalarRows = 0);
  void restore(size_t Mark);
  int lookup(const VName &N);
  int operand(const SubExp &S);
  RBody resolveBody(const Body &B, int ScopeId);
  RBody resolveScoped(const Body &B);
  RStm resolveStm(const Stm &S, int ScopeId);
  RStm::StepKind stepKind(const Stm &S) const;
  RStm::StepKind indexStep(const RStm &R, bool ScalarOut,
                           ResolvedForm::LaneView &Out) const;
  RLambda resolveLambda(const std::vector<Param> &Params, const Body &B,
                        const VName *IndexVar = nullptr);
  RLambda resolveOperator(const Lambda &L);
  void resolve();

  MaybeError resolveInt(const SubExp &S, int64_t &Out);
  MaybeError resolveShape(int64_t OuterOffset, int64_t OuterCount);
  MaybeError resolveNeutral();
  MaybeError resolveHist();
};

/// A kernel input as element reads see it.  One pass over an index checks
/// its bounds and computes both the element's offset and its storage
/// address under the input's layout permutation.
struct InputReader {
  /// The input's elements and shape; Rank is -1 for a scalar, which has
  /// no element to read.
  const PrimValue *Data = nullptr;
  const int64_t *Shape = nullptr;
  int Rank = -1;
  const std::vector<int> &Perm;
  uint64_t Base, Bytes;
  bool Tiled;

  InputReader(const ResolvedForm &Form, int InputIdx)
      : Perm(Form.InputPerm[InputIdx]), Base(Form.InputBase[InputIdx]),
        Bytes(static_cast<uint64_t>(
            elemBytes(Form.InputVals[InputIdx].elemKind()))),
        Tiled(Form.InputTiled[InputIdx]) {
    const Value &In = Form.InputVals[InputIdx];
    if (In.isScalar())
      return;
    Data = In.flat().data();
    Shape = In.shape().data();
    Rank = In.rank();
  }

  /// The element at the full index Idx[0, N) and its address; false
  /// unless the index is full and in bounds.
  bool read(const int64_t *Idx, size_t N, PrimValue &Out,
            uint64_t &Addr) const {
    if (static_cast<size_t>(Rank) != N)
      return false;
    bool Permuted = Perm.size() == N;
    uint64_t Flat = 0, Stored = 0;
    for (size_t D = 0; D < N; ++D) {
      if (Idx[D] < 0 || Idx[D] >= Shape[D])
        return false;
      Flat = Flat * static_cast<uint64_t>(Shape[D]) +
             static_cast<uint64_t>(Idx[D]);
      if (Permuted)
        Stored = Stored * static_cast<uint64_t>(Shape[Perm[D]]) +
                 static_cast<uint64_t>(Idx[Perm[D]]);
    }
    Out = Data[Flat];
    Addr = Base + (Permuted ? Stored : Flat) * Bytes;
    return true;
  }
};

/// Lanes of a warp that a range shares with its neighbour, handed back
/// unmerged: each lane's global access trace and op count.
struct LaneGroup {
  std::vector<std::vector<uint64_t>> Traces;
  std::vector<int64_t> Ops;
  /// The group's last lane ends its warp.
  bool EndsWarp = false;
};

/// The counters a range charges to its CostReport: absorbing a range adds
/// them, and undoing a warp step restores them.
constexpr int64_t CostReport::*kRangeCharges[] = {
    &CostReport::ComputeOps,          &CostReport::GlobalAccesses,
    &CostReport::GlobalTransactions,  &CostReport::CoalescedTransactions,
    &CostReport::ScatteredTransactions, &CostReport::LocalAccesses,
    &CostReport::PrivateAccesses,     &CostReport::TiledElementTouches,
    &CostReport::TiledElementBytes};
constexpr size_t kNumRangeCharges = std::size(kRangeCharges);

/// One operand's lanes in a warp step: a row of the lane store, or a
/// shared scalar that every lane reads (Stride 0).
struct LaneSrc {
  const PrimValue *P = nullptr;
  size_t Stride = 0;
  const PrimValue &operator[](size_t L) const { return P[L * Stride]; }
};

/// One contiguous range of a launch's lanes, with all the state its
/// threads mutate: the frame, the lane traces, the charges and warp
/// profile the range adds, and the rows it contributes to each output.
/// A launch that does not split runs all its lanes in one RangeSim; one
/// that does runs each further range in its own and absorbs them in lane
/// order.
class RangeSim {
  const DeviceParams &P;
  const KernelExp &K;
  const ResolvedForm &Form;
  CostReport &Cost;
  int64_t OutBudgetBytes;
  /// Rows each thread-body output reserves on its first append.
  int64_t ReserveRows;

  std::vector<TVal> F;
  KernelProfile Prof;
  /// Per-lane global access traces and op counts of the current warp (the
  /// first NumLanes are open), the trace of the running lane and the
  /// ComputeOps count at its start (-1: no lane running).  Lanes run
  /// sequentially, so the ops charged between two lane starts belong to
  /// the earlier lane.
  std::vector<std::vector<uint64_t>> Lanes;
  std::vector<int64_t> LaneOps;
  size_t NumLanes = 0;
  std::vector<uint64_t> *Trace = nullptr;
  int64_t LaneStart = -1;
  /// The first lane of the current warp and the lane after its last.
  int64_t WarpStart = 0, WarpEnd = 0;
  std::vector<uint64_t> Segs; ///< mergeWarp's scratch.
  /// The lanes of warps this range shares with its neighbours, in lane
  /// order: at most the head of its first warp and the tail of its last.
  std::vector<LaneGroup> Shared;
  /// A gridless fold's scalar element results, in element order, when
  /// this range only runs bodies.
  std::vector<PrimValue> FoldArgs;
  int64_t OutBytesSoFar = 0;
  /// The range's rows of each output, and a segmented kernel's running
  /// accumulators.
  std::vector<Column> Cols;
  std::vector<TVal> Acc;
  std::vector<size_t> SegStart;

  // Evaluator state.
  bool Charging = true;
  CompilerError Err;
  std::vector<int64_t> IdxBuf, FullBuf, OdoBuf;
  GlobalView RowView;

  // Warp steps (see stepBody).
  /// Whether the launch's warps run as warp steps.
  bool Stepping = false;
  /// The lane store: the lanes of a step (a warp's, or all of a smaller
  /// launch's: Stride) for each warp-level slot, lane-major, the scalars
  /// apart from the other values.  Allocated by the range's first step,
  /// and freed when a detached range has run.
  size_t Stride = 0;
  std::vector<PrimValue> LS;
  std::vector<TVal> LV;
  /// The step's first lane in Lanes and the mask of all its lanes, the
  /// ops each of them ran in warp-wide statements of that mask (other
  /// masks charge LaneOps directly), and all ops warp-wide statements ran.
  size_t StepBase = 0;
  uint64_t StepMask = 0;
  int64_t StepOps = 0;
  int64_t WarpOps = 0;
  /// A segment step's per-lane accumulators and scan rows, a loop step's
  /// staged results, index operands, and the grid index advanced over the
  /// step's lanes.
  std::vector<std::vector<TVal>> LaneAcc;
  std::vector<std::vector<Column>> LaneCols;
  std::vector<PrimValue> Staged;
  std::vector<LaneSrc> IdxSrc;
  std::vector<int64_t> StepIdx;
  /// What undoing a failed step restores.
  struct StepMark {
    int64_t Charged[kNumRangeCharges];
    int64_t OutBytes, WarpOps;
    size_t NumLanes, FoldArgs;
    std::vector<Column::Mark> Cols;
    std::vector<TVal> Acc;
  } Mark;

public:
  /// The launch's first range, which runs in the resolved frame itself.
  RangeSim(const DeviceParams &P, const KernelExp &K,
           const ResolvedForm &Form, CostReport &Cost,
           int64_t OutBudgetBytes, std::vector<TVal> Frame);
  /// A further range of \p Rows lanes.  Its frame shares with \p First's
  /// only the slots no thread writes: input views, host values and
  /// constants.
  RangeSim(const RangeSim &First, CostReport &Cost, int64_t Rows);

  /// Starts and ends the launch's lanes: a gridless fold's accumulators
  /// and its result writes (nothing for other launches).
  void beginLaunch();
  bool endLaunch();
  /// Runs lanes [Begin, End) after the lanes this range already ran or
  /// absorbed, merging each warp it completes.  A gridless fold's
  /// elements run body and operator interleaved.
  bool runLanes(int64_t Begin, int64_t End);
  /// Runs lanes [Begin, End) as a range of its own, from a fresh frame:
  /// a gridless fold's elements run only their bodies, and the lanes of
  /// warps shared with a neighbour are handed back unmerged.
  bool runDetached(int64_t Begin, int64_t End);
  /// Appends \p O's charges, profile, shared lanes and output rows to
  /// this range's, as if this range had run O's lanes next.  False, with
  /// nothing changed, when O's results cannot follow: they would overrun
  /// the memory budget or make an output irregular.
  bool absorb(RangeSim &O);
  /// Applies a gridless fold's operator to the element results \p O
  /// buffered, in element order.
  bool fold(RangeSim &O);
  /// Assembles the launch's outputs from the rows of all its threads.
  bool finish(std::vector<Value> &Out);
  bool runSegHist(std::vector<Value> &Out);

  const CompilerError &error() const { return Err; }
  int64_t outBytes() const { return OutBytesSoFar; }
  int64_t warpOps() const { return WarpOps; }
  int64_t computeOps() const { return Cost.ComputeOps; }
  int64_t globalAccesses() const { return Cost.GlobalAccesses; }
  const KernelProfile &profile() const { return Prof; }

private:
  // Evaluation returns false after storing the error in Err, so the
  // per-statement path carries no ErrorOr.
  bool fail(CompilerError E) {
    Err = std::move(E);
    return false;
  }
  bool fail(std::string Msg) { return fail(CompilerError(std::move(Msg))); }
  bool fail(SrcLoc Loc, std::string Msg) {
    return fail(CompilerError(Loc, std::move(Msg)));
  }
  bool unbound(int Slot) {
    return fail("unbound variable " + Form.Slots[Slot].Name->str() +
                " in kernel");
  }
  bool notScalar(int Slot) {
    const TVal &T = F[Slot];
    if (T.is(TVal::Tag::Unbound))
      return unbound(Slot);
    return fail(T.is(TVal::Tag::View) ? "expected a scalar, found a view"
                                      : "expected a scalar");
  }
  bool isScalar(int Slot) const { return F[Slot].is(TVal::Tag::Scalar); }
  bool bound(int Slot) {
    return !F[Slot].is(TVal::Tag::Unbound) || unbound(Slot);
  }

  //===-- Charging --------------------------------------------------------===//

  void chargeWrite(uint64_t Addr);
  bool chargeOutput(int64_t Elems, ScalarKind Kind);
  void chargePrivate(int64_t N, int64_t ArrElems);
  void openLane();
  void closeLane();
  void startAt(int64_t Lane);
  /// Ends lane \p Lane, and with it the warp when it is the warp's last.
  void endLane(int64_t Lane) {
    if (Lane + 1 == WarpEnd)
      endWarp();
  }
  void endWarp();
  void shareLanes(bool EndsWarp);
  void mergeWarp();

  //===-- Evaluation ------------------------------------------------------===//

  void chargeRead(const InputReader &R, uint64_t Addr,
                  std::vector<uint64_t> *T);
  bool readFull(int InputIdx, PrimValue &Out, SrcLoc Loc = SrcLoc());
  bool materialise(const GlobalView &G, TVal &Dst);
  bool force(int Slot, TVal &Dst, bool Move = false);
  const TVal *forced(int Slot, TVal &Tmp);
  bool rowOf(int Slot, int64_t I, TVal &Dst);
  bool outerSizeOf(int Slot, int64_t &N);
  bool takeColumn(Column &C, std::vector<int64_t> Outer, TVal &Dst);
  bool bindDims(const RLambda &L);
  bool call(const RLambda &L);
  bool callOperator(const RLambda &Op);
  bool exec(const RBody &B);
  bool execStm(const RStm &S);
  bool execIndex(const RStm &S);
  bool execSlice(const RStm &S);
  bool execUpdate(const RStm &S);
  bool execReshaping(const RStm &S);
  bool execLoop(const RStm &S);
  bool execMap(const RStm &S);
  bool execReduceScan(const RStm &S);
  bool execStream(const RStm &S);

  //===-- Warp steps ------------------------------------------------------===//

  template <class StepFn, class LaneFn>
  bool eachWarp(int64_t Begin, int64_t End, std::vector<int64_t> &Idx,
                StepFn Step, LaneFn Lane);
  void markStep();
  void undoStep();
  uint64_t openStep(int64_t N);
  void setLaneIndices(int64_t N);
  PrimValue *lanes(int Slot) {
    return &LS[static_cast<size_t>(Form.Slots[Slot].Lane) * Stride];
  }
  bool src(int Slot, LaneSrc &Out);
  bool copyLanes(int From, int To, uint64_t Mask);
  void loadLane(int Slot, size_t L);
  bool storeLane(int Slot, size_t L);
  bool stepBody(const RBody &B, uint64_t Mask);
  bool stepWarp(const RStm &S, uint64_t Mask);
  bool stepScalar(const RStm &S, uint64_t Mask);
  bool indexLanes(const RStm &S, int &Input);
  bool stepRead(const RStm &S, uint64_t Mask);
  bool stepView(const RStm &S, uint64_t Mask);
  bool stepIf(const RStm &S, uint64_t Mask);
  bool stepLoop(const RStm &S, uint64_t Mask);
  bool stepLanes(const RStm &S, uint64_t Mask);
  bool stepThreads(int64_t A, int64_t B);
  bool stepSegments(int64_t A, int64_t B);
  bool stepElements(int64_t A, int64_t B, bool Fold);
  bool stepElement(size_t L);
  bool laneOperator(size_t L);
  bool commitSegment(size_t L);

  //===-- Per-kernel-kind driving ------------------------------------------===//

  void setThreadIndices(const std::vector<int64_t> &Idx);
  bool runThreads(int64_t Begin, int64_t End);
  bool commitThread(int64_t T);
  bool runSegments(int64_t Begin, int64_t End);
  void beginSegment();
  bool endSegment();
  bool runElement(const std::vector<int64_t> &Idx, int64_t S);
  bool takeElement();
  bool applyOperator();
  bool bufferElement();
  bool foldElements(int64_t Begin, int64_t End);
  bool runElementBodies(int64_t Begin, int64_t End);
};

//===----------------------------------------------------------------------===//
// Resolve
//===----------------------------------------------------------------------===//

MaybeError Resolver::resolveInputs() {
  uint64_t Base = 1ULL << 40;
  for (const KernelExp::KInput &In : K.Inputs) {
    const Value *V = HostEnv.find(In.Arr);
    if (!V)
      return CompilerError("kernel input " + In.Arr.str() +
                           " is not bound on the host");
    Form.InputVals.push_back(*V);
    Form.InputBase.push_back(Base);
    Base += static_cast<uint64_t>(V->numElems() + 64) *
            elemBytes(V->elemKind());
    Form.InputTiled.push_back(In.Tiled);
    Form.InputPerm.push_back(In.LayoutPerm);
  }
  return MaybeError::success();
}

int Resolver::newSlot(const VName *Name, int ScopeId) {
  F.emplace_back();
  Form.Slots.push_back({Name, ScopeId});
  return static_cast<int>(F.size()) - 1;
}

/// At warp level the name's lanes take \p ScalarRows rows of scalars (1
/// for a scalar, the indices of a lane view), or a TVal each when 0.
int Resolver::bind(const VName &N, int ScopeId, int ScalarRows) {
  int Slot = newSlot(&N, ScopeId);
  if (WarpLevel && ScalarRows > 0) {
    Form.Slots[Slot].Lane = Form.LaneScalars;
    Form.LaneScalars += ScalarRows;
  } else if (WarpLevel) {
    Form.Slots[Slot].Lane = -2 - Form.LaneValues++;
  }
  auto It = Scope.find(N);
  Undo.push_back({&N, It == Scope.end() ? -1 : It->second});
  Scope[N] = Slot;
  return Slot;
}

void Resolver::restore(size_t Mark) {
  while (Undo.size() > Mark) {
    auto [Name, Prev] = Undo.back();
    Undo.pop_back();
    if (Prev < 0)
      Scope.erase(*Name);
    else
      Scope[*Name] = Prev;
  }
}

/// Lexical bindings first, then (outside operators) kernel inputs and host
/// values; anything else is a slot that fails when read, as the lookup
/// would have.
int Resolver::lookup(const VName &N) {
  auto It = Scope.find(N);
  if (It != Scope.end()) {
    if (Collecting && Form.Slots[It->second].Lane != -1)
      Reads.push_back(It->second);
    return It->second;
  }
  if (OperatorMode)
    return newSlot(&N, -1);
  auto Free = FreeSlots.find(N);
  if (Free != FreeSlots.end())
    return Free->second;
  int Slot = newSlot(&N, -1);
  if (const Value *H = HostEnv.find(N)) {
    if (H->isScalar())
      F[Slot].setScalar(H->getScalar());
    else
      F[Slot].setArray(*H);
  }
  FreeSlots[N] = Slot;
  return Slot;
}

int Resolver::operand(const SubExp &S) {
  if (S.isVar())
    return lookup(S.getVar());
  int Slot = newSlot(nullptr, -1);
  F[Slot].setScalar(S.getConst());
  return Slot;
}

RBody Resolver::resolveBody(const Body &B, int ScopeId) {
  RBody R;
  R.Stms.reserve(B.Stms.size());
  for (const Stm &S : B.Stms)
    R.Stms.push_back(resolveStm(S, ScopeId));
  for (const SubExp &S : B.Result)
    R.Result.push_back(operand(S));
  for (size_t I = 0; I < R.Result.size(); ++I) {
    int Slot = R.Result[I];
    R.Movable.push_back(Form.Slots[Slot].Scope == ScopeId &&
                        std::find(R.Result.begin() + I + 1, R.Result.end(),
                                  Slot) == R.Result.end());
  }
  return R;
}

RBody Resolver::resolveScoped(const Body &B) {
  size_t Mark = Undo.size();
  RBody R = resolveBody(B, NextScope++);
  restore(Mark);
  return R;
}

RLambda Resolver::resolveLambda(const std::vector<Param> &Params,
                                 const Body &B, const VName *IndexVar) {
  size_t Mark = Undo.size();
  int ScopeId = NextScope++;
  RLambda R;
  if (IndexVar)
    R.Params.push_back(bind(*IndexVar, ScopeId, 1));
  for (const Param &Pm : Params)
    R.Params.push_back(bind(Pm.Name, ScopeId, Pm.Ty.isScalar()));
  if (OperatorMode) {
    int First = IndexVar ? 1 : 0;
    for (size_t I = 0; I < Params.size(); ++I) {
      const Type &Ty = Params[I].Ty;
      for (int D = 0; D < Ty.rank(); ++D) {
        const Dim &Dm = Ty.shape()[D];
        if (Dm.isVar() && !Scope.count(Dm.getVar()))
          R.Dims.push_back({static_cast<int>(I) + First, D,
                            bind(Dm.getVar(), ScopeId)});
      }
    }
  }
  R.Body = resolveBody(B, ScopeId);
  restore(Mark);
  return R;
}

/// A reduction operator is applied like a closed lambda: nothing outside
/// it is visible.
RLambda Resolver::resolveOperator(const Lambda &L) {
  NameMap<int> Outer;
  std::swap(Outer, Scope);
  bool WasOperator = OperatorMode, WasWarp = WarpLevel;
  OperatorMode = true;
  WarpLevel = false;
  RLambda R = resolveLambda(L.Params, L.B);
  OperatorMode = WasOperator;
  WarpLevel = WasWarp;
  std::swap(Outer, Scope);
  return R;
}

/// How a warp step may run \p S, from its kind and types alone: scalar
/// results for the warp-wide kinds, and scalar results and loop
/// parameters for a branch or loop whose bodies run under a lane mask.
/// An operand that turns out not to be a scalar fails the step.
RStm::StepKind Resolver::stepKind(const Stm &S) const {
  using SK = RStm::StepKind;
  auto Scalars = [](const std::vector<Param> &Ps) {
    return std::all_of(Ps.begin(), Ps.end(),
                       [](const Param &Pm) { return Pm.Ty.isScalar(); });
  };
  // An Index is settled by indexStep once its array is resolved.
  if (S.E->kind() == ExpKind::Index)
    return S.Pat.size() == 1 ? SK::Read : SK::Lane;
  if (!Scalars(S.Pat))
    return SK::Lane;
  switch (S.E->kind()) {
  case ExpKind::SubExpE:
  case ExpKind::BinOpE:
  case ExpKind::UnOpE:
  case ExpKind::ConvOpE:
    return S.Pat.size() == 1 ? SK::Scalar : SK::Lane;
  case ExpKind::If:
    return SK::If;
  case ExpKind::Loop:
    return Scalars(expCast<LoopExp>(S.E.get())->MergeParams) ? SK::Loop
                                                              : SK::Lane;
  default:
    return SK::Lane;
  }
}

/// An Index of a kernel input's own view or of a lane view of it is a
/// Read when it indexes every dimension into a scalar, and a View, whose
/// lane view \p Out describes, when it leaves dimensions; any other
/// Index runs lane by lane.
RStm::StepKind Resolver::indexStep(const RStm &R, bool ScalarOut,
                                   ResolvedForm::LaneView &Out) const {
  int Base = R.Ops[0];
  const TVal &T = F[Base];
  Out = Form.Slots[Base].View;
  if (Out.Input < 0) {
    if (Form.Slots[Base].Scope >= 0 || !T.is(TVal::Tag::View) ||
        !T.V.Prefix.empty() || T.V.Sliced)
      return RStm::StepKind::Lane;
    Out.Input = T.V.InputIdx;
  }
  const Value &In = Form.InputVals[Out.Input];
  Out.Len += static_cast<int>(R.Ops.size()) - 1;
  if (!In.isArray() || Out.Len > In.rank() || Out.Len == 0 ||
      ScalarOut != (Out.Len == In.rank()))
    return RStm::StepKind::Lane;
  return ScalarOut ? RStm::StepKind::Read : RStm::StepKind::View;
}

RStm Resolver::resolveStm(const Stm &S, int ScopeId) {
  using SK = RStm::StepKind;
  RStm R;
  const Exp &E = *S.E;
  R.E = &E;
  // At warp level, a statement that runs lane by lane (or may) collects
  // the warp-level slots it reads, and its nested bodies are not at warp
  // level.
  bool Warp = WarpLevel;
  if (Warp) {
    R.Step = stepKind(S);
    Collecting = R.Step == SK::Lane || R.Step == SK::Read;
    Reads.clear();
    WarpLevel = R.Step == SK::If || R.Step == SK::Loop;
  }
  auto Ops = [&](const std::vector<SubExp> &Xs) {
    for (const SubExp &X : Xs)
      R.Ops.push_back(operand(X));
  };
  auto Arrays = [&](const std::vector<VName> &Xs) {
    for (const VName &X : Xs)
      R.Ops.push_back(lookup(X));
  };
  size_t Yields = 1;
  switch (E.kind()) {
  case ExpKind::SubExpE:
    R.Ops.push_back(operand(expCast<SubExpExp>(&E)->Val));
    break;
  case ExpKind::BinOpE: {
    const auto *X = expCast<BinOpExp>(&E);
    R.Ops = {operand(X->A), operand(X->B)};
    break;
  }
  case ExpKind::UnOpE:
    R.Ops.push_back(operand(expCast<UnOpExp>(&E)->A));
    break;
  case ExpKind::ConvOpE:
    R.Ops.push_back(operand(expCast<ConvOpExp>(&E)->A));
    break;
  case ExpKind::If: {
    const auto *X = expCast<IfExp>(&E);
    R.Ops.push_back(operand(X->Cond));
    R.Bodies.push_back(resolveScoped(X->Then));
    R.Bodies.push_back(resolveScoped(X->Else));
    Yields = X->Then.Result.size();
    if (X->Else.Result.size() != Yields)
      R.BadArity = true;
    break;
  }
  case ExpKind::Index: {
    const auto *X = expCast<IndexExp>(&E);
    R.Ops.push_back(lookup(X->Arr));
    Ops(X->Indices);
    break;
  }
  case ExpKind::Slice: {
    const auto *X = expCast<SliceExp>(&E);
    R.Ops = {lookup(X->Arr), operand(X->Offset), operand(X->Len),
             operand(X->Stride)};
    break;
  }
  case ExpKind::Update: {
    const auto *X = expCast<UpdateExp>(&E);
    R.Ops.push_back(lookup(X->Arr));
    Ops(X->Indices);
    R.Ops.push_back(operand(X->Value));
    R.Consume = Form.Slots[R.Ops[0]].Scope == ScopeId;
    break;
  }
  case ExpKind::Iota:
    R.Ops.push_back(operand(expCast<IotaExp>(&E)->N));
    break;
  case ExpKind::Replicate: {
    const auto *X = expCast<ReplicateExp>(&E);
    R.Ops = {operand(X->N), operand(X->Val)};
    break;
  }
  case ExpKind::Rearrange:
    R.Ops.push_back(lookup(expCast<RearrangeExp>(&E)->Arr));
    break;
  case ExpKind::Reshape: {
    const auto *X = expCast<ReshapeExp>(&E);
    R.Ops.push_back(lookup(X->Arr));
    Ops(X->NewShape);
    break;
  }
  case ExpKind::Concat:
    Arrays(expCast<ConcatExp>(&E)->Arrays);
    break;
  case ExpKind::Copy:
    R.Ops.push_back(lookup(expCast<CopyExp>(&E)->Arr));
    break;
  case ExpKind::Loop: {
    const auto *X = expCast<LoopExp>(&E);
    R.Ops.push_back(operand(X->Bound));
    Ops(X->MergeInit);
    R.Fns.push_back(resolveLambda(X->MergeParams, X->LoopBody, &X->IndexVar));
    const RLambda &L = R.Fns[0];
    Yields = X->MergeInit.size();
    if (X->MergeParams.size() != Yields || L.Body.Result.size() != Yields)
      R.BadArity = true;
    for (size_t J = 0; J < L.Body.Result.size(); ++J)
      for (size_t Q = 1; Q < L.Params.size(); ++Q)
        if (L.Body.Result[J] == L.Params[Q] && Q != J + 1)
          R.ResultsAlias = true;
    break;
  }
  case ExpKind::Map: {
    const auto *X = expCast<MapExp>(&E);
    R.Ops.push_back(operand(X->Width));
    Arrays(X->Arrays);
    R.Fns.push_back(resolveLambda(X->Fn.Params, X->Fn.B));
    Yields = X->Fn.RetTypes.size();
    break;
  }
  case ExpKind::Reduce:
  case ExpKind::Scan: {
    bool IsScan = E.kind() == ExpKind::Scan;
    const auto *Rd = IsScan ? nullptr : expCast<ReduceExp>(&E);
    const auto *Sc = IsScan ? expCast<ScanExp>(&E) : nullptr;
    const Lambda &Fn = IsScan ? Sc->Fn : Rd->Fn;
    const std::vector<SubExp> &Neutral = IsScan ? Sc->Neutral : Rd->Neutral;
    R.Ops.push_back(operand(IsScan ? Sc->Width : Rd->Width));
    Ops(Neutral);
    Arrays(IsScan ? Sc->Arrays : Rd->Arrays);
    R.Fns.push_back(resolveLambda(Fn.Params, Fn.B));
    Yields = Neutral.size();
    break;
  }
  case ExpKind::Stream: {
    const auto *X = expCast<StreamExp>(&E);
    R.Ops.push_back(operand(X->Width));
    Ops(X->AccInit);
    Arrays(X->Arrays);
    R.Fns.push_back(resolveLambda(X->FoldFn.Params, X->FoldFn.B));
    if (X->Form == StreamExp::FormKind::Red)
      R.Fns.push_back(resolveOperator(X->ReduceFn));
    Yields = X->AccInit.size() + X->FoldFn.RetTypes.size() - X->NumAccs;
    break;
  }
  default:
    break; // not executable inside a kernel; fails when reached
  }
  if (Yields != S.Pat.size())
    R.BadArity = true;
  ResolvedForm::LaneView View;
  if (R.Step == SK::Read)
    R.Step = indexStep(R, S.Pat[0].Ty.isScalar(), View);
  if (Warp) {
    WarpLevel = true;
    Collecting = false;
  }
  if (Warp && R.Step == SK::Lane) {
    std::sort(Reads.begin(), Reads.end());
    R.LaneIns.assign(Reads.begin(), std::unique(Reads.begin(), Reads.end()));
  }
  for (const Param &Pm : S.Pat)
    R.Out.push_back(bind(Pm.Name, ScopeId,
                         R.Step == SK::View ? View.Len : Pm.Ty.isScalar()));
  if (R.Step == SK::View)
    Form.Slots[R.Out[0]].View = View;
  return R;
}

void Resolver::resolve() {
  for (size_t I = 0; I < K.Inputs.size(); ++I) {
    int Slot = newSlot(&K.Inputs[I].Arr, -1);
    F[Slot].T = TVal::Tag::View;
    F[Slot].V.InputIdx = static_cast<int>(I);
    FreeSlots[K.Inputs[I].Arr] = Slot;
  }
  if (K.usesReduceFn())
    Form.ReduceOp = resolveOperator(K.ReduceFn);
  int Root = NextScope++;
  WarpLevel = true;
  for (const VName &N : K.ThreadIndices)
    Form.ThreadIdxSlots.push_back(bind(N, Root, 1));
  if (K.isSegmented())
    Form.SegIdxSlot = bind(K.SegIndex, Root, 1);
  Form.ThreadBody = resolveBody(K.ThreadBody, Root);
  WarpLevel = false;
  for (int Slot : Form.ThreadBody.Result)
    if (Form.Slots[Slot].Lane != -1 &&
        std::find(Form.ResultLanes.begin(), Form.ResultLanes.end(), Slot) ==
            Form.ResultLanes.end())
      Form.ResultLanes.push_back(Slot);
}

MaybeError Resolver::resolveInt(const SubExp &S, int64_t &Out) {
  if (S.isConst()) {
    Out = S.getConst().asInt64();
    return MaybeError::success();
  }
  const Value *V = HostEnv.find(S.getVar());
  if (!V)
    return CompilerError("kernel size " + S.getVar().str() +
                         " is not bound on the host");
  Out = V->getScalar().asInt64();
  return MaybeError::success();
}

/// The launch grid, cut to a sharded launch's window.
MaybeError Resolver::resolveShape(int64_t OuterOffset, int64_t OuterCount) {
  for (const SubExp &D : K.GridDims) {
    int64_t G;
    if (auto E = resolveInt(D, G))
      return E;
    Form.Grid.push_back(G);
  }
  int64_t InnerElems = 1;
  for (size_t I = 1; I < Form.Grid.size(); ++I)
    InnerElems *= Form.Grid[I];
  Form.GlobalThreads = (Form.Grid.empty() ? 1 : Form.Grid[0]) * InnerElems;
  if (OuterCount >= 0 && !Form.Grid.empty())
    Form.Grid[0] = OuterCount;
  for (int64_t G : Form.Grid)
    Form.GridSize *= G;
  Form.OuterOffset = OuterOffset;
  Form.ThreadOffset = OuterOffset * InnerElems;
  return MaybeError::success();
}

/// A segmented kernel's neutral elements come from the host environment.
MaybeError Resolver::resolveNeutral() {
  for (const SubExp &N : K.Neutral) {
    TVal &T = Form.Neutral.emplace_back();
    if (N.isConst()) {
      T.setScalar(N.getConst());
      continue;
    }
    const Value *V = HostEnv.find(N.getVar());
    if (!V)
      return CompilerError("kernel neutral element is unbound");
    if (V->isScalar())
      T.setScalar(V->getScalar());
    else
      T.setArray(*V);
  }
  return MaybeError::success();
}

MaybeError Resolver::resolveHist() {
  if (auto E = resolveInt(K.HistWidth, Form.HistWidth))
    return E;
  Form.HistDest = HostEnv.find(K.HistDest);
  if (!Form.HistDest)
    return CompilerError("histogram destination " + K.HistDest.str() +
                         " is not bound on the host");
  if (!Form.HistDest->isArray() ||
      Form.HistDest->outerSize() != Form.HistWidth)
    return CompilerError("histogram destination has wrong outer size");
  if (K.Neutral.size() != 1)
    return CompilerError("seghist kernel needs exactly one neutral element");
  if (K.Neutral[0].isConst()) {
    Form.HistNeutral = K.Neutral[0].getConst();
    return MaybeError::success();
  }
  const Value *V = HostEnv.find(K.Neutral[0].getVar());
  if (!V)
    return CompilerError("kernel neutral element is unbound");
  Form.HistNeutral = V->getScalar();
  return MaybeError::success();
}

MaybeError Resolver::run(int64_t OuterOffset, int64_t OuterCount) {
  if (auto E = resolveInputs())
    return E;
  Form.ReduceFnOps = static_cast<int>(K.ReduceFn.B.Stms.size()) + 1;
  resolve();
  if (auto E = resolveShape(OuterOffset, OuterCount))
    return E;
  if (K.Op == KernelExp::OpKind::SegHist)
    return resolveHist();
  Form.Units = Form.GridSize;
  if (K.isSegmented()) {
    if (auto E = resolveInt(K.SegSize, Form.SegSize))
      return E;
    Form.Gridless = Form.Grid.empty();
    if (Form.Gridless)
      Form.Units = std::max<int64_t>(0, Form.SegSize);
    return resolveNeutral();
  }
  return MaybeError::success();
}

//===----------------------------------------------------------------------===//
// Charging
//===----------------------------------------------------------------------===//

/// Charges a synthetic global write (kernel outputs).
void RangeSim::chargeWrite(uint64_t Addr) {
  ++Cost.GlobalAccesses;
  if (Trace)
    Trace->push_back(Addr);
}

/// Accounts materialised results against the device-memory budget.
/// Per-thread scalar results are exactly the elements of the assembled
/// output array, so the running total matches the outputs' footprint.
bool RangeSim::chargeOutput(int64_t Elems, ScalarKind Kind) {
  OutBytesSoFar += Elems * elemBytes(Kind);
  if (OutBudgetBytes < 0 || OutBytesSoFar <= OutBudgetBytes)
    return true;
  return fail(CompilerError::deviceOOM(
      "device out of memory materialising kernel results: " +
      std::to_string(OutBytesSoFar) + " bytes needed, " +
      std::to_string(OutBudgetBytes) + " free"));
}

/// Charges \p N accesses to a thread-private array of \p ArrElems
/// elements.  Arrays too large for registers/private memory spill to
/// global memory with poor locality (roughly one transaction per two
/// accesses).
void RangeSim::chargePrivate(int64_t N, int64_t ArrElems) {
  if (!Charging)
    return;
  if (ArrElems > P.PrivateSpillElems) {
    Cost.GlobalAccesses += N;
    // Spilled traffic is address-scattered by construction.
    Cost.GlobalTransactions += (N + 1) / 2;
    Cost.ScatteredTransactions += (N + 1) / 2;
    return;
  }
  Cost.PrivateAccesses += N;
}

/// Opens a new lane of the current warp, with its own address trace.
void RangeSim::openLane() {
  closeLane();
  if (NumLanes == Lanes.size()) {
    Lanes.emplace_back();
    LaneOps.push_back(0);
  }
  Trace = &Lanes[NumLanes++];
  Trace->clear();
  LaneStart = Cost.ComputeOps;
}

/// Records the running lane's op count.
void RangeSim::closeLane() {
  if (LaneStart < 0)
    return;
  LaneOps[NumLanes - 1] = Cost.ComputeOps - LaneStart;
  LaneStart = -1;
}

/// Notes the warp that lane \p Lane, the next to run, belongs to.
void RangeSim::startAt(int64_t Lane) {
  WarpStart = Lane / P.WarpSize * P.WarpSize;
  WarpEnd = std::min(Form.Units, WarpStart + P.WarpSize);
}

/// Ends the current warp: it is merged if this range holds all of its
/// lanes, and otherwise handed back.
void RangeSim::endWarp() {
  if (NumLanes == static_cast<size_t>(WarpEnd - WarpStart))
    mergeWarp();
  else
    shareLanes(/*EndsWarp=*/true);
  startAt(WarpEnd);
}

/// Hands the open lanes back unmerged, for the range that holds the
/// rest of their warp.
void RangeSim::shareLanes(bool EndsWarp) {
  closeLane();
  Trace = nullptr;
  if (NumLanes == 0)
    return;
  LaneGroup &G = Shared.emplace_back();
  G.EndsWarp = EndsWarp;
  for (size_t L = 0; L < NumLanes; ++L) {
    G.Traces.push_back(std::move(Lanes[L]));
    G.Ops.push_back(LaneOps[L]);
  }
  NumLanes = 0;
}

/// The number of distinct segments in \p Segs: one linear pass when they
/// are nondecreasing (the coalesced case), a sort otherwise.
int64_t distinctSegments(std::vector<uint64_t> &Segs) {
  int64_t N = Segs.empty() ? 0 : 1;
  for (size_t I = 1; I < Segs.size(); ++I) {
    if (Segs[I] < Segs[I - 1]) {
      std::sort(Segs.begin(), Segs.end());
      return std::unique(Segs.begin(), Segs.end()) - Segs.begin();
    }
    N += Segs[I] != Segs[I - 1];
  }
  return N;
}

/// Merges the per-lane traces of one warp into transactions and closes
/// the warp's profile entry (issue slots after divergence serialisation,
/// coalescer-queue overflow).
void RangeSim::mergeWarp() {
  closeLane();
  Trace = nullptr;
  size_t MaxLen = 0;
  for (size_t L = 0; L < NumLanes; ++L)
    MaxLen = std::max(MaxLen, Lanes[L].size());
  // Segment sizes are powers of two in every preset; a shift then stands
  // in for the division.
  uint64_t SegBytes = static_cast<uint64_t>(P.SegmentBytes);
  int Shift = std::has_single_bit(SegBytes) ? std::countr_zero(SegBytes) : -1;
  for (size_t I = 0; I < MaxLen; ++I) {
    Segs.clear();
    for (size_t L = 0; L < NumLanes; ++L)
      if (I < Lanes[L].size())
        Segs.push_back(Shift >= 0 ? Lanes[L][I] >> Shift
                                  : Lanes[L][I] / SegBytes);
    int64_t Active = static_cast<int64_t>(Segs.size());
    int64_t Tx = distinctSegments(Segs);
    Cost.GlobalTransactions += Tx;
    // A time-step whose accesses merged into fewer segments than active
    // lanes coalesced; one segment per lane means no merging happened.
    if (Tx < Active)
      Cost.CoalescedTransactions += Tx;
    else
      Cost.ScatteredTransactions += Tx;
    ++Prof.MemSteps;
    Prof.CoalescerExcessTx +=
        std::max<int64_t>(0, Tx - P.CoalescerQueueDepth);
  }
  if (NumLanes == 0)
    return;
  ++Prof.Warps;
  int64_t MinOps = INT64_MAX, MaxOps = 0, SumOps = 0;
  for (size_t L = 0; L < NumLanes; ++L) {
    MinOps = std::min(MinOps, LaneOps[L]);
    MaxOps = std::max(MaxOps, LaneOps[L]);
    SumOps += LaneOps[L];
  }
  Prof.LaneOps += SumOps;
  // The converged prefix issues once warp-wide; the divergent remainder
  // serialises per lane.  Uniform warps issue exactly MaxOps slots.
  int64_t LaneCount = static_cast<int64_t>(NumLanes);
  Prof.WarpIssueOps += SumOps - (LaneCount - 1) * MinOps;
  if (MaxOps != MinOps)
    ++Prof.DivergentWarps;
  NumLanes = 0;
}

//===----------------------------------------------------------------------===//
// Global memory and private values
//===----------------------------------------------------------------------===//

/// Charges a read of \p R at \p Addr: a local access to a tiled input, and
/// otherwise a global one that lane trace \p T records.
void RangeSim::chargeRead(const InputReader &R, uint64_t Addr,
                          std::vector<uint64_t> *T) {
  if (R.Tiled) {
    ++Cost.LocalAccesses;
    ++Cost.TiledElementTouches;
    Cost.TiledElementBytes += static_cast<int64_t>(R.Bytes);
    return;
  }
  ++Cost.GlobalAccesses;
  if (T)
    T->push_back(Addr);
}

/// Reads the element of input \p InputIdx at the full index in FullBuf,
/// charging the access.
bool RangeSim::readFull(int InputIdx, PrimValue &Out, SrcLoc Loc) {
  InputReader R(Form, InputIdx);
  uint64_t Addr;
  if (!R.read(FullBuf.data(), FullBuf.size(), Out, Addr))
    return fail(Loc, "global read out of bounds");
  chargeRead(R, Addr, Trace);
  return true;
}

/// Materialises a view into private memory, charging every read.
bool RangeSim::materialise(const GlobalView &G, TVal &Dst) {
  const Value &In = Form.InputVals[G.InputIdx];
  size_t Pre = G.Prefix.size();
  if (Pre > static_cast<size_t>(In.rank()))
    return fail("global read out of bounds");
  std::vector<int64_t> Shape(In.shape().begin() + Pre, In.shape().end());
  FullBuf.assign(G.Prefix.begin(), G.Prefix.end());
  if (Shape.empty()) {
    PrimValue X;
    KS_CHECK(readFull(G.InputIdx, X));
    Dst.setScalar(X);
    return true;
  }
  if (G.Sliced)
    Shape[0] = G.SliceLen;
  int64_t N = 1;
  for (int64_t D : Shape)
    N *= D;
  std::vector<PrimValue> Data;
  Data.reserve(std::max<int64_t>(N, 0));
  OdoBuf.assign(Shape.size(), 0);
  FullBuf.resize(Pre + Shape.size());
  for (int64_t E = 0; E < N; ++E) {
    for (size_t D = 0; D < Shape.size(); ++D)
      FullBuf[Pre + D] = D == 0 && G.Sliced
                             ? OdoBuf[0] * G.SliceStride + G.SliceOff
                             : OdoBuf[D];
    PrimValue X;
    KS_CHECK(readFull(G.InputIdx, X));
    Data.push_back(X);
    for (int D = static_cast<int>(Shape.size()) - 1; D >= 0; --D) {
      if (++OdoBuf[D] < Shape[D])
        break;
      OdoBuf[D] = 0;
    }
  }
  Cost.PrivateAccesses += N;
  Dst.setArray(Value::array(In.elemKind(), std::move(Shape), std::move(Data)));
  return true;
}

/// Writes slot \p Slot's value to \p Dst as a private value (views are
/// materialised); \p Move steals an array the caller knows is dead.
bool RangeSim::force(int Slot, TVal &Dst, bool Move) {
  TVal &Src = F[Slot];
  switch (Src.T) {
  case TVal::Tag::Unbound:
    return unbound(Slot);
  case TVal::Tag::View:
    return materialise(Src.V, Dst);
  default:
    Dst.assign(Src, Move);
    return true;
  }
}

/// The operand as a private value: scalars and arrays in place, views
/// materialised into \p Tmp.  Null on error.
const TVal *RangeSim::forced(int Slot, TVal &Tmp) {
  TVal &T = F[Slot];
  if (T.is(TVal::Tag::View))
    return materialise(T.V, Tmp) ? &Tmp : nullptr;
  if (T.is(TVal::Tag::Unbound)) {
    unbound(Slot);
    return nullptr;
  }
  return &T;
}

/// Reads row \p I of a (private or view) array, charging reads.
bool RangeSim::rowOf(int Slot, int64_t I, TVal &Dst) {
  TVal &T = F[Slot];
  if (T.is(TVal::Tag::View)) {
    const GlobalView &G = T.V;
    RowView.InputIdx = G.InputIdx;
    RowView.Prefix = G.Prefix;
    RowView.Prefix.push_back(G.Sliced ? I * G.SliceStride + G.SliceOff : I);
    RowView.Sliced = false;
    RowView.SliceStride = 1;
    return materialise(RowView, Dst);
  }
  if (T.is(TVal::Tag::Unbound))
    return unbound(Slot);
  if (!T.is(TVal::Tag::Array) || T.A.rank() == 0 || I < 0 ||
      I >= T.A.outerSize())
    return fail("row read out of bounds in kernel");
  const Value &A = T.A;
  chargePrivate(A.rowElems(), A.numElems());
  if (A.rank() == 1)
    Dst.setScalar(A.flat()[static_cast<size_t>(I)]);
  else
    Dst.setArray(A.row(I));
  return true;
}

bool RangeSim::outerSizeOf(int Slot, int64_t &N) {
  const TVal &T = F[Slot];
  if (T.is(TVal::Tag::View)) {
    const Value &In = Form.InputVals[T.V.InputIdx];
    size_t Pre = T.V.Prefix.size();
    if (Pre >= static_cast<size_t>(In.rank()))
      return fail("scalar view has no outer size");
    N = T.V.Sliced ? T.V.SliceLen : In.shape()[Pre];
    return true;
  }
  if (T.is(TVal::Tag::Unbound))
    return unbound(Slot);
  if (!T.is(TVal::Tag::Array))
    return fail("scalar has no outer size");
  N = T.A.outerSize();
  return true;
}

/// Moves an assembled column into \p Dst with shape Outer ++ element shape.
bool RangeSim::takeColumn(Column &C, std::vector<int64_t> Outer, TVal &Dst) {
  if (!C.Started)
    return fail(CompilerError::runtime(
        "cannot assemble an empty array without an element type"));
  if (C.Irregular)
    return fail(C.irregularMessage());
  Outer.insert(Outer.end(), C.ElemShape.begin(), C.ElemShape.end());
  Dst.setArray(Value::array(C.Kind, std::move(Outer), std::move(C.Data)));
  return true;
}

//===----------------------------------------------------------------------===//
// Lambdas
//===----------------------------------------------------------------------===//

/// Binds the dimension variables of an operator lambda's array
/// parameters from its arguments' shapes.
bool RangeSim::bindDims(const RLambda &L) {
  for (const DimBind &D : L.Dims) {
    const TVal &A = F[L.Params[D.ParamIdx]];
    if (!A.is(TVal::Tag::Array) || A.A.rank() <= D.Dim)
      return fail("operator argument has the wrong rank for its parameter");
    F[D.Slot].setScalar(
        PrimValue::makeI32(static_cast<int32_t>(A.A.shape()[D.Dim])));
  }
  return true;
}

/// Runs a lambda whose parameter slots the caller has filled; its results
/// are left in L.Body.Result's slots.
bool RangeSim::call(const RLambda &L) {
  if (!L.Dims.empty())
    KS_CHECK(bindDims(L));
  return exec(L.Body);
}

/// Runs a reduction operator with charging switched off: its cost is the
/// fixed per-application charge the caller makes.
bool RangeSim::callOperator(const RLambda &Op) {
  bool Was = Charging;
  Charging = false;
  bool Ok = call(Op);
  Charging = Was;
  return Ok;
}

bool RangeSim::exec(const RBody &B) {
  for (const RStm &S : B.Stms)
    KS_CHECK(execStm(S));
  return true;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

bool RangeSim::execStm(const RStm &S) {
  if (Charging)
    ++Cost.ComputeOps;
  if (S.BadArity)
    return fail("pattern arity mismatch in kernel body");
  const Exp &E = *S.E;
  // Every single-valued kind below has exactly one pattern slot.
  TVal *Out = S.Out.empty() ? nullptr : &F[S.Out[0]];

  switch (E.kind()) {
  case ExpKind::SubExpE:
    KS_CHECK(bound(S.Ops[0]));
    Out->assign(F[S.Ops[0]], false);
    return true;

  case ExpKind::BinOpE: {
    if (!isScalar(S.Ops[0]))
      return notScalar(S.Ops[0]);
    if (!isScalar(S.Ops[1]))
      return notScalar(S.Ops[1]);
    BinOp Op = expCast<BinOpExp>(&E)->Op;
    const PrimValue &A = F[S.Ops[0]].S, &B = F[S.Ops[1]].S;
    PrimValue R;
    BinOpFault Fault = evalBinOpInto(Op, A, B, R);
    if (Fault != BinOpFault::None)
      return fail(binOpError(Fault, Op, A, B));
    Out->setScalar(R);
    return true;
  }

  case ExpKind::UnOpE: {
    if (!isScalar(S.Ops[0]))
      return notScalar(S.Ops[0]);
    auto R = evalUnOp(expCast<UnOpExp>(&E)->Op, F[S.Ops[0]].S);
    if (!R)
      return fail(R.getError());
    Out->setScalar(*R);
    return true;
  }

  case ExpKind::ConvOpE:
    if (!isScalar(S.Ops[0]))
      return notScalar(S.Ops[0]);
    Out->setScalar(evalConvOp(expCast<ConvOpExp>(&E)->Op, F[S.Ops[0]].S));
    return true;

  case ExpKind::If: {
    if (!isScalar(S.Ops[0]))
      return notScalar(S.Ops[0]);
    const RBody &B = S.Bodies[F[S.Ops[0]].S.getBool() ? 0 : 1];
    KS_CHECK(exec(B));
    for (size_t J = 0; J < S.Out.size(); ++J) {
      KS_CHECK(bound(B.Result[J]));
      F[S.Out[J]].assign(F[B.Result[J]], B.Movable[J]);
    }
    return true;
  }

  case ExpKind::Index:
    return execIndex(S);
  case ExpKind::Slice:
    return execSlice(S);
  case ExpKind::Update:
    return execUpdate(S);

  case ExpKind::Iota: {
    if (!isScalar(S.Ops[0]))
      return notScalar(S.Ops[0]);
    const auto *X = expCast<IotaExp>(&E);
    int64_t Len = F[S.Ops[0]].S.asInt64();
    if (Len < 0)
      return fail(E.Loc, "iota of negative length");
    std::vector<PrimValue> Data;
    Data.reserve(Len);
    for (int64_t I = 0; I < Len; ++I)
      Data.push_back(intOfKind(X->Elem, I));
    chargePrivate(Len, Len);
    Out->setArray(Value::array(X->Elem, {Len}, std::move(Data)));
    return true;
  }

  case ExpKind::Replicate:
  case ExpKind::Rearrange:
  case ExpKind::Reshape:
  case ExpKind::Concat:
  case ExpKind::Copy:
    return execReshaping(S);

  case ExpKind::Loop:
    return execLoop(S);
  case ExpKind::Map:
    return execMap(S);
  case ExpKind::Reduce:
  case ExpKind::Scan:
    return execReduceScan(S);
  case ExpKind::Stream:
    return execStream(S);

  default:
    return fail(E.Loc, std::string("expression kind '") +
                           expKindName(E.kind()) +
                           "' is not executable inside a kernel");
  }
}

bool RangeSim::execIndex(const RStm &S) {
  const Exp &E = *S.E;
  KS_CHECK(bound(S.Ops[0]));
  size_t NIdx = S.Ops.size() - 1;
  IdxBuf.resize(NIdx);
  for (size_t I = 0; I < NIdx; ++I) {
    if (!isScalar(S.Ops[1 + I]))
      return notScalar(S.Ops[1 + I]);
    IdxBuf[I] = F[S.Ops[1 + I]].S.asInt64();
  }
  TVal &Out = F[S.Out[0]];
  const TVal &T = F[S.Ops[0]];
  if (T.is(TVal::Tag::View)) {
    const GlobalView &G = T.V;
    // Apply indices one by one (the first may hit the slice window).
    FullBuf.assign(G.Prefix.begin(), G.Prefix.end());
    for (size_t I = 0; I < NIdx; ++I) {
      bool InSlice = I == 0 && G.Sliced;
      if (InSlice && (IdxBuf[0] < 0 || IdxBuf[0] >= G.SliceLen))
        return fail(E.Loc, "index out of slice bounds");
      FullBuf.push_back(InSlice ? IdxBuf[0] * G.SliceStride + G.SliceOff
                                : IdxBuf[I]);
    }
    const Value &In = Form.InputVals[G.InputIdx];
    if (FullBuf.size() == static_cast<size_t>(In.rank())) {
      PrimValue X;
      KS_CHECK(readFull(G.InputIdx, X, E.Loc));
      Out.setScalar(X);
      return true;
    }
    Out.T = TVal::Tag::View;
    Out.V.InputIdx = G.InputIdx;
    Out.V.Prefix = FullBuf;
    Out.V.Sliced = NIdx == 0 && G.Sliced;
    Out.V.SliceOff = G.SliceOff;
    Out.V.SliceLen = G.SliceLen;
    Out.V.SliceStride = NIdx == 0 ? G.SliceStride : 1;
    return true;
  }
  if (!T.is(TVal::Tag::Array) || !T.A.inBounds(IdxBuf))
    return fail(E.Loc, "index out of bounds in kernel");
  const Value &A = T.A;
  if (NIdx == A.shape().size()) {
    chargePrivate(1, A.numElems());
    Out.setScalar(A.at(IdxBuf));
    return true;
  }
  Value Sliced = A.slice(IdxBuf);
  chargePrivate(Sliced.numElems(), A.numElems());
  Out.setArray(std::move(Sliced));
  return true;
}

bool RangeSim::execSlice(const RStm &S) {
  const Exp &E = *S.E;
  KS_CHECK(bound(S.Ops[0]));
  for (int I = 1; I <= 3; ++I)
    if (!isScalar(S.Ops[I]))
      return notScalar(S.Ops[I]);
  int64_t O = F[S.Ops[1]].S.asInt64(), L = F[S.Ops[2]].S.asInt64(),
          SS = F[S.Ops[3]].S.asInt64();
  int64_t N = 0;
  KS_CHECK(outerSizeOf(S.Ops[0], N));
  if (O < 0 || L < 0 || SS <= 0 || (L > 0 && O + (L - 1) * SS >= N))
    return fail(E.Loc, "slice out of bounds in kernel");
  TVal &Out = F[S.Out[0]];
  const TVal &T = F[S.Ops[0]];
  if (T.is(TVal::Tag::View) && !T.V.Sliced) {
    Out.T = TVal::Tag::View;
    Out.V = T.V;
    Out.V.SliceOff = O;
    Out.V.Sliced = true;
    Out.V.SliceLen = L;
    Out.V.SliceStride = SS;
    return true;
  }
  TVal Tmp;
  const TVal *V = forced(S.Ops[0], Tmp);
  KS_CHECK(V);
  const Value &A = V->A;
  std::vector<int64_t> Shape = A.shape();
  Shape[0] = L;
  int64_t RowElems = A.rowElems();
  std::vector<PrimValue> Data;
  Data.reserve(L * RowElems);
  for (int64_t I = 0; I < L; ++I) {
    int64_t Row = O + I * SS;
    Data.insert(Data.end(), A.flat().begin() + Row * RowElems,
                A.flat().begin() + (Row + 1) * RowElems);
  }
  chargePrivate(L * RowElems, A.numElems());
  Out.setArray(Value::array(A.elemKind(), std::move(Shape), std::move(Data)));
  return true;
}

bool RangeSim::execUpdate(const RStm &S) {
  const Exp &E = *S.E;
  int ArrSlot = S.Ops[0];
  Value A;
  TVal &T = F[ArrSlot];
  if (T.is(TVal::Tag::View)) {
    TVal Tmp;
    KS_CHECK(materialise(T.V, Tmp));
    A = std::move(Tmp.A);
  } else if (T.is(TVal::Tag::Array)) {
    // A consumed array is moved out of its slot, so the update is in
    // place unless the payload is still shared.
    if (S.Consume)
      A = std::move(T.A);
    else
      A = T.A;
  } else if (T.is(TVal::Tag::Unbound)) {
    return unbound(ArrSlot);
  }
  bool IsArray = T.is(TVal::Tag::Array) || T.is(TVal::Tag::View);
  if (S.Consume)
    T.T = TVal::Tag::Unbound;
  size_t NIdx = S.Ops.size() - 2;
  IdxBuf.resize(NIdx);
  for (size_t I = 0; I < NIdx; ++I) {
    if (!isScalar(S.Ops[1 + I]))
      return notScalar(S.Ops[1 + I]);
    IdxBuf[I] = F[S.Ops[1 + I]].S.asInt64();
  }
  TVal Tmp;
  const TVal *V = forced(S.Ops.back(), Tmp);
  KS_CHECK(V);
  if (!IsArray || A.isScalar() || !A.inBounds(IdxBuf))
    return fail(E.Loc, "update out of bounds in kernel");
  if (NIdx == A.shape().size()) {
    if (!V->is(TVal::Tag::Scalar))
      return fail(E.Loc, "updating element with non-scalar");
    A.flatMut()[A.flatIndex(IdxBuf)] = V->S;
    chargePrivate(1, A.numElems());
  } else {
    int64_t Inner = 1;
    for (size_t I = NIdx; I < A.shape().size(); ++I)
      Inner *= A.shape()[I];
    if (!V->is(TVal::Tag::Array) || V->A.numElems() != Inner)
      return fail(E.Loc, "bulk update value has wrong size");
    int64_t Off = 0;
    for (size_t I = 0; I < NIdx; ++I)
      Off = Off * A.shape()[I] + IdxBuf[I];
    Off *= Inner;
    std::copy(V->A.flat().begin(), V->A.flat().end(),
              A.flatMut().begin() + Off);
    chargePrivate(Inner, A.numElems());
  }
  F[S.Out[0]].setArray(std::move(A));
  return true;
}

/// Replicate, rearrange, reshape, concat and copy: each materialises its
/// array operands first.
bool RangeSim::execReshaping(const RStm &S) {
  const Exp &E = *S.E;
  TVal &Out = F[S.Out[0]];
  TVal Tmp;
  switch (E.kind()) {
  case ExpKind::Replicate: {
    if (!isScalar(S.Ops[0]))
      return notScalar(S.Ops[0]);
    int64_t Len = F[S.Ops[0]].S.asInt64();
    const TVal *V = forced(S.Ops[1], Tmp);
    KS_CHECK(V);
    if (Len < 0)
      return fail(E.Loc, "replicate of negative count");
    Value R;
    if (V->is(TVal::Tag::Scalar)) {
      R = Value::filledArray(V->S.kind(), {Len}, V->S);
    } else {
      std::vector<int64_t> Shape{Len};
      Shape.insert(Shape.end(), V->A.shape().begin(), V->A.shape().end());
      std::vector<PrimValue> Data;
      Data.reserve(Len * V->A.numElems());
      for (int64_t I = 0; I < Len; ++I)
        Data.insert(Data.end(), V->A.flat().begin(), V->A.flat().end());
      R = Value::array(V->A.elemKind(), std::move(Shape), std::move(Data));
    }
    chargePrivate(R.numElems(), R.numElems());
    Out.setArray(std::move(R));
    return true;
  }

  case ExpKind::Rearrange: {
    const auto *X = expCast<RearrangeExp>(&E);
    const TVal *V = forced(S.Ops[0], Tmp);
    KS_CHECK(V);
    int Rank = static_cast<int>(X->Perm.size());
    if (!V->is(TVal::Tag::Array) || V->A.rank() != Rank)
      return fail(E.Loc, "rearrange rank mismatch");
    const Value &A = V->A;
    std::vector<int64_t> NewShape(Rank);
    for (int I = 0; I < Rank; ++I)
      NewShape[I] = A.shape()[X->Perm[I]];
    std::vector<PrimValue> Data(A.numElems());
    std::vector<int64_t> OutIdx(Rank, 0), SrcIdx(Rank, 0);
    for (int64_t Flat = 0; Flat < A.numElems(); ++Flat) {
      for (int I = 0; I < Rank; ++I)
        SrcIdx[X->Perm[I]] = OutIdx[I];
      Data[Flat] = A.at(SrcIdx);
      for (int I = Rank - 1; I >= 0; --I) {
        if (++OutIdx[I] < NewShape[I])
          break;
        OutIdx[I] = 0;
      }
    }
    chargePrivate(2 * A.numElems(), A.numElems());
    Out.setArray(
        Value::array(A.elemKind(), std::move(NewShape), std::move(Data)));
    return true;
  }

  case ExpKind::Reshape: {
    const TVal *V = forced(S.Ops[0], Tmp);
    KS_CHECK(V);
    std::vector<int64_t> Shape;
    int64_t N = 1;
    for (size_t I = 1; I < S.Ops.size(); ++I) {
      if (!isScalar(S.Ops[I]))
        return notScalar(S.Ops[I]);
      int64_t D = F[S.Ops[I]].S.asInt64();
      if (D < 0)
        return fail(
            CompilerError::runtime(E.Loc, "reshape to a negative dimension"));
      Shape.push_back(D);
      N *= D;
    }
    if (N != V->numElems())
      return fail(E.Loc, "reshape changes number of elements");
    std::vector<PrimValue> Data =
        V->is(TVal::Tag::Array) ? V->A.flat() : std::vector<PrimValue>{V->S};
    Out.setArray(Value::array(V->elemKind(), std::move(Shape),
                              std::move(Data)));
    return true;
  }

  case ExpKind::Concat: {
    std::vector<Value> Parts;
    for (int Slot : S.Ops) {
      const TVal *V = forced(Slot, Tmp);
      KS_CHECK(V);
      Parts.push_back(V->value());
    }
    if (Parts.empty())
      return fail(CompilerError::runtime("cannot concat zero arrays"));
    const Value &First = Parts.front();
    if (First.isScalar())
      return fail("cannot concat scalars");
    std::vector<int64_t> Shape = First.shape();
    Shape[0] = 0;
    std::vector<PrimValue> Data;
    for (const Value &V : Parts) {
      if (V.isScalar() || V.elemKind() != First.elemKind())
        return fail("concat: element kind mismatch");
      if (!std::equal(V.shape().begin() + 1, V.shape().end(),
                      Shape.begin() + 1, Shape.end()))
        return fail("concat: inner shapes differ");
      Shape[0] += V.outerSize();
      Data.insert(Data.end(), V.flat().begin(), V.flat().end());
    }
    Value R = Value::array(First.elemKind(), std::move(Shape), std::move(Data));
    chargePrivate(R.numElems(), R.numElems());
    Out.setArray(std::move(R));
    return true;
  }

  default: { // Copy
    const TVal *V = forced(S.Ops[0], Tmp);
    KS_CHECK(V);
    // The payload is shared copy-on-write, so the copy is charged but
    // not made until someone updates it.
    if (V->is(TVal::Tag::Array))
      chargePrivate(V->A.numElems(), V->A.numElems());
    Out.assign(*V);
    return true;
  }
  }
}

bool RangeSim::execLoop(const RStm &S) {
  const RLambda &L = S.Fns[0];
  if (!isScalar(S.Ops[0]))
    return notScalar(S.Ops[0]);
  PrimValue BoundV = F[S.Ops[0]].S;
  int64_t Bound = BoundV.asInt64();
  size_t NumMerge = S.Out.size();
  for (size_t J = 0; J < NumMerge; ++J) {
    KS_CHECK(bound(S.Ops[1 + J]));
    F[L.Params[1 + J]].assign(F[S.Ops[1 + J]]);
  }
  const RBody &B = L.Body;
  std::vector<TVal> Staged(S.ResultsAlias ? NumMerge : 0);
  for (int64_t I = 0; I < Bound; ++I) {
    F[L.Params[0]].setScalar(intOfKind(BoundV.kind(), I));
    KS_CHECK(call(L));
    for (size_t J = 0; J < NumMerge; ++J)
      KS_CHECK(bound(B.Result[J]));
    if (S.ResultsAlias) {
      for (size_t J = 0; J < NumMerge; ++J)
        Staged[J].assign(F[B.Result[J]], B.Movable[J]);
      for (size_t J = 0; J < NumMerge; ++J)
        F[L.Params[1 + J]].assign(Staged[J], true);
    } else {
      for (size_t J = 0; J < NumMerge; ++J)
        F[L.Params[1 + J]].assign(F[B.Result[J]], B.Movable[J]);
    }
  }
  for (size_t J = 0; J < NumMerge; ++J)
    F[S.Out[J]].assign(F[L.Params[1 + J]], true);
  return true;
}

bool RangeSim::execMap(const RStm &S) {
  const auto *X = expCast<MapExp>(S.E);
  const RLambda &Fn = S.Fns[0];
  if (!isScalar(S.Ops[0]))
    return notScalar(S.Ops[0]);
  int64_t W = F[S.Ops[0]].S.asInt64();
  size_t NumArr = S.Ops.size() - 1;
  for (size_t A = 0; A < NumArr; ++A)
    KS_CHECK(bound(S.Ops[1 + A]));
  size_t NumRes = S.Out.size();
  std::vector<Column> Cols(NumRes);
  TVal Res;
  for (int64_t I = 0; I < W; ++I) {
    if (Fn.Params.size() != NumArr || Fn.Body.Result.size() < NumRes)
      return fail("kernel lambda arity mismatch");
    for (size_t A = 0; A < NumArr; ++A)
      KS_CHECK(rowOf(S.Ops[1 + A], I, F[Fn.Params[A]]));
    KS_CHECK(call(Fn));
    for (size_t J = 0; J < Fn.Body.Result.size(); ++J) {
      KS_CHECK(force(Fn.Body.Result[J], Res, Fn.Body.Movable[J]));
      if (J >= NumRes)
        continue;
      if (I == 0)
        Cols[J].Data.reserve(W * Res.numElems());
      Cols[J].append(Res);
    }
  }
  for (size_t J = 0; J < NumRes; ++J) {
    TVal &Out = F[S.Out[J]];
    if (W == 0) {
      Out.setArray(Value::array(X->Fn.RetTypes[J].elemKind(), {0}, {}));
      continue;
    }
    KS_CHECK(takeColumn(Cols[J], {Cols[J].Rows}, Out));
    chargePrivate(Out.A.numElems(), Out.A.numElems());
  }
  return true;
}

/// Sequential in-thread reduction or scan.
bool RangeSim::execReduceScan(const RStm &S) {
  bool IsScan = S.E->kind() == ExpKind::Scan;
  const Lambda &Src = IsScan ? expCast<ScanExp>(S.E)->Fn
                             : expCast<ReduceExp>(S.E)->Fn;
  const RLambda &Fn = S.Fns[0];
  if (!isScalar(S.Ops[0]))
    return notScalar(S.Ops[0]);
  int64_t W = F[S.Ops[0]].S.asInt64();
  size_t NumAcc = S.Out.size();
  size_t NumArr = S.Ops.size() - 1 - NumAcc;
  std::vector<TVal> Acc(NumAcc);
  for (size_t J = 0; J < NumAcc; ++J)
    KS_CHECK(force(S.Ops[1 + J], Acc[J]));
  for (size_t A = 0; A < NumArr; ++A)
    KS_CHECK(bound(S.Ops[1 + NumAcc + A]));
  std::vector<Column> Cols(IsScan ? NumAcc : 0);
  for (int64_t I = 0; I < W; ++I) {
    if (Fn.Params.size() != NumAcc + NumArr ||
        Fn.Body.Result.size() != NumAcc)
      return fail("kernel lambda arity mismatch");
    for (size_t J = 0; J < NumAcc; ++J)
      F[Fn.Params[J]].assign(Acc[J], true);
    for (size_t A = 0; A < NumArr; ++A)
      KS_CHECK(rowOf(S.Ops[1 + NumAcc + A], I, F[Fn.Params[NumAcc + A]]));
    KS_CHECK(call(Fn));
    for (size_t J = 0; J < NumAcc; ++J)
      KS_CHECK(force(Fn.Body.Result[J], Acc[J], Fn.Body.Movable[J]));
    if (!IsScan)
      continue;
    for (size_t J = 0; J < NumAcc; ++J) {
      if (I == 0)
        Cols[J].Data.reserve(W * Acc[J].numElems());
      Cols[J].append(Acc[J]);
    }
  }
  for (size_t J = 0; J < NumAcc; ++J) {
    TVal &Out = F[S.Out[J]];
    if (!IsScan) {
      Out.assign(Acc[J], true);
    } else if (W == 0) {
      Out.setArray(Value::array(Src.RetTypes[J].elemKind(), {0}, {}));
    } else {
      KS_CHECK(takeColumn(Cols[J], {Cols[J].Rows}, Out));
      chargePrivate(Out.A.numElems(), Out.A.numElems());
    }
  }
  return true;
}

/// Sequentialised in-thread stream, run with chunk size one — the paper's
/// "efficient sequentialisation with asymptotically reduced per-thread
/// memory footprint" (Section 4.1): all per-chunk arrays are singletons,
/// so nothing spills.
bool RangeSim::execStream(const RStm &S) {
  const auto *X = expCast<StreamExp>(S.E);
  const RLambda &Fold = S.Fns[0];
  if (!isScalar(S.Ops[0]))
    return notScalar(S.Ops[0]);
  PrimValue WV = F[S.Ops[0]].S;
  int64_t W = WV.asInt64();
  size_t NumAcc = X->AccInit.size();
  size_t NumArr = S.Ops.size() - 1 - NumAcc;
  std::vector<TVal> Init(NumAcc), Accs(NumAcc);
  for (size_t J = 0; J < NumAcc; ++J)
    KS_CHECK(force(S.Ops[1 + J], Init[J]));
  for (size_t A = 0; A < NumArr; ++A)
    KS_CHECK(bound(S.Ops[1 + NumAcc + A]));
  for (size_t J = 0; J < NumAcc; ++J)
    Accs[J].assign(Init[J]);

  PrimValue One = intOfKind(WV.kind(), 1);
  size_t FoldAccs = static_cast<size_t>(X->NumAccs);
  size_t NumMapped = X->FoldFn.RetTypes.size() - FoldAccs;
  bool PassAccs = X->Form != StreamExp::FormKind::Par;
  size_t NumArgs = 1 + (PassAccs ? NumAcc : 0) + NumArr;
  std::vector<Column> Mapped(NumMapped);
  std::vector<TVal> Res;
  TVal Row;
  for (int64_t I = 0; I < W; ++I) {
    if (Fold.Params.size() != NumArgs ||
        Fold.Body.Result.size() < FoldAccs + NumMapped ||
        (X->Form != StreamExp::FormKind::Par && FoldAccs != NumAcc))
      return fail("kernel lambda arity mismatch");
    F[Fold.Params[0]].setScalar(One);
    size_t P0 = 1;
    if (PassAccs)
      for (size_t J = 0; J < NumAcc; ++J)
        F[Fold.Params[P0++]].assign(
            X->Form == StreamExp::FormKind::Seq ? Accs[J] : Init[J]);
    for (size_t A = 0; A < NumArr; ++A) {
      KS_CHECK(rowOf(S.Ops[1 + NumAcc + A], I, Row));
      std::vector<int64_t> Shape{1};
      std::vector<PrimValue> Data;
      if (Row.is(TVal::Tag::Scalar)) {
        Data.push_back(Row.S);
      } else {
        Shape.insert(Shape.end(), Row.A.shape().begin(), Row.A.shape().end());
        Data = Row.A.flat();
      }
      F[Fold.Params[P0++]].setArray(
          Value::array(Row.elemKind(), std::move(Shape), std::move(Data)));
    }
    KS_CHECK(call(Fold));
    Res.resize(Fold.Body.Result.size());
    for (size_t J = 0; J < Res.size(); ++J)
      KS_CHECK(force(Fold.Body.Result[J], Res[J], Fold.Body.Movable[J]));
    if (X->Form == StreamExp::FormKind::Seq) {
      for (size_t J = 0; J < NumAcc; ++J)
        Accs[J].assign(Res[J], true);
    } else if (X->Form == StreamExp::FormKind::Red) {
      const RLambda &Comb = S.Fns[1];
      if (Comb.Params.size() != 2 * NumAcc ||
          Comb.Body.Result.size() != NumAcc)
        return fail("lambda arity mismatch: expected " +
                    std::to_string(Comb.Params.size()) + " arguments, got " +
                    std::to_string(2 * NumAcc));
      for (size_t J = 0; J < NumAcc; ++J) {
        F[Comb.Params[J]].assign(Accs[J], true);
        F[Comb.Params[NumAcc + J]].assign(Res[J], true);
      }
      KS_CHECK(callOperator(Comb));
      for (size_t J = 0; J < NumAcc; ++J)
        KS_CHECK(force(Comb.Body.Result[J], Accs[J], Comb.Body.Movable[J]));
      if (Charging)
        ++Cost.ComputeOps;
    }
    for (size_t J = 0; J < NumMapped; ++J) {
      const TVal &Chunk = Res[FoldAccs + J];
      if (!Chunk.is(TVal::Tag::Array) || Chunk.A.rank() == 0 ||
          Chunk.A.outerSize() < 1)
        return fail("row read out of bounds in kernel");
      if (Chunk.A.rank() == 1)
        Row.setScalar(Chunk.A.flat()[0]);
      else
        Row.setArray(Chunk.A.row(0));
      if (I == 0)
        Mapped[J].Data.reserve(W * Row.numElems());
      Mapped[J].append(Row);
    }
  }

  for (size_t J = 0; J < NumAcc; ++J)
    F[S.Out[J]].assign(Accs[J], true);
  for (size_t J = 0; J < NumMapped; ++J) {
    TVal &Out = F[S.Out[NumAcc + J]];
    if (W == 0) {
      Out.setArray(Value::array(
          X->FoldFn.RetTypes[FoldAccs + J].elemKind(), {0}, {}));
      continue;
    }
    KS_CHECK(takeColumn(Mapped[J], {Mapped[J].Rows}, Out));
    chargePrivate(Out.A.numElems(), Out.A.numElems());
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Warp steps
//===----------------------------------------------------------------------===//
//
// A warp step runs the lanes a range holds of one warp together: each
// statement of the thread body for every active lane before the next
// statement.  Warp-level slots live in the lane store, one value per lane;
// SubExp, BinOp, UnOp, ConvOp and an Index of a kernel input (an element,
// or a lane view: the indices applied so far) run warp-wide, if and loop
// run their bodies under a mask of the lanes that take the branch or are
// still iterating, and every other statement runs lane by lane through
// execStm.  Each lane charges its own trace and op
// count in its own program order, so merging the warp counts what running
// its lanes one after another counts.  A step that fails in any way is
// undone and its lanes run one after another, which then meet exactly
// what they would have met.

/// The fewest lanes a warp step runs: a range that holds only one lane of
/// a warp (as a segmented launch's ranges of single segments do) runs it
/// on its own, where a step would only add overhead.
constexpr int64_t kMinStepLanes = 2;

/// The first \p N lanes, one bit each.
uint64_t laneMask(int64_t N) {
  return N >= 64 ? ~uint64_t(0) : (uint64_t(1) << N) - 1;
}

/// Iterates over the lanes in a mask, lowest first.
#define FOR_LANES(L, MASK)                                                     \
  for (uint64_t M_ = (MASK), L = 0;                                            \
       M_ && ((L = static_cast<uint64_t>(std::countr_zero(M_))), true);       \
       M_ &= M_ - 1)

/// Runs lanes [Begin, End) warp by warp: the part of each warp they hold
/// as one \p Step when the launch steps and the part has kMinStepLanes
/// lanes, and otherwise, or when the step failed and was undone, one
/// \p Lane after another.  \p Idx is the grid index of lane Begin; it is
/// advanced past every lane run.
template <class StepFn, class LaneFn>
bool RangeSim::eachWarp(int64_t Begin, int64_t End, std::vector<int64_t> &Idx,
                        StepFn Step, LaneFn Lane) {
  for (int64_t A = Begin; A < End;) {
    int64_t B = std::min(End, WarpEnd);
    if (Stepping && B - A >= kMinStepLanes) {
      markStep();
      StepIdx = Idx;
      if (Step(A, B)) {
        for (size_t L = StepBase; L < NumLanes; ++L)
          LaneOps[L] += StepOps;
        endLane(B - 1);
        Idx.swap(StepIdx);
        A = B;
        continue;
      }
      undoStep();
    }
    for (; A < B; ++A) {
      KS_CHECK(Lane(A));
      advance(Idx, Form.Grid);
    }
  }
  return true;
}

void RangeSim::markStep() {
  for (size_t I = 0; I < kNumRangeCharges; ++I)
    Mark.Charged[I] = Cost.*kRangeCharges[I];
  Mark.OutBytes = OutBytesSoFar;
  Mark.WarpOps = WarpOps;
  Mark.NumLanes = NumLanes;
  Mark.FoldArgs = FoldArgs.size();
  Mark.Cols.clear();
  for (const Column &C : Cols)
    Mark.Cols.push_back(C.mark());
  // Only a gridless fold's accumulators live across its lanes.
  if (Form.Gridless) {
    Mark.Acc.resize(Acc.size());
    for (size_t J = 0; J < Acc.size(); ++J)
      Mark.Acc[J].assign(Acc[J]);
  }
}

void RangeSim::undoStep() {
  for (size_t I = 0; I < kNumRangeCharges; ++I)
    Cost.*kRangeCharges[I] = Mark.Charged[I];
  OutBytesSoFar = Mark.OutBytes;
  WarpOps = Mark.WarpOps;
  NumLanes = Mark.NumLanes;
  Trace = nullptr;
  FoldArgs.resize(Mark.FoldArgs);
  for (size_t J = 0; J < Cols.size(); ++J)
    Cols[J].rollback(Mark.Cols[J]);
  if (Form.Gridless)
    for (size_t J = 0; J < Acc.size(); ++J)
      Acc[J].assign(Mark.Acc[J]);
}

/// Opens \p N lanes after those already open, with empty traces, and
/// returns their mask.
uint64_t RangeSim::openStep(int64_t N) {
  if (LS.empty() && LV.empty()) {
    LS.resize(static_cast<size_t>(Form.LaneScalars) * Stride);
    LV.resize(static_cast<size_t>(Form.LaneValues) * Stride);
  }
  closeLane();
  StepBase = NumLanes;
  NumLanes += static_cast<size_t>(N);
  if (Lanes.size() < NumLanes) {
    Lanes.resize(NumLanes);
    LaneOps.resize(NumLanes);
  }
  for (size_t L = StepBase; L < NumLanes; ++L) {
    Lanes[L].clear();
    LaneOps[L] = 0;
  }
  StepOps = 0;
  return StepMask = laneMask(N);
}

/// Sets the thread index slots of the step's \p N lanes from StepIdx,
/// advancing it past them.
void RangeSim::setLaneIndices(int64_t N) {
  const std::vector<int> &Slots = Form.ThreadIdxSlots;
  for (int64_t L = 0; L < N; ++L) {
    for (size_t D = 0; D < Slots.size(); ++D)
      lanes(Slots[D])[L] = PrimValue::makeI32(static_cast<int32_t>(
          StepIdx[D] + (D == 0 ? Form.OuterOffset : 0)));
    advance(StepIdx, Form.Grid);
  }
}

/// The lanes of scalar operand \p Slot: a warp-level scalar, or a shared
/// one.  False for anything else, which fails the step.
bool RangeSim::src(int Slot, LaneSrc &Out) {
  int X = Form.Slots[Slot].Lane;
  if (X >= 0) {
    Out = {&LS[static_cast<size_t>(X) * Stride], 1};
    return Form.Slots[Slot].View.Input < 0;
  }
  if (X != -1 || Form.Slots[Slot].Scope >= 0 || !F[Slot].is(TVal::Tag::Scalar))
    return false;
  Out = {&F[Slot].S, 0};
  return true;
}

bool RangeSim::copyLanes(int From, int To, uint64_t Mask) {
  LaneSrc A;
  KS_CHECK(src(From, A));
  PrimValue *Out = lanes(To);
  FOR_LANES(L, Mask) {
    Out[L] = A[L];
  }
  return true;
}

/// Puts lane \p L's value of warp-level slot \p Slot in the frame.  A
/// value other than a scalar or a lane view is swapped with the frame's,
/// so the frame slot's buffers are reused by the next lane.
void RangeSim::loadLane(int Slot, size_t L) {
  int X = Form.Slots[Slot].Lane;
  if (X == -1)
    return;
  if (X < -1)
    return std::swap(F[Slot], LV[static_cast<size_t>(-2 - X) * Stride + L]);
  const ResolvedForm::LaneView &View = Form.Slots[Slot].View;
  if (View.Input < 0)
    return F[Slot].setScalar(LS[static_cast<size_t>(X) * Stride + L]);
  TVal &T = F[Slot];
  T.T = TVal::Tag::View;
  T.V.InputIdx = View.Input;
  T.V.Prefix.resize(static_cast<size_t>(View.Len));
  for (int I = 0; I < View.Len; ++I)
    T.V.Prefix[I] = LS[static_cast<size_t>(X + I) * Stride + L].asInt64();
  T.V.Sliced = false;
  T.V.SliceOff = T.V.SliceLen = 0;
  T.V.SliceStride = 1;
}

/// Puts the frame's value of warp-level slot \p Slot in lane \p L's; false
/// when a scalar slot holds something else, or a lane view was consumed.
bool RangeSim::storeLane(int Slot, size_t L) {
  int X = Form.Slots[Slot].Lane;
  KS_CHECK(X != -1);
  if (X < -1) {
    std::swap(F[Slot], LV[static_cast<size_t>(-2 - X) * Stride + L]);
    return true;
  }
  if (Form.Slots[Slot].View.Input >= 0)
    return F[Slot].is(TVal::Tag::View);
  KS_CHECK(F[Slot].is(TVal::Tag::Scalar));
  LS[static_cast<size_t>(X) * Stride + L] = F[Slot].S;
  return true;
}

bool RangeSim::stepBody(const RBody &B, uint64_t Mask) {
  for (const RStm &S : B.Stms)
    KS_CHECK(S.Step == RStm::StepKind::Lane ? stepLanes(S, Mask)
                                            : stepWarp(S, Mask));
  return true;
}

/// Runs a warp-wide statement for the lanes in \p Mask, charging each of
/// them its op.
bool RangeSim::stepWarp(const RStm &S, uint64_t Mask) {
  int64_t N = std::popcount(Mask);
  Cost.ComputeOps += N;
  WarpOps += N;
  if (Mask == StepMask) {
    ++StepOps;
  } else {
    FOR_LANES(L, Mask) {
      ++LaneOps[StepBase + L];
    }
  }
  KS_CHECK(!S.BadArity);
  switch (S.Step) {
  case RStm::StepKind::Scalar:
    return stepScalar(S, Mask);
  case RStm::StepKind::Read:
    return stepRead(S, Mask);
  case RStm::StepKind::View:
    return stepView(S, Mask);
  case RStm::StepKind::If:
    return stepIf(S, Mask);
  default:
    return stepLoop(S, Mask);
  }
}

bool RangeSim::stepScalar(const RStm &S, uint64_t Mask) {
  const Exp &E = *S.E;
  PrimValue *Out = lanes(S.Out[0]);
  LaneSrc A, B;
  KS_CHECK(src(S.Ops[0], A));
  switch (E.kind()) {
  case ExpKind::SubExpE:
    FOR_LANES(L, Mask) {
      Out[L] = A[L];
    }
    return true;
  case ExpKind::BinOpE: {
    KS_CHECK(src(S.Ops[1], B));
    BinOp Op = expCast<BinOpExp>(&E)->Op;
    FOR_LANES(L, Mask) {
      KS_CHECK(evalBinOpInto(Op, A[L], B[L], Out[L]) == BinOpFault::None);
    }
    return true;
  }
  case ExpKind::UnOpE: {
    UnOp Op = expCast<UnOpExp>(&E)->Op;
    FOR_LANES(L, Mask) {
      auto R = evalUnOp(Op, A[L]);
      KS_CHECK(R);
      Out[L] = *R;
    }
    return true;
  }
  default: {
    ConvOp Op = expCast<ConvOpExp>(&E)->Op;
    FOR_LANES(L, Mask) {
      Out[L] = evalConvOp(Op, A[L]);
    }
    return true;
  }
  }
}

/// The input an Index step reads and its index lanes: a lane view's
/// indices, then the statement's; false if an index is not a scalar.
bool RangeSim::indexLanes(const RStm &S, int &Input) {
  int Base = S.Ops[0];
  const ResolvedForm::LaneView &View = Form.Slots[Base].View;
  size_t Pre = static_cast<size_t>(View.Len);
  Input = View.Input >= 0 ? View.Input : F[Base].V.InputIdx;
  IdxSrc.resize(Pre + S.Ops.size() - 1);
  for (size_t I = 0; I < Pre; ++I)
    IdxSrc[I] = {lanes(Base) + I * Stride, 1};
  for (size_t I = Pre; I < IdxSrc.size(); ++I)
    KS_CHECK(src(S.Ops[1 + I - Pre], IdxSrc[I]));
  return true;
}

/// Reads one element of a kernel input per lane, into each lane's trace.
bool RangeSim::stepRead(const RStm &S, uint64_t Mask) {
  int In;
  KS_CHECK(indexLanes(S, In));
  size_t N = IdxSrc.size();
  IdxBuf.resize(N);
  InputReader R(Form, In);
  PrimValue *Out = lanes(S.Out[0]);
  FOR_LANES(L, Mask) {
    for (size_t I = 0; I < N; ++I)
      IdxBuf[I] = IdxSrc[I][L].asInt64();
    uint64_t Addr;
    KS_CHECK(R.read(IdxBuf.data(), N, Out[L], Addr));
    chargeRead(R, Addr, &Lanes[StepBase + L]);
  }
  return true;
}

/// Binds a lane view: each lane's indices, which a later read applies.
bool RangeSim::stepView(const RStm &S, uint64_t Mask) {
  int In;
  KS_CHECK(indexLanes(S, In));
  for (size_t I = 0; I < IdxSrc.size(); ++I) {
    PrimValue *Row = lanes(S.Out[0]) + I * Stride;
    FOR_LANES(L, Mask) {
      Row[L] = IdxSrc[I][L];
    }
  }
  return true;
}

bool RangeSim::stepIf(const RStm &S, uint64_t Mask) {
  LaneSrc C;
  KS_CHECK(src(S.Ops[0], C));
  uint64_t Then = 0;
  FOR_LANES(L, Mask) {
    Then |= uint64_t(C[L].getBool()) << L;
  }
  for (int Br = 0; Br < 2; ++Br) {
    uint64_t Taken = Br == 0 ? Then : Mask & ~Then;
    if (!Taken)
      continue;
    const RBody &B = S.Bodies[Br];
    KS_CHECK(stepBody(B, Taken));
    for (size_t J = 0; J < S.Out.size(); ++J)
      KS_CHECK(copyLanes(B.Result[J], S.Out[J], Taken));
  }
  return true;
}

/// A loop whose lanes may run different trip counts: each iteration runs
/// the body for the lanes still iterating.
bool RangeSim::stepLoop(const RStm &S, uint64_t Mask) {
  const RLambda &Fn = S.Fns[0];
  const RBody &B = Fn.Body;
  size_t NumMerge = S.Out.size();
  LaneSrc Bound;
  KS_CHECK(src(S.Ops[0], Bound));
  for (size_t J = 0; J < NumMerge; ++J)
    KS_CHECK(copyLanes(S.Ops[1 + J], Fn.Params[1 + J], Mask));
  int64_t Trips[64];
  uint64_t Live = 0;
  FOR_LANES(L, Mask) {
    Trips[L] = Bound[L].asInt64();
    Live |= uint64_t(Trips[L] > 0) << L;
  }
  PrimValue *Index = lanes(Fn.Params[0]);
  for (int64_t I = 0; Live; ++I) {
    FOR_LANES(L, Live) {
      Index[L] = intOfKind(Bound[L].kind(), I);
    }
    KS_CHECK(stepBody(B, Live));
    if (S.ResultsAlias) {
      Staged.resize(NumMerge * Stride);
      for (size_t J = 0; J < NumMerge; ++J) {
        LaneSrc R;
        KS_CHECK(src(B.Result[J], R));
        FOR_LANES(L, Live) {
          Staged[J * Stride + L] = R[L];
        }
      }
      for (size_t J = 0; J < NumMerge; ++J) {
        PrimValue *Param = lanes(Fn.Params[1 + J]);
        FOR_LANES(L, Live) {
          Param[L] = Staged[J * Stride + L];
        }
      }
    } else {
      for (size_t J = 0; J < NumMerge; ++J)
        KS_CHECK(copyLanes(B.Result[J], Fn.Params[1 + J], Live));
    }
    FOR_LANES(L, Live) {
      if (I + 1 >= Trips[L])
        Live &= ~(uint64_t(1) << L);
    }
  }
  for (size_t J = 0; J < NumMerge; ++J)
    KS_CHECK(copyLanes(Fn.Params[1 + J], S.Out[J], Mask));
  return true;
}

/// Runs a statement through execStm for each lane in \p Mask, with the
/// warp-level slots it reads loaded from that lane, its charges going to
/// that lane, and its results stored back to it.
bool RangeSim::stepLanes(const RStm &S, uint64_t Mask) {
  bool Ok = true;
  FOR_LANES(L, Mask) {
    Trace = &Lanes[StepBase + L];
    for (int Slot : S.LaneIns)
      loadLane(Slot, L);
    int64_t Before = Cost.ComputeOps;
    Ok = execStm(S);
    LaneOps[StepBase + L] += Cost.ComputeOps - Before;
    // A value the statement read goes back to its lane, unbound if the
    // statement consumed it; a consumed lane view fails the step.
    for (int Slot : S.LaneIns)
      if (Form.Slots[Slot].Lane < -1 || Form.Slots[Slot].View.Input >= 0)
        Ok = storeLane(Slot, L) && Ok;
    for (size_t J = 0; Ok && J < S.Out.size(); ++J)
      Ok = storeLane(S.Out[J], L);
    if (!Ok)
      break;
  }
  Trace = nullptr;
  return Ok;
}

/// Threads [A, B) of one warp: their bodies, then each thread's results in
/// thread order.
bool RangeSim::stepThreads(int64_t A, int64_t B) {
  uint64_t Mask = openStep(B - A);
  setLaneIndices(B - A);
  KS_CHECK(stepBody(Form.ThreadBody, Mask));
  for (int64_t T = A; T < B; ++T) {
    size_t L = static_cast<size_t>(T - A);
    Trace = &Lanes[StepBase + L];
    for (int Slot : Form.ResultLanes)
      loadLane(Slot, L);
    KS_CHECK(commitThread(T));
  }
  Trace = nullptr;
  return true;
}

/// Segments [A, B) of one warp: each element step runs the body for every
/// segment and then, segment by segment, folds the results into that
/// segment's own accumulators (and scan rows); the segments' results are
/// written in segment order at the end.
bool RangeSim::stepSegments(int64_t A, int64_t B) {
  size_t N = static_cast<size_t>(B - A);
  uint64_t Mask = openStep(B - A);
  setLaneIndices(B - A);
  bool IsScan = K.Op == KernelExp::OpKind::SegScan;
  if (LaneAcc.size() < N) {
    LaneAcc.resize(N);
    LaneCols.resize(N);
  }
  for (size_t L = 0; L < N; ++L) {
    LaneAcc[L].resize(Acc.size());
    for (size_t J = 0; J < Acc.size(); ++J)
      LaneAcc[L][J].assign(Form.Neutral[J]);
    LaneCols[L].resize(IsScan ? Acc.size() : 0);
    for (Column &C : LaneCols[L])
      C.reset();
  }
  PrimValue *Seg = lanes(Form.SegIdxSlot);
  for (int64_t S = 0; S < Form.SegSize; ++S) {
    for (size_t L = 0; L < N; ++L)
      Seg[L] = PrimValue::makeI32(static_cast<int32_t>(S));
    KS_CHECK(stepBody(Form.ThreadBody, Mask));
    for (size_t L = 0; L < N; ++L) {
      KS_CHECK(stepElement(L));
      KS_CHECK(laneOperator(L));
    }
  }
  for (size_t L = 0; L < N; ++L)
    KS_CHECK(commitSegment(L));
  Trace = nullptr;
  return true;
}

/// Elements [A, B) of a gridless fold: their bodies, then in element order
/// the operator (\p Fold) or the buffer of a range that only runs bodies.
bool RangeSim::stepElements(int64_t A, int64_t B, bool Fold) {
  uint64_t Mask = openStep(B - A);
  PrimValue *Seg = lanes(Form.SegIdxSlot);
  for (int64_t S = A; S < B; ++S)
    Seg[S - A] = PrimValue::makeI32(static_cast<int32_t>(S));
  KS_CHECK(stepBody(Form.ThreadBody, Mask));
  for (size_t L = 0; L < static_cast<size_t>(B - A); ++L) {
    KS_CHECK(stepElement(L));
    KS_CHECK(Fold ? applyOperator() : bufferElement());
  }
  Trace = nullptr;
  return true;
}

/// Hands lane \p L's body results to the operator's element parameters.
bool RangeSim::stepElement(size_t L) {
  Trace = &Lanes[StepBase + L];
  for (int Slot : Form.ResultLanes)
    loadLane(Slot, L);
  KS_CHECK(takeElement());
  LaneOps[StepBase + L] += Form.ReduceFnOps;
  return true;
}

/// Applies the operator to segment lane \p L's accumulators.
bool RangeSim::laneOperator(size_t L) {
  std::swap(Acc, LaneAcc[L]);
  std::swap(Cols, LaneCols[L]);
  bool Ok = applyOperator();
  std::swap(Acc, LaneAcc[L]);
  std::swap(Cols, LaneCols[L]);
  return Ok;
}

/// Ends segment lane \p L after the segments before it: its scan rows
/// follow theirs, and endSegment writes its results.
bool RangeSim::commitSegment(size_t L) {
  if (K.Op == KernelExp::OpKind::SegScan)
    for (size_t J = 0; J < Cols.size(); ++J) {
      SegStart[J] = Cols[J].Data.size();
      KS_CHECK(Cols[J].canTake(LaneCols[L][J]));
      Cols[J].take(std::move(LaneCols[L][J]));
    }
  std::swap(Acc, LaneAcc[L]);
  bool Ok = endSegment();
  std::swap(Acc, LaneAcc[L]);
  return Ok;
}

//===----------------------------------------------------------------------===//
// Kernel driving
//===----------------------------------------------------------------------===//

RangeSim::RangeSim(const DeviceParams &P, const KernelExp &K,
                   const ResolvedForm &Form, CostReport &Cost,
                   int64_t OutBudgetBytes, std::vector<TVal> Frame)
    : P(P), K(K), Form(Form), Cost(Cost), OutBudgetBytes(OutBudgetBytes),
      ReserveRows(Form.GridSize), F(std::move(Frame)),
      Cols(K.Op == KernelExp::OpKind::ThreadBody ? K.RetTypes.size()
                                                 : Form.Neutral.size()),
      Acc(Form.Neutral.size()), SegStart(Form.Neutral.size()) {
  // A thread or segment index the grid does not set stays unbound, which
  // only running lanes one after another reproduces.
  size_t Dims = Form.Gridless ? 0 : Form.Grid.size();
  Stepping = !P.ForceLaneByLane && P.WarpSize >= 1 && P.WarpSize <= 64 &&
             K.Op != KernelExp::OpKind::SegHist &&
             Form.ThreadIdxSlots.size() <= Dims;
  Stride = static_cast<size_t>(
      std::clamp<int64_t>(Form.Units, 1, std::max(P.WarpSize, 1)));
}

RangeSim::RangeSim(const RangeSim &First, CostReport &Cost, int64_t Rows)
    : P(First.P), K(First.K), Form(First.Form), Cost(Cost),
      OutBudgetBytes(First.OutBudgetBytes), ReserveRows(Rows),
      F(First.F.size()), Cols(First.Cols.size()), Acc(First.Acc.size()),
      SegStart(First.SegStart.size()), Stepping(First.Stepping),
      Stride(First.Stride) {
  for (size_t I = 0; I < F.size(); ++I)
    if (Form.Slots[I].Scope < 0)
      F[I].assign(First.F[I]);
}

/// Starts a thread: its index slots hold global thread-index values.
void RangeSim::setThreadIndices(const std::vector<int64_t> &Idx) {
  const std::vector<int> &Slots = Form.ThreadIdxSlots;
  for (size_t I = 0; I < Idx.size() && I < Slots.size(); ++I)
    F[Slots[I]].setScalar(PrimValue::makeI32(
        static_cast<int32_t>(Idx[I] + (I == 0 ? Form.OuterOffset : 0))));
}

void RangeSim::beginLaunch() {
  if (Form.Gridless)
    beginSegment();
}

bool RangeSim::endLaunch() { return !Form.Gridless || endSegment(); }

bool RangeSim::runLanes(int64_t Begin, int64_t End) {
  startAt(Begin);
  bool Ok = K.Op == KernelExp::OpKind::ThreadBody ? runThreads(Begin, End)
            : Form.Gridless                       ? foldElements(Begin, End)
                                                  : runSegments(Begin, End);
  closeLane();
  Trace = nullptr;
  return Ok;
}

bool RangeSim::runDetached(int64_t Begin, int64_t End) {
  bool Ok = Form.Gridless ? runElementBodies(Begin, End)
                          : runLanes(Begin, End);
  shareLanes(/*EndsWarp=*/false);
  // Only the running ranges hold a lane store, not those awaiting absorb.
  std::vector<PrimValue>().swap(LS);
  std::vector<TVal>().swap(LV);
  std::vector<std::vector<TVal>>().swap(LaneAcc);
  std::vector<std::vector<Column>>().swap(LaneCols);
  return Ok;
}

bool RangeSim::runThreads(int64_t Begin, int64_t End) {
  std::vector<int64_t> Idx = gridIndex(Begin, Form.Grid);
  return eachWarp(
      Begin, End, Idx, [&](int64_t A, int64_t B) { return stepThreads(A, B); },
      [&](int64_t T) {
        openLane();
        setThreadIndices(Idx);
        KS_CHECK(exec(Form.ThreadBody));
        KS_CHECK(commitThread(T));
        endLane(T);
        return true;
      });
}

/// Writes the results thread \p T's body left in its result slots:
/// charges their bytes and writes, and appends them as the thread's rows.
bool RangeSim::commitThread(int64_t T) {
  const RBody &Body = Form.ThreadBody;
  size_t NumRes = K.RetTypes.size();
  if (Body.Result.size() != NumRes)
    return fail("kernel thread result arity mismatch");
  int64_t GlobalT = T + Form.ThreadOffset;
  TVal Res;
  for (size_t J = 0; J < NumRes; ++J) {
    KS_CHECK(force(Body.Result[J], Res, Body.Movable[J]));
    int64_t Elems = Res.numElems();
    KS_CHECK(chargeOutput(Elems, Res.elemKind()));
    // Charge the output writes: row-major per thread, or with the thread
    // index innermost when results are stored transposed.  The global
    // thread id keeps shard-boundary addresses exact.
    uint64_t OutBase = (2ULL << 50) + (static_cast<uint64_t>(J) << 44);
    for (int64_t EIdx = 0; EIdx < Elems; ++EIdx) {
      uint64_t Off = K.TransposedOutputs
                         ? static_cast<uint64_t>(EIdx) *
                                   static_cast<uint64_t>(Form.GlobalThreads) +
                               static_cast<uint64_t>(GlobalT)
                         : static_cast<uint64_t>(GlobalT * Elems + EIdx);
      chargeWrite(OutBase + Off * elemBytes(Res.elemKind()));
    }
    if (Cols[J].Data.empty()) {
      // Reserved once, and never past what the memory budget admits.
      int64_t Want = ReserveRows * Elems;
      if (OutBudgetBytes >= 0)
        Want = std::min(Want, OutBudgetBytes / elemBytes(Res.elemKind()) + 1);
      Cols[J].Data.reserve(static_cast<size_t>(Want));
    }
    Cols[J].append(Res);
  }
  return true;
}

/// A segmented launch with a grid: one thread folds one whole segment
/// sequentially, so warps span consecutive segments (the layout-sensitive
/// case the coalescing transformation targets).
bool RangeSim::runSegments(int64_t Begin, int64_t End) {
  std::vector<int64_t> Idx = gridIndex(Begin, Form.Grid);
  return eachWarp(
      Begin, End, Idx, [&](int64_t A, int64_t B) { return stepSegments(A, B); },
      [&](int64_t Seg) {
        beginSegment();
        openLane();
        for (int64_t S = 0; S < Form.SegSize; ++S) {
          KS_CHECK(runElement(Idx, S));
          KS_CHECK(applyOperator());
        }
        endLane(Seg);
        return endSegment();
      });
}

/// Starts a segment: the accumulators hold the neutral elements.
void RangeSim::beginSegment() {
  for (size_t J = 0; J < Acc.size(); ++J) {
    Acc[J].assign(Form.Neutral[J]);
    SegStart[J] = Cols[J].Data.size();
  }
}

/// Ends a segment: a reduction appends its accumulators as the segment's
/// row, and the segment's results are written to global memory.  The tree
/// combine within the segment costs an extra log factor, already roughly
/// covered by charging the operator per element.
bool RangeSim::endSegment() {
  bool IsScan = K.Op == KernelExp::OpKind::SegScan;
  for (size_t J = 0; J < Acc.size(); ++J) {
    int64_t Elems;
    ScalarKind Kind;
    if (IsScan) {
      if (Form.SegSize == 0)
        continue;
      if (Form.SegSize < 0)
        return fail(CompilerError::runtime(
            "cannot assemble an empty array without an element type"));
      if (Cols[J].Irregular)
        return fail(Cols[J].irregularMessage());
      Elems = static_cast<int64_t>(Cols[J].Data.size() - SegStart[J]);
      Kind = Cols[J].Kind;
    } else {
      Elems = Acc[J].numElems();
      Kind = Acc[J].elemKind();
      Cols[J].append(Acc[J]);
    }
    KS_CHECK(chargeOutput(Elems, Kind));
    Cost.GlobalAccesses += Elems;
    int64_t Tx =
        (Elems * elemBytes(Kind) + P.SegmentBytes - 1) / P.SegmentBytes;
    Cost.GlobalTransactions += Tx;
    Cost.CoalescedTransactions += Tx; // contiguous result write
  }
  return true;
}

/// Runs the thread body for element \p S of the segment at grid index
/// \p Idx, leaves its results in the operator's element parameters, and
/// charges the operator's fixed cost.
bool RangeSim::runElement(const std::vector<int64_t> &Idx, int64_t S) {
  setThreadIndices(Idx);
  F[Form.SegIdxSlot].setScalar(PrimValue::makeI32(static_cast<int32_t>(S)));
  KS_CHECK(exec(Form.ThreadBody));
  return takeElement();
}

/// Moves the thread body's results, left in its result slots, into the
/// operator's element parameters.
bool RangeSim::takeElement() {
  const RBody &Body = Form.ThreadBody;
  const RLambda &Op = Form.ReduceOp;
  size_t NumRes = Acc.size();
  size_t NumElems = Body.Result.size();
  if (Op.Params.size() != NumRes + NumElems ||
      Op.Body.Result.size() != NumRes)
    return fail("lambda arity mismatch: expected " +
                std::to_string(Op.Params.size()) + " arguments, got " +
                std::to_string(NumRes + NumElems));
  for (size_t E = 0; E < NumElems; ++E)
    KS_CHECK(force(Body.Result[E], F[Op.Params[NumRes + E]],
                   Body.Movable[E]));
  Cost.ComputeOps += Form.ReduceFnOps;
  return true;
}

/// Folds the element in the operator's element parameters into the
/// accumulators; a scan appends them as its next row.
bool RangeSim::applyOperator() {
  const RLambda &Op = Form.ReduceOp;
  for (size_t J = 0; J < Acc.size(); ++J)
    F[Op.Params[J]].assign(Acc[J], true);
  KS_CHECK(callOperator(Op));
  for (size_t J = 0; J < Acc.size(); ++J)
    KS_CHECK(force(Op.Body.Result[J], Acc[J], Op.Body.Movable[J]));
  if (K.Op == KernelExp::OpKind::SegScan)
    for (size_t J = 0; J < Acc.size(); ++J)
      Cols[J].append(Acc[J]);
  return true;
}

/// A gridless segmented launch is one large reduction or scan
/// parallelised within its only segment, one lane per element.
bool RangeSim::foldElements(int64_t Begin, int64_t End) {
  std::vector<int64_t> NoIdx;
  return eachWarp(
      Begin, End, NoIdx,
      [&](int64_t A, int64_t B) { return stepElements(A, B, /*Fold=*/true); },
      [&](int64_t S) {
        openLane();
        KS_CHECK(runElement(NoIdx, S));
        KS_CHECK(applyOperator());
        endLane(S);
        return true;
      });
}

/// Runs the bodies of a gridless fold's elements [Begin, End) and keeps
/// their scalar results for the first range's fold.  An array result
/// fails the range, which then runs again on the first range.
bool RangeSim::runElementBodies(int64_t Begin, int64_t End) {
  std::vector<int64_t> NoIdx;
  startAt(Begin);
  FoldArgs.reserve(static_cast<size_t>(End - Begin) *
                   (Form.ReduceOp.Params.size() - Acc.size()));
  return eachWarp(
      Begin, End, NoIdx,
      [&](int64_t A, int64_t B) { return stepElements(A, B, /*Fold=*/false); },
      [&](int64_t S) {
        openLane();
        KS_CHECK(runElement(NoIdx, S));
        KS_CHECK(bufferElement());
        endLane(S);
        return true;
      });
}

/// Appends the element in the operator's element parameters to FoldArgs.
bool RangeSim::bufferElement() {
  const std::vector<int> &Params = Form.ReduceOp.Params;
  for (size_t E = Acc.size(); E < Params.size(); ++E) {
    if (!isScalar(Params[E]))
      return fail("a gridless fold range buffers scalars only");
    FoldArgs.push_back(F[Params[E]].S);
  }
  return true;
}

bool RangeSim::fold(RangeSim &O) {
  const std::vector<int> &Params = Form.ReduceOp.Params;
  for (size_t X = 0; X < O.FoldArgs.size();) {
    for (size_t E = Acc.size(); E < Params.size(); ++E)
      F[Params[E]].setScalar(O.FoldArgs[X++]);
    KS_CHECK(applyOperator());
  }
  return true;
}

bool RangeSim::absorb(RangeSim &O) {
  if (OutBudgetBytes >= 0 &&
      OutBytesSoFar + O.OutBytesSoFar > OutBudgetBytes)
    return false;
  for (size_t J = 0; J < Cols.size(); ++J)
    if (!Cols[J].canTake(O.Cols[J]))
      return false;
  for (size_t J = 0; J < Cols.size(); ++J)
    Cols[J].take(std::move(O.Cols[J]));
  for (LaneGroup &G : O.Shared) {
    for (size_t L = 0; L < G.Ops.size(); ++L) {
      if (NumLanes == Lanes.size()) {
        Lanes.emplace_back();
        LaneOps.push_back(0);
      }
      Lanes[NumLanes] = std::move(G.Traces[L]);
      LaneOps[NumLanes++] = G.Ops[L];
    }
    if (G.EndsWarp)
      mergeWarp();
  }
  for (int64_t CostReport::*C : kRangeCharges)
    Cost.*C += O.Cost.*C;
  Prof.add(O.Prof);
  OutBytesSoFar += O.OutBytesSoFar;
  WarpOps += O.WarpOps;
  return true;
}

bool RangeSim::finish(std::vector<Value> &Out) {
  const std::vector<int64_t> &Grid = Form.Grid;
  if (K.Op == KernelExp::OpKind::ThreadBody) {
    for (size_t J = 0; J < Cols.size(); ++J) {
      TVal Col;
      if (Form.GridSize == 0)
        Out.push_back(Value::array(K.RetTypes[J].elemKind(), Grid, {}));
      else if (takeColumn(Cols[J], Grid, Col))
        Out.push_back(std::move(Col.A));
      else
        return false;
    }
    return true;
  }

  bool IsScan = K.Op == KernelExp::OpKind::SegScan;
  for (size_t J = 0; J < Cols.size(); ++J) {
    std::vector<int64_t> Shape = Grid;
    if (Grid.empty() && !IsScan) {
      Out.push_back(Acc[J].value());
      continue;
    }
    if (!Grid.empty() && Form.GridSize == 0) {
      Out.push_back(Value::array(K.RetTypes[J].elemKind(), Grid, {}));
      continue;
    }
    if (IsScan && Form.SegSize == 0) {
      Shape.push_back(0);
      Out.push_back(Value::array(Form.Neutral[J].elemKind(), Shape, {}));
      continue;
    }
    if (IsScan)
      Shape.push_back(Form.SegSize);
    TVal Col;
    KS_CHECK(takeColumn(Cols[J], Shape, Col));
    Out.push_back(std::move(Col.A));
  }
  return true;
}

bool RangeSim::runSegHist(std::vector<Value> &Out) {
  // One thread per input element; a sharded launch covers only the
  // [OuterOffset, OuterOffset + OuterCount) element window.  Device 0 (or
  // the only device) folds into the destination itself; other shards fold
  // into a neutral-filled partial the caller merges with the operator.
  int64_t Threads = Form.GridSize;
  int64_t W = Form.HistWidth;
  const Value &Dest = *Form.HistDest;
  ScalarKind EK = Dest.elemKind();
  int64_t EB = elemBytes(EK);

  std::vector<PrimValue> Bins;
  if (Form.OuterOffset == 0) {
    Bins = Dest.flat();
    // Priming the bins reads the whole destination once, coalesced.
    int64_t InitTx = (W * EB + P.SegmentBytes - 1) / P.SegmentBytes;
    Cost.GlobalAccesses += W;
    Cost.GlobalTransactions += InitTx;
    Cost.CoalescedTransactions += InitTx;
  } else {
    Bins.assign(static_cast<size_t>(W), Form.HistNeutral);
  }

  // Lowering strategy (bit-identical results either way, different cost
  // profile): narrow histograms keep a subhistogram per workgroup in local
  // memory and merge once at the end; wide ones use global atomics whose
  // cost grows with same-segment conflicts inside a warp batch.
  const bool UseLocal = W <= P.HistLocalWidthMax;
  int64_t NumGroups =
      (Threads + P.WorkgroupSize - 1) / std::max(1, P.WorkgroupSize);

  // Global-atomic strategy: batch the destination segments one warp's
  // updates hit; unique segments each cost a transaction, extra lanes on
  // an already-hit segment serialise as conflicts.
  std::vector<int64_t> WarpSegs;
  auto FlushAtomics = [&] {
    if (WarpSegs.empty())
      return;
    int64_t Lanes = static_cast<int64_t>(WarpSegs.size());
    std::sort(WarpSegs.begin(), WarpSegs.end());
    int64_t Unique = std::unique(WarpSegs.begin(), WarpSegs.end()) -
                     WarpSegs.begin();
    Cost.AtomicTransactions += Unique;
    Cost.AtomicConflicts += Lanes - Unique;
    WarpSegs.clear();
  };

  // Local-subhistogram strategy: the simulator knows which scratchpad bin
  // every lane updates, so bank conflicts are observable on this path —
  // lanes of one warp batch whose bins share a bank serialise.  Profile
  // only (the pipeline cost model charges it); the roofline charge stays
  // the plain scratchpad access count.
  std::vector<int64_t> WarpBanks;
  auto FlushBanks = [&] {
    if (WarpBanks.empty())
      return;
    int64_t Lanes = static_cast<int64_t>(WarpBanks.size());
    std::sort(WarpBanks.begin(), WarpBanks.end());
    int64_t Unique = std::unique(WarpBanks.begin(), WarpBanks.end()) -
                     WarpBanks.begin();
    Prof.BankConflictExtra += Lanes - Unique;
    WarpBanks.clear();
  };

  const RLambda &Op = Form.ReduceOp;
  const RBody &Body = Form.ThreadBody;
  std::vector<int64_t> Idx(Form.Grid.size(), 0);
  TVal BinV, Val, Comb;
  for (int64_t T = 0; T < Threads; ++T) {
    openLane();
    setThreadIndices(Idx);
    KS_CHECK(exec(Body));
    if (Body.Result.size() != 2)
      return fail("seghist thread result arity mismatch");
    KS_CHECK(force(Body.Result[0], BinV));
    KS_CHECK(force(Body.Result[1], Val));
    if (!BinV.is(TVal::Tag::Scalar) || !Val.is(TVal::Tag::Scalar))
      return fail("seghist thread body must produce (bin, value)");
    int64_t Bin = BinV.S.asInt64();
    // The value is computed before the bounds check (matching the
    // interpreter); out-of-range bins update nothing.
    if (Bin >= 0 && Bin < W) {
      if (Op.Params.size() != 2)
        return fail("lambda arity mismatch: expected " +
                    std::to_string(Op.Params.size()) + " arguments, got 2");
      F[Op.Params[0]].setScalar(Bins[Bin]);
      F[Op.Params[1]].setScalar(Val.S);
      KS_CHECK(callOperator(Op));
      if (Op.Body.Result.size() != 1)
        return fail("seghist operator must produce one scalar");
      KS_CHECK(force(Op.Body.Result[0], Comb));
      if (!Comb.is(TVal::Tag::Scalar))
        return fail("seghist operator must produce one scalar");
      Bins[static_cast<size_t>(Bin)] = Comb.S;
      Cost.ComputeOps += Form.ReduceFnOps;
      if (UseLocal) {
        Cost.LocalAccesses += 2; // scratchpad read-modify-write
        WarpBanks.push_back(Bin % std::max(1, P.LocalMemBanks));
      } else {
        WarpSegs.push_back(Bin * EB / P.SegmentBytes);
      }
    }

    if (NumLanes == static_cast<size_t>(P.WarpSize) || T == Threads - 1) {
      mergeWarp();
      FlushAtomics();
      FlushBanks();
    }
    advance(Idx, Form.Grid);
  }
  Trace = nullptr;
  FlushAtomics();
  FlushBanks();

  // Local strategy: each workgroup flushes its subhistogram into the
  // global one with a coalesced atomic pass over all W bins (consecutive
  // lanes hit consecutive bins, so there are no same-segment conflicts).
  if (UseLocal && Threads > 0) {
    int64_t MergeTx = (W * EB + P.SegmentBytes - 1) / P.SegmentBytes;
    Cost.AtomicTransactions += NumGroups * MergeTx;
  }

  KS_CHECK(chargeOutput(W, EK));
  Out.push_back(Value::array(EK, {W}, std::move(Bins)));
  return true;
}

//===----------------------------------------------------------------------===//
// Warp ranges
//===----------------------------------------------------------------------===//

/// A launch's estimates are the ops, and the ops plus global accesses, its
/// first lanes charged, scaled to all its lanes.  It splits when the ops
/// plus accesses reach kSplitOps; its later lanes then run as about one
/// range per kRangeOps ops, and in at most kMaxRanges ranges.  Nothing
/// here depends on the host, so a launch always splits the same way.
constexpr int64_t kRangeOps = 4096;
constexpr int64_t kSplitOps = 4 * kRangeOps;
constexpr int64_t kMaxRanges = 32;

/// The lanes a launch runs on its first range before it estimates: one
/// segment of a launch with a grid, whose lanes are whole sequential
/// folds, and otherwise one warp.  Under DeviceParams::ForceSplitRanges,
/// one lane.
int64_t probeLanes(const DeviceParams &P, const KernelExp &K,
                   const ResolvedForm &Form) {
  if (P.ForceSplitRanges)
    return std::min<int64_t>(Form.Units, 1);
  bool LanesAreSegments = K.isSegmented() && !Form.Gridless;
  return std::min<int64_t>(Form.Units, LanesAreSegments ? 1 : P.WarpSize);
}

/// The number of ranges lanes [Probed, Units) run as, given the ops and
/// global accesses of lanes [0, Probed), or 0 to run them on the first
/// range.
int64_t rangesFor(int64_t ProbeOps, int64_t ProbeAccesses, int64_t Probed,
                  int64_t Units) {
  if (Probed == 0)
    return 0;
  if ((ProbeOps + ProbeAccesses) * Units / Probed < kSplitOps)
    return 0;
  int64_t Ops = ProbeOps * Units / Probed;
  int64_t N = std::min({Units - Probed, kMaxRanges, Ops / kRangeOps});
  return N < 2 ? 0 : N;
}

/// The number of ranges lanes [Probed, Units) run as under
/// DeviceParams::ForceSplitRanges: ranges of WarpSize - 1 lanes.
int64_t forcedRanges(const DeviceParams &P, int64_t Probed, int64_t Units) {
  int64_t Lanes = std::max(1, P.WarpSize - 1);
  return (Units - Probed + Lanes - 1) / Lanes;
}

/// A gridless fold's ranges buffer their element results until the first
/// range folds them, so only a fold of scalars splits: the buffer then
/// holds one scalar per element and result.
bool foldsScalars(const ResolvedForm &Form) {
  return std::all_of(Form.Neutral.begin(), Form.Neutral.end(),
                     [](const TVal &N) { return N.is(TVal::Tag::Scalar); });
}

/// A range run on the pool: its own charges and its simulation.
struct PoolRange {
  CostReport Cost;
  RangeSim Sim;
  bool Ok = false;
  PoolRange(const RangeSim &First, int64_t Rows) : Sim(First, Cost, Rows) {}
};

/// Runs the lanes of a thread-body or segmented launch on \p First.  The
/// first lanes run first; when the launch is large enough, the remaining
/// lanes run as ranges on the pool and \p First absorbs them in lane
/// order once all have finished.  Ranges are cut at warp boundaries when
/// every range gets a warp, and inside warps otherwise.  A gridless fold's
/// ranges run only their elements' bodies, and \p First applies the
/// operator to their results in element order.  A range that failed or
/// cannot be absorbed runs again on \p First, where it meets exactly what
/// the sequential order meets: the first failing lane (body or operator),
/// the byte count of a memory-budget overrun, or an irregular row.
/// \p Chunks receives the number of ranges.
bool runRanges(const DeviceParams &P, const KernelExp &K,
               const ResolvedForm &Form, RangeSim &First, int &Chunks) {
  int64_t Units = Form.Units;
  int64_t Probed = probeLanes(P, K, Form);
  int64_t OpsBefore = First.computeOps();
  int64_t AccessesBefore = First.globalAccesses();
  First.beginLaunch();
  if (!First.runLanes(0, Probed))
    return false;
  int64_t N = 0;
  if (!Form.Gridless || foldsScalars(Form))
    N = P.ForceSplitRanges
            ? forcedRanges(P, Probed, Units)
            : rangesFor(First.computeOps() - OpsBefore,
                        First.globalAccesses() - AccessesBefore, Probed,
                        Units);
  if (N == 0)
    return First.runLanes(Probed, Units) && First.endLaunch();

  Chunks = static_cast<int>(N + 1);
  int64_t Warp = P.WarpSize, Rest = Units - Probed;
  bool Aligned = Rest >= N * Warp;
  auto Begin = [&](int64_t I) {
    if (I == N)
      return Units;
    int64_t B = Probed + I * Rest / N;
    return I > 0 && Aligned ? B / Warp * Warp : B;
  };
  std::vector<std::unique_ptr<PoolRange>> Ranges(N);
  runOnPool(static_cast<size_t>(N), [&](size_t I) {
    int64_t B = Begin(I), E = Begin(I + 1);
    Ranges[I] = std::make_unique<PoolRange>(First, E - B);
    Ranges[I]->Ok = Ranges[I]->Sim.runDetached(B, E);
  });
  for (int64_t I = 0; I < N; ++I) {
    PoolRange &R = *Ranges[I];
    bool Absorbed = R.Ok && First.absorb(R.Sim);
    if (!(Absorbed ? First.fold(R.Sim)
                   : First.runLanes(Begin(I), Begin(I + 1))))
      return false;
    Ranges[I].reset();
  }
  return First.endLaunch();
}

} // namespace

ErrorOr<KernelLaunch> fut::gpusim::simulateKernel(
    const DeviceParams &P, const KernelExp &K, const EnvView &HostEnv,
    CostReport &Cost, int &Chunks, int64_t OutBudgetBytes,
    int64_t OuterOffset, int64_t OuterCount) {
  Chunks = 1;
  ResolvedForm Form;
  std::vector<TVal> Frame;
  if (auto E = Resolver(K, HostEnv, Form, Frame).run(OuterOffset, OuterCount))
    return E.getError();
  RangeSim First(P, K, Form, Cost, OutBudgetBytes, std::move(Frame));
  KernelLaunch L;
  bool Ok = K.Op == KernelExp::OpKind::SegHist
                ? First.runSegHist(L.Outputs)
                : runRanges(P, K, Form, First, Chunks) &&
                      First.finish(L.Outputs);
  if (!Ok)
    return First.error();
  L.OutBytes = First.outBytes();
  L.Profile = First.profile();
  L.WarpOps = First.warpOps();
  return L;
}
