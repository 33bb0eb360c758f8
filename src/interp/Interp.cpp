//===- Interp.cpp - Reference interpreter -----------------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "ir/Traversal.h"

#include <algorithm>
#include <iterator>

using namespace fut;

namespace {

/// Assembles an array from its rows, added one at a time and copied into
/// the array's elements as they come, so that no row outlives its add.
/// An irregular row is reported by finish, after all rows were added.
class ArrayAssembler {
  std::vector<PrimValue> Data;
  std::vector<int64_t> RowShape;
  ScalarKind Kind = ScalarKind::I32;
  int64_t Rows = 0, Expected;
  bool ScalarRows = false, Irregular = false;

public:
  explicit ArrayAssembler(int64_t Expected = 0) : Expected(Expected) {}

  void add(const Value &V) {
    if (Rows++ == 0) {
      ScalarRows = V.isScalar();
      Kind = V.elemKind();
      if (!ScalarRows)
        RowShape = V.shape();
      Data.reserve(Expected * (ScalarRows ? 1 : V.numElems()));
    }
    if (Irregular)
      return;
    if (ScalarRows) {
      if (!V.isScalar() || V.getScalar().kind() != Kind)
        Irregular = true;
      else
        Data.push_back(V.getScalar());
      return;
    }
    if (V.isScalar() || V.shape() != RowShape || V.elemKind() != Kind)
      Irregular = true;
    else
      Data.insert(Data.end(), V.flat().begin(), V.flat().end());
  }

  ErrorOr<Value> finish() {
    if (Rows == 0)
      return CompilerError::runtime(
          "cannot assemble an empty array without an element type");
    if (Irregular)
      return CompilerError(ScalarRows
                               ? "irregular array: element kind mismatch"
                               : "irregular array: all rows must have the "
                                 "same shape");
    std::vector<int64_t> Shape;
    Shape.push_back(Rows);
    Shape.insert(Shape.end(), RowShape.begin(), RowShape.end());
    return Value::array(Kind, std::move(Shape), std::move(Data));
  }
};

} // namespace

ErrorOr<Value> fut::assembleArray(const std::vector<Value> &Elems) {
  ArrayAssembler A(static_cast<int64_t>(Elems.size()));
  for (const Value &V : Elems)
    A.add(V);
  return A.finish();
}

ErrorOr<Value> fut::concatValues(const std::vector<Value> &Vs) {
  if (Vs.empty())
    return CompilerError::runtime("cannot concat zero arrays");
  const Value &First = Vs.front();
  if (First.isScalar())
    return CompilerError("cannot concat scalars");
  std::vector<int64_t> Inner(First.shape().begin() + 1, First.shape().end());
  int64_t Outer = 0;
  std::vector<PrimValue> Data;
  for (const Value &V : Vs) {
    if (V.isScalar() || V.elemKind() != First.elemKind())
      return CompilerError("concat: element kind mismatch");
    std::vector<int64_t> VInner(V.shape().begin() + 1, V.shape().end());
    if (VInner != Inner)
      return CompilerError("concat: inner shapes differ");
    Outer += V.outerSize();
    Data.insert(Data.end(), V.flat().begin(), V.flat().end());
  }
  std::vector<int64_t> Shape;
  Shape.push_back(Outer);
  Shape.insert(Shape.end(), Inner.begin(), Inner.end());
  return Value::array(First.elemKind(), std::move(Shape), std::move(Data));
}

//===----------------------------------------------------------------------===//
// The resolved form
//===----------------------------------------------------------------------===//

namespace fut {

/// An operand resolved once: a constant, or the slot of a variable.
struct InterpOperand {
  Value Const;                ///< The constant, when Var is null.
  const VName *Var = nullptr; ///< The variable, named in errors.
  int32_t Slot = -1;          ///< -1 when the function binds no such name.
};

/// A name the interpreter binds (a parameter, a pattern element, a loop or
/// thread index), resolved once.
struct InterpBinding {
  const Param *P = nullptr; ///< Null for loop and thread indices.
  int32_t Slot = -1;
  bool Scalar = true; ///< No declared array type to check the value against.
  /// Not in the function's own body: any dimension it binds is logged.
  bool Nested = false;
  /// Saves the slot's previous binding in the undo log.  Only a nested
  /// binding of a name that the function binds elsewhere too can shadow one.
  bool Logged = false;
  std::vector<InterpOperand> Dims; ///< P's shape, when it is an array.
};

struct InterpStm;

struct InterpBody {
  std::vector<InterpStm> Stms;
  std::vector<InterpOperand> Result;
  /// The slots that this body, or its owner for it, binds without logging.
  /// Nothing else binds them, so the body's exit just clears them.
  std::vector<int32_t> Clear;
};

struct InterpLambda {
  std::vector<InterpBinding> Params;
  InterpBody B;
};

/// An expression's operands, bindings, bodies and lambdas, in the order
/// Resolver::exp lists for each kind.
struct InterpExp {
  std::vector<InterpOperand> Ops;
  std::vector<InterpBinding> Binds;
  std::vector<InterpBody> Bodies;
  std::vector<InterpLambda> Fns;
  /// An application's callee, by index in Prog.Funs; -1 when unknown.
  int32_t Callee = -1;
  /// The loop initialisers that are the last use of their variable, and so
  /// move into their merge parameter.
  std::vector<bool> Movable;
};

struct InterpStm {
  const Stm *S = nullptr;
  std::vector<InterpBinding> Pat;
  InterpExp X;
};

/// The dense slot numbering of one function (or closed lambda): every name
/// it binds gets a slot once.  EnvView::find looks a name up by its tag, or
/// by a hash of the whole name when it is untagged or shares its tag with
/// another bound name.
struct InterpLayout {
  NameMap<int32_t> ByName;
  int32_t MinTag = 0;
  /// Tag - MinTag -> slot; -1 when no bound name has the tag, -2 when two
  /// do.
  std::vector<int32_t> ByTag;
  /// The base of the name bound to each slot, so that a tag hit on a name
  /// the function does not bind is told apart from the bound one.
  std::vector<std::string> SlotBase;
  /// How many places bind each slot.
  std::vector<int32_t> Sites;

  int32_t numSlots() const { return static_cast<int32_t>(ByName.size()); }

  /// The slot of \p N, or -1 when this function binds no such name.
  int32_t slotOf(const VName &N) const {
    int64_t I = static_cast<int64_t>(N.Tag) - MinTag;
    if (N.Tag >= 0 && I >= 0 && I < static_cast<int64_t>(ByTag.size()) &&
        ByTag[I] != -2) {
      int32_t S = ByTag[I];
      return S >= 0 && SlotBase[S] == N.Base ? S : -1;
    }
    auto It = ByName.find(N);
    return It == ByName.end() ? -1 : It->second;
  }
};

/// A function or closed lambda resolved against its layout.
struct InterpFunction {
  InterpLayout L;
  InterpLambda Fn;
};

/// One activation of a function.
class InterpFrame final : public EnvView {
  struct Undo {
    int32_t Slot;
    int32_t OldLevel;
    Value Old;
  };

public:
  const InterpLayout &L;
  std::vector<Value> Slots;
  /// The level each slot was bound at, or -1 when it is unbound.
  std::vector<int32_t> BoundAt;
  std::vector<Undo> Log;
  /// Statement results on their way into their pattern's slots.
  std::vector<Value> Results;
  /// How many repeated bodies (loop iterations, lambda calls, kernel
  /// threads) enclose the code being evaluated.
  int32_t Level = 0;

  explicit InterpFrame(const InterpLayout &L)
      : L(L), Slots(L.numSlots()), BoundAt(L.numSlots(), -1) {}

  const Value *find(const VName &N) const override {
    int32_t S = L.slotOf(N);
    return S >= 0 && BoundAt[S] >= 0 ? &Slots[S] : nullptr;
  }

  /// The value of \p O, or null when it is unbound.
  const Value *get(const InterpOperand &O) const {
    if (!O.Var)
      return &O.Const;
    return bound(O.Slot) ? &Slots[O.Slot] : nullptr;
  }

  bool bound(int32_t S) const { return S >= 0 && BoundAt[S] >= 0; }

  /// Binds slot \p S, first saving its binding when \p Logged.
  void bind(int32_t S, bool Logged, Value &&V) {
    if (Logged)
      save(S);
    Slots[S] = std::move(V);
    BoundAt[S] = Level;
  }

  void bindScalar(int32_t S, bool Logged, PrimValue V) {
    if (Logged)
      save(S);
    Value &Slot = Slots[S];
    if (Slot.isScalar())
      Slot.setScalar(V);
    else
      Slot = Value::scalar(V);
    BoundAt[S] = Level;
  }

  /// Consumes bound slot \p S.  A slot bound inside the innermost repeated
  /// body is moved out, so its payload is no longer shared with the frame.
  /// One bound outside it must survive for the body's next run, so only a
  /// shared copy is handed out, and mutating it copies (counted by
  /// Interpreter::copiedConsumes); the uniqueness checker rejects the
  /// programs that reach this case, but kernel thread bodies are not
  /// checked.
  Value take(int32_t S) {
    if (BoundAt[S] != Level)
      return Slots[S];
    BoundAt[S] = -1;
    return std::move(Slots[S]);
  }

  size_t mark() const { return Log.size(); }

  /// Ends body \p B: restores what its logged bindings shadowed and clears
  /// the rest of its bindings.
  void exit(const InterpBody &B, size_t Mark) {
    while (Log.size() > Mark) {
      Undo &U = Log.back();
      Slots[U.Slot] = std::move(U.Old);
      BoundAt[U.Slot] = U.OldLevel;
      Log.pop_back();
    }
    for (int32_t S : B.Clear) {
      BoundAt[S] = -1;
      if (Slots[S].isArray())
        Slots[S] = Value();
    }
  }

private:
  void save(int32_t S) {
    Log.push_back(
        {S, BoundAt[S], BoundAt[S] >= 0 ? std::move(Slots[S]) : Value()});
  }
};

} // namespace fut

namespace {

/// Resolves a function or closed lambda in two passes.  The first numbers
/// the names it binds, counts the places that bind each, and finds the
/// loop initialisers that may move into their merge parameter; the second
/// turns every operand and binding into a slot or a constant.  Kernel
/// bodies are skipped when a HandleKernel hook runs the kernels: their
/// names are never bound in the host frame.
class Resolver {
  InterpLayout &L;
  const Program &Prog;
  bool Kernels;
  std::unordered_map<const LoopExp *, std::vector<bool>> MovableInits;

public:
  Resolver(InterpLayout &L, const Program &Prog, bool Kernels)
      : L(L), Prog(Prog), Kernels(Kernels) {}

  void function(const FunDef &F, InterpLambda &Out) {
    for (const Param &P : F.Params)
      numberParam(P);
    numberBody(F.FBody, paramNames(F.Params));
    finish();
    for (const Param &P : F.Params)
      Out.Params.push_back(binding(P, false, nullptr));
    Out.B = body(F.FBody, false, {});
  }

  void closedLambda(const Lambda &Fn, InterpLambda &Out) {
    numberLambda(Fn);
    finish();
    Out = lambda(Fn);
  }

private:
  static std::vector<VName> paramNames(const std::vector<Param> &Ps) {
    std::vector<VName> Out;
    for (const Param &P : Ps)
      Out.push_back(P.Name);
    return Out;
  }

  //===--- Numbering ------------------------------------------------------===//

  void number(const VName &N) {
    auto It = L.ByName.emplace(N, static_cast<int32_t>(L.ByName.size())).first;
    if (static_cast<size_t>(It->second) >= L.Sites.size())
      L.Sites.resize(It->second + 1, 0);
    ++L.Sites[It->second];
  }

  /// A parameter binds its name and the unbound variables of its shape.
  void numberParam(const Param &P) {
    number(P.Name);
    for (const Dim &D : P.Ty.shape())
      if (D.isVar())
        number(D.getVar());
  }

  void numberLambda(const Lambda &Fn) {
    for (const Param &P : Fn.Params)
      numberParam(P);
    numberBody(Fn.B, paramNames(Fn.Params));
  }

  /// \p Owner are the names the body's owner binds for it.
  void numberBody(const Body &B, const std::vector<VName> &Owner) {
    for (const Stm &S : B.Stms) {
      numberExp(*S.E);
      for (const Param &P : S.Pat)
        numberParam(P);
    }
    findLastUseInits(B, Owner);
  }

  void numberExp(const Exp &E) {
    switch (E.kind()) {
    case ExpKind::If: {
      const auto *X = expCast<IfExp>(&E);
      numberBody(X->Then, {});
      numberBody(X->Else, {});
      return;
    }
    case ExpKind::Loop: {
      const auto *X = expCast<LoopExp>(&E);
      for (const Param &P : X->MergeParams)
        numberParam(P);
      number(X->IndexVar);
      std::vector<VName> Owner = paramNames(X->MergeParams);
      Owner.push_back(X->IndexVar);
      numberBody(X->LoopBody, Owner);
      return;
    }
    case ExpKind::Map:
      numberLambda(expCast<MapExp>(&E)->Fn);
      return;
    case ExpKind::Reduce:
      numberLambda(expCast<ReduceExp>(&E)->Fn);
      return;
    case ExpKind::Scan:
      numberLambda(expCast<ScanExp>(&E)->Fn);
      return;
    case ExpKind::ReduceByIndex: {
      const auto *X = expCast<ReduceByIndexExp>(&E);
      numberLambda(X->CombineFn);
      numberLambda(X->ValueFn);
      return;
    }
    case ExpKind::Stream: {
      const auto *X = expCast<StreamExp>(&E);
      numberLambda(X->ReduceFn);
      numberLambda(X->FoldFn);
      return;
    }
    case ExpKind::Kernel: {
      if (!Kernels)
        return;
      const auto *X = expCast<KernelExp>(&E);
      std::vector<VName> Owner = X->ThreadIndices;
      if (X->isSegmented())
        Owner.push_back(X->SegIndex);
      for (const VName &N : Owner)
        number(N);
      numberLambda(X->ReduceFn);
      numberBody(X->ThreadBody, Owner);
      return;
    }
    default:
      return;
    }
  }

  /// A loop initialiser may move into its merge parameter when it is the
  /// last use of its variable: the variable is bound in \p B or by its
  /// owner, the loop uses it only there, and no later statement and not the
  /// result uses it.
  void findLastUseInits(const Body &B, const std::vector<VName> &Owner) {
    bool AnyVarInit = false;
    for (const Stm &S : B.Stms)
      if (const auto *X = expDynCast<LoopExp>(S.E.get()))
        for (const SubExp &I : X->MergeInit)
          AnyVarInit |= I.isVar();
    if (!AnyVarInit)
      return;
    NameSet Local(Owner.begin(), Owner.end());
    for (const Stm &S : B.Stms)
      for (const Param &P : S.Pat)
        Local.insert(P.Name);
    NameSet UsedAfter;
    for (const SubExp &R : B.Result)
      if (R.isVar())
        UsedAfter.insert(R.getVar());
    for (size_t I = B.Stms.size(); I-- > 0;) {
      const Exp &E = *B.Stms[I].E;
      if (const auto *X = expDynCast<LoopExp>(&E))
        markMovable(*X, Local, UsedAfter);
      NameSet Free = freeVarsInExp(E);
      UsedAfter.insert(Free.begin(), Free.end());
    }
  }

  void markMovable(const LoopExp &X, const NameSet &Local,
                   const NameSet &UsedAfter) {
    std::vector<bool> Movable(X.MergeInit.size(), false);
    bool Any = false;
    NameSet InBody = freeVarsInBody(X.LoopBody);
    if (X.Bound.isVar())
      InBody.insert(X.Bound.getVar());
    for (size_t J = 0; J < X.MergeInit.size(); ++J) {
      if (!X.MergeInit[J].isVar())
        continue;
      const VName &V = X.MergeInit[J].getVar();
      if (!Local.count(V) || UsedAfter.count(V) || InBody.count(V))
        continue;
      size_t Uses = 0;
      for (const SubExp &I : X.MergeInit)
        Uses += I.isVar() && I.getVar() == V;
      if (Uses != 1)
        continue;
      Movable[J] = Any = true;
    }
    if (Any)
      MovableInits[&X] = std::move(Movable);
  }

  /// Builds the tag index and records each slot's base name.
  void finish() {
    int64_t MinT = INT32_MAX, MaxT = -1;
    L.SlotBase.resize(L.ByName.size());
    for (const auto &KV : L.ByName) {
      L.SlotBase[KV.second] = KV.first.Base;
      if (KV.first.Tag >= 0) {
        MinT = std::min<int64_t>(MinT, KV.first.Tag);
        MaxT = std::max<int64_t>(MaxT, KV.first.Tag);
      }
    }
    if (MaxT < 0)
      return;
    L.MinTag = static_cast<int32_t>(MinT);
    L.ByTag.assign(static_cast<size_t>(MaxT - MinT + 1), -1);
    for (const auto &KV : L.ByName) {
      if (KV.first.Tag < 0)
        continue;
      int32_t &Slot = L.ByTag[KV.first.Tag - MinT];
      Slot = Slot == -1 ? KV.second : -2;
    }
  }

  //===--- Resolving ------------------------------------------------------===//

  InterpOperand var(const VName &N) const {
    InterpOperand O;
    O.Var = &N;
    O.Slot = L.slotOf(N);
    return O;
  }

  InterpOperand sub(const SubExp &S) const {
    if (S.isVar())
      return var(S.getVar());
    InterpOperand O;
    O.Const = Value::scalar(S.getConst());
    return O;
  }

  void subs(const std::vector<SubExp> &Ss, std::vector<InterpOperand> &Out) {
    for (const SubExp &S : Ss)
      Out.push_back(sub(S));
  }

  void vars(const std::vector<VName> &Ns, std::vector<InterpOperand> &Out) {
    for (const VName &N : Ns)
      Out.push_back(var(N));
  }

  /// The binding of \p N.  A nested binding of a name bound nowhere else
  /// goes on \p Clear; one of a name bound elsewhere too is logged.
  InterpBinding binding(const VName &N, bool Nested,
                        std::vector<int32_t> *Clear) {
    InterpBinding B;
    B.Slot = L.slotOf(N);
    B.Nested = Nested;
    B.Logged = Nested && L.Sites[B.Slot] > 1;
    if (Nested && !B.Logged)
      Clear->push_back(B.Slot);
    return B;
  }

  InterpBinding binding(const Param &P, bool Nested,
                        std::vector<int32_t> *Clear) {
    InterpBinding B = binding(P.Name, Nested, Clear);
    B.P = &P;
    B.Scalar = P.Ty.isScalar();
    if (!B.Scalar)
      for (const Dim &D : P.Ty.shape())
        B.Dims.push_back(sub(D));
    return B;
  }

  /// \p Clear holds what the body's owner binds for it.
  InterpBody body(const Body &B, bool Nested, std::vector<int32_t> Clear) {
    InterpBody Out;
    Out.Clear = std::move(Clear);
    for (const Stm &S : B.Stms) {
      InterpStm R;
      R.S = &S;
      R.X = exp(*S.E);
      for (const Param &P : S.Pat)
        R.Pat.push_back(binding(P, Nested, &Out.Clear));
      Out.Stms.push_back(std::move(R));
    }
    subs(B.Result, Out.Result);
    return Out;
  }

  InterpLambda lambda(const Lambda &Fn) {
    InterpLambda Out;
    std::vector<int32_t> Clear;
    for (const Param &P : Fn.Params)
      Out.Params.push_back(binding(P, true, &Clear));
    Out.B = body(Fn.B, true, std::move(Clear));
    return Out;
  }

  /// The operands of each kind, in order:
  ///   SubExp, BinOp, UnOp, ConvOp: the operands.  If: the condition.
  ///   Index: array, indices.  Apply: arguments.  Loop: bound, initialisers.
  ///   Update: array, value, indices.  Iota: length.  Replicate: count,
  ///   value.  Rearrange, Copy: array.  Reshape: array, shape.  Concat:
  ///   arrays.  Slice: array, offset, length, stride.  Map: width, arrays.
  ///   Reduce, Scan: width, neutral elements, arrays.  ReduceByIndex:
  ///   width, destination, indices, value arrays.  Stream: width,
  ///   accumulator initialisers, arrays.  Kernel: grid, neutral elements,
  ///   histogram width and destination, segment size.
  /// Loops bind their merge parameters, then the index; kernels their
  /// thread indices, then the segment index.
  InterpExp exp(const Exp &E) {
    InterpExp X;
    switch (E.kind()) {
    case ExpKind::SubExpE:
      X.Ops.push_back(sub(expCast<SubExpExp>(&E)->Val));
      break;
    case ExpKind::BinOpE: {
      const auto *B = expCast<BinOpExp>(&E);
      X.Ops = {sub(B->A), sub(B->B)};
      break;
    }
    case ExpKind::UnOpE:
      X.Ops.push_back(sub(expCast<UnOpExp>(&E)->A));
      break;
    case ExpKind::ConvOpE:
      X.Ops.push_back(sub(expCast<ConvOpExp>(&E)->A));
      break;
    case ExpKind::If: {
      const auto *I = expCast<IfExp>(&E);
      X.Ops.push_back(sub(I->Cond));
      X.Bodies.push_back(body(I->Then, true, {}));
      X.Bodies.push_back(body(I->Else, true, {}));
      break;
    }
    case ExpKind::Index: {
      const auto *I = expCast<IndexExp>(&E);
      X.Ops.push_back(var(I->Arr));
      subs(I->Indices, X.Ops);
      break;
    }
    case ExpKind::Apply: {
      const auto *A = expCast<ApplyExp>(&E);
      subs(A->Args, X.Ops);
      if (const FunDef *Fn = Prog.findFun(A->Func))
        X.Callee = static_cast<int32_t>(Fn - Prog.Funs.data());
      break;
    }
    case ExpKind::Loop: {
      const auto *Lp = expCast<LoopExp>(&E);
      X.Ops.push_back(sub(Lp->Bound));
      subs(Lp->MergeInit, X.Ops);
      std::vector<int32_t> Clear;
      for (const Param &P : Lp->MergeParams)
        X.Binds.push_back(binding(P, true, &Clear));
      X.Binds.push_back(binding(Lp->IndexVar, true, &Clear));
      X.Bodies.push_back(body(Lp->LoopBody, true, std::move(Clear)));
      auto It = MovableInits.find(Lp);
      if (It != MovableInits.end())
        X.Movable = It->second;
      break;
    }
    case ExpKind::Update: {
      const auto *U = expCast<UpdateExp>(&E);
      X.Ops = {var(U->Arr), sub(U->Value)};
      subs(U->Indices, X.Ops);
      break;
    }
    case ExpKind::Iota:
      X.Ops.push_back(sub(expCast<IotaExp>(&E)->N));
      break;
    case ExpKind::Replicate: {
      const auto *R = expCast<ReplicateExp>(&E);
      X.Ops = {sub(R->N), sub(R->Val)};
      break;
    }
    case ExpKind::Rearrange:
      X.Ops.push_back(var(expCast<RearrangeExp>(&E)->Arr));
      break;
    case ExpKind::Reshape: {
      const auto *R = expCast<ReshapeExp>(&E);
      X.Ops.push_back(var(R->Arr));
      subs(R->NewShape, X.Ops);
      break;
    }
    case ExpKind::Concat:
      vars(expCast<ConcatExp>(&E)->Arrays, X.Ops);
      break;
    case ExpKind::Copy:
      X.Ops.push_back(var(expCast<CopyExp>(&E)->Arr));
      break;
    case ExpKind::Slice: {
      const auto *S = expCast<SliceExp>(&E);
      X.Ops = {var(S->Arr), sub(S->Offset), sub(S->Len), sub(S->Stride)};
      break;
    }
    case ExpKind::Map: {
      const auto *M = expCast<MapExp>(&E);
      X.Ops.push_back(sub(M->Width));
      vars(M->Arrays, X.Ops);
      X.Fns.push_back(lambda(M->Fn));
      break;
    }
    case ExpKind::Reduce: {
      const auto *R = expCast<ReduceExp>(&E);
      X.Ops.push_back(sub(R->Width));
      subs(R->Neutral, X.Ops);
      vars(R->Arrays, X.Ops);
      X.Fns.push_back(lambda(R->Fn));
      break;
    }
    case ExpKind::Scan: {
      const auto *S = expCast<ScanExp>(&E);
      X.Ops.push_back(sub(S->Width));
      subs(S->Neutral, X.Ops);
      vars(S->Arrays, X.Ops);
      X.Fns.push_back(lambda(S->Fn));
      break;
    }
    case ExpKind::ReduceByIndex: {
      const auto *R = expCast<ReduceByIndexExp>(&E);
      X.Ops = {sub(R->Width), var(R->Dest), var(R->IndexArr)};
      vars(R->ValueArrs, X.Ops);
      X.Fns.push_back(lambda(R->CombineFn));
      X.Fns.push_back(lambda(R->ValueFn));
      break;
    }
    case ExpKind::Stream: {
      const auto *S = expCast<StreamExp>(&E);
      X.Ops.push_back(sub(S->Width));
      subs(S->AccInit, X.Ops);
      vars(S->Arrays, X.Ops);
      X.Fns.push_back(lambda(S->ReduceFn));
      X.Fns.push_back(lambda(S->FoldFn));
      break;
    }
    case ExpKind::Kernel: {
      if (!Kernels)
        break;
      const auto *K = expCast<KernelExp>(&E);
      subs(K->GridDims, X.Ops);
      subs(K->Neutral, X.Ops);
      X.Ops.push_back(sub(K->HistWidth));
      X.Ops.push_back(var(K->HistDest));
      X.Ops.push_back(sub(K->SegSize));
      std::vector<int32_t> Clear;
      for (const VName &T : K->ThreadIndices)
        X.Binds.push_back(binding(T, true, &Clear));
      if (K->isSegmented())
        X.Binds.push_back(binding(K->SegIndex, true, &Clear));
      X.Bodies.push_back(body(K->ThreadBody, true, std::move(Clear)));
      X.Fns.push_back(lambda(K->ReduceFn));
      break;
    }
    }
    return X;
  }
};

/// The integer value of a scalar, or an error for non-scalars.
ErrorOr<int64_t> scalarInt(const Value &V, const char *What) {
  if (!V.isScalar())
    return CompilerError(std::string(What) + " must be a scalar");
  return V.getScalar().asInt64();
}

PrimValue intOfKind(ScalarKind K, int64_t V) {
  switch (K) {
  case ScalarKind::I64:
    return PrimValue::makeI64(V);
  case ScalarKind::I32:
  default:
    return PrimValue::makeI32(static_cast<int32_t>(V));
  }
}

Value i32Value(int64_t V) {
  return Value::scalar(PrimValue::makeI32(static_cast<int32_t>(V)));
}

CompilerError unbound(const VName &N) {
  return CompilerError("unbound variable " + N.str() +
                       " (possibly used after being consumed)");
}

CompilerError arityMismatch(const Exp &E, size_t Names, size_t Values) {
  return CompilerError(E.Loc, "pattern arity mismatch: " +
                                  std::to_string(Names) + " names for " +
                                  std::to_string(Values) + " values");
}

} // namespace

#define FUT_OK(EXPR)                                                           \
  do {                                                                         \
    if (!(EXPR))                                                               \
      return false;                                                            \
  } while (false)

/// Unwraps an ErrorOr into VAR, failing the step on an error.
#define FUT_GET(VAR, EXPR)                                                     \
  auto VAR##OrErr = (EXPR);                                                    \
  if (!VAR##OrErr)                                                             \
    return fail(VAR##OrErr.getError());                                        \
  auto VAR = VAR##OrErr.take();

Interpreter::Interpreter(const Program &Prog, InterpOptions Opts)
    : Prog(Prog), Opts(std::move(Opts)), Funs(Prog.Funs.size()) {}

Interpreter::~Interpreter() = default;

bool Interpreter::fail(CompilerError E) {
  Failure = std::move(E);
  return false;
}

const Value *Interpreter::value(const InterpOperand &O,
                                const InterpFrame &F) {
  const Value *V = F.get(O);
  if (!V)
    fail(unbound(*O.Var));
  return V;
}

bool Interpreter::readInt(const InterpOperand &O, const InterpFrame &F,
                          const char *What, int64_t &Out) {
  const Value *V = value(O, F);
  if (!V)
    return false;
  if (!V->isScalar())
    return fail(CompilerError(std::string(What) + " must be a scalar"));
  Out = V->getScalar().asInt64();
  return true;
}

bool Interpreter::consumeToMutate(const InterpOperand &O, InterpFrame &F,
                                  Value &Out) {
  if (!F.bound(O.Slot))
    return fail(unbound(*O.Var));
  Out = F.take(O.Slot);
  if (!Out.uniquelyHeld())
    ++CopiedConsumes;
  return true;
}

/// Binds a value and binds/checks the symbolic dimensions of its declared
/// type against the value's actual shape.
bool Interpreter::bindValue(InterpFrame &F, const InterpBinding &B,
                            Value &&V) {
  if (!B.Scalar) {
    const Param &P = *B.P;
    if (V.isScalar() || V.rank() != P.Ty.rank())
      return fail(CompilerError("value for " + P.Name.str() +
                                " has wrong rank for type " + P.Ty.str()));
    for (size_t I = 0; I < B.Dims.size(); ++I) {
      const InterpOperand &D = B.Dims[I];
      int64_t Actual = V.shape()[I];
      if (!D.Var) {
        if (D.Const.getScalar().asInt64() != Actual)
          return fail(CompilerError("shape mismatch for " + P.Name.str() +
                                    ": expected " + D.Const.getScalar().str() +
                                    ", got " + std::to_string(Actual)));
        continue;
      }
      if (!F.bound(D.Slot)) {
        F.bind(D.Slot, B.Nested, i32Value(Actual));
        continue;
      }
      const Value &Bound = F.Slots[D.Slot];
      if (!Bound.isScalar())
        return fail(CompilerError::runtime(
            "shape dimension " + D.Var->str() + " of " + P.Name.str() +
            " is bound to a non-scalar value"));
      if (Bound.getScalar().asInt64() != Actual)
        return fail(CompilerError("shape mismatch for " + P.Name.str() + ": " +
                                  D.Var->str() + " = " +
                                  Bound.getScalar().str() +
                                  " but dimension is " +
                                  std::to_string(Actual)));
    }
  }
  F.bind(B.Slot, B.Logged, std::move(V));
  return true;
}

bool Interpreter::bindScalar(InterpFrame &F, const InterpBinding &B,
                             PrimValue V) {
  if (!B.Scalar)
    return bindValue(F, B, Value::scalar(V));
  F.bindScalar(B.Slot, B.Logged, V);
  return true;
}

bool Interpreter::runBody(const InterpBody &B, InterpFrame &F,
                          std::vector<Value> &Out) {
  for (const InterpStm &S : B.Stms)
    FUT_OK(execStm(S, F));
  for (const InterpOperand &R : B.Result) {
    const Value *V = value(R, F);
    if (!V)
      return false;
    Out.push_back(*V);
  }
  return true;
}

bool Interpreter::runScoped(const InterpBody &B, InterpFrame &F,
                            std::vector<Value> &Out) {
  size_t Mark = F.mark();
  FUT_OK(runBody(B, F, Out));
  F.exit(B, Mark);
  return true;
}

bool Interpreter::callLambda(const InterpLambda &L, std::vector<Value> &Args,
                             InterpFrame &F, std::vector<Value> &Out) {
  if (Args.size() != L.Params.size())
    return fail(CompilerError("lambda arity mismatch: expected " +
                              std::to_string(L.Params.size()) +
                              " arguments, got " +
                              std::to_string(Args.size())));
  ++F.Level;
  size_t Mark = F.mark();
  for (size_t I = 0; I < Args.size(); ++I)
    FUT_OK(bindValue(F, L.Params[I], std::move(Args[I])));
  FUT_OK(runBody(L.B, F, Out));
  F.exit(L.B, Mark);
  --F.Level;
  return true;
}

bool Interpreter::callFunction(const FunDef &Fn, std::vector<Value> Args,
                               std::vector<Value> &Out) {
  if (Args.size() != Fn.Params.size())
    return fail(CompilerError("function " + Fn.Name + " expects " +
                              std::to_string(Fn.Params.size()) +
                              " arguments, got " +
                              std::to_string(Args.size())));
  size_t Idx = static_cast<size_t>(&Fn - Prog.Funs.data());
  if (Idx >= Funs.size())
    return fail(CompilerError("function " + Fn.Name +
                              " was added after the interpreter was "
                              "constructed"));
  std::unique_ptr<InterpFunction> &R = Funs[Idx];
  if (!R) {
    R = std::make_unique<InterpFunction>();
    Resolver(R->L, Prog, !Opts.HandleKernel).function(Fn, R->Fn);
  }
  InterpFrame Frame(R->L);
  for (size_t I = 0; I < Args.size(); ++I)
    FUT_OK(bindValue(Frame, R->Fn.Params[I], std::move(Args[I])));
  return runBody(R->Fn.B, Frame, Out);
}

ErrorOr<std::vector<Value>>
Interpreter::runFunction(const std::string &Name,
                         const std::vector<Value> &Args) {
  const FunDef *F = Prog.findFun(Name);
  if (!F)
    return CompilerError("unknown function " + Name);
  std::vector<Value> Out;
  if (!callFunction(*F, Args, Out))
    return std::move(Failure);
  return Out;
}

ErrorOr<std::vector<Value>> Interpreter::evalLambda(const Lambda &L,
                                                    std::vector<Value> Args) {
  std::unique_ptr<InterpFunction> &R = ClosedLambdas[&L];
  if (!R) {
    R = std::make_unique<InterpFunction>();
    Resolver(R->L, Prog, !Opts.HandleKernel).closedLambda(L, R->Fn);
  }
  InterpFrame Frame(R->L);
  std::vector<Value> Out;
  if (!callLambda(R->Fn, Args, Frame, Out))
    return std::move(Failure);
  return Out;
}

/// Evaluates one statement and binds its pattern.  Scalar operations,
/// indexing, aliasing and updates write their result straight into the
/// pattern's slot; everything else leaves its results on the frame's result
/// stack for bindResults.
bool Interpreter::execStm(const InterpStm &S, InterpFrame &F) {
  const Exp &E = *S.S->E;
  if (++Steps > Opts.MaxSteps)
    return fail(
        CompilerError::runtime(E.Loc, "interpreter step limit exceeded"));
  if (Opts.OnExp)
    Opts.OnExp(E, F);

  switch (E.kind()) {
  case ExpKind::BinOpE:
  case ExpKind::UnOpE:
  case ExpKind::ConvOpE: {
    PrimValue R;
    FUT_OK(evalScalarOp(S, F, R));
    if (S.Pat.size() != 1)
      return fail(arityMismatch(E, S.Pat.size(), 1));
    FUT_OK(bindScalar(F, S.Pat[0], R));
    break;
  }
  case ExpKind::Index: {
    PrimValue Elem;
    Value Sub;
    bool Full = false;
    FUT_OK(evalIndex(S, F, Elem, Sub, Full));
    if (S.Pat.size() != 1)
      return fail(arityMismatch(E, S.Pat.size(), 1));
    FUT_OK(Full ? bindScalar(F, S.Pat[0], Elem)
                : bindValue(F, S.Pat[0], std::move(Sub)));
    break;
  }
  case ExpKind::SubExpE: {
    const Value *V = value(S.X.Ops[0], F);
    if (!V)
      return false;
    if (S.Pat.size() != 1)
      return fail(arityMismatch(E, S.Pat.size(), 1));
    FUT_OK(V->isScalar() ? bindScalar(F, S.Pat[0], V->getScalar())
                         : bindValue(F, S.Pat[0], Value(*V)));
    break;
  }
  case ExpKind::Update: {
    Value A;
    FUT_OK(evalUpdate(S, F, A));
    if (S.Pat.size() != 1)
      return fail(arityMismatch(E, S.Pat.size(), 1));
    FUT_OK(bindValue(F, S.Pat[0], std::move(A)));
    break;
  }
  default: {
    size_t Base = F.Results.size();
    FUT_OK(evalExp(S, F, F.Results));
    return bindResults(S, F, Base);
  }
  }
  if (Opts.OnBind) {
    HookVals.push_back(F.Slots[S.Pat[0].Slot]);
    Opts.OnBind(*S.S, HookVals);
    HookVals.clear();
  }
  return true;
}

/// Binds the results a statement left on the frame's result stack above
/// \p Base.  The binding hook sees the values after binding, so it gets
/// copies; clearing them afterwards leaves each slot's payload unshared
/// again.
bool Interpreter::bindResults(const InterpStm &S, InterpFrame &F,
                              size_t Base) {
  size_t N = F.Results.size() - Base;
  if (N != S.Pat.size())
    return fail(arityMismatch(*S.S->E, S.Pat.size(), N));
  if (Opts.OnBind)
    HookVals.assign(F.Results.begin() + Base, F.Results.end());
  for (size_t I = 0; I < N; ++I)
    FUT_OK(bindValue(F, S.Pat[I], std::move(F.Results[Base + I])));
  F.Results.resize(Base);
  if (Opts.OnBind) {
    Opts.OnBind(*S.S, HookVals);
    HookVals.clear();
  }
  return true;
}

bool Interpreter::evalScalarOp(const InterpStm &S, InterpFrame &F,
                               PrimValue &R) {
  const Exp &E = *S.S->E;
  const Value *A = value(S.X.Ops[0], F);
  if (!A)
    return false;
  switch (E.kind()) {
  case ExpKind::BinOpE: {
    const Value *B = value(S.X.Ops[1], F);
    if (!B)
      return false;
    if (!A->isScalar() || !B->isScalar())
      return fail(CompilerError(E.Loc, "binop on non-scalar"));
    BinOp Op = expCast<BinOpExp>(&E)->Op;
    BinOpFault Fault = evalBinOpInto(Op, A->getScalar(), B->getScalar(), R);
    return Fault == BinOpFault::None ||
           fail(binOpError(Fault, Op, A->getScalar(), B->getScalar()));
  }
  case ExpKind::UnOpE: {
    if (!A->isScalar())
      return fail(CompilerError(E.Loc, "unop on non-scalar"));
    FUT_GET(V, evalUnOp(expCast<UnOpExp>(&E)->Op, A->getScalar()));
    R = V;
    return true;
  }
  default:
    if (!A->isScalar())
      return fail(CompilerError(E.Loc, "conversion of non-scalar"));
    R = evalConvOp(expCast<ConvOpExp>(&E)->Op, A->getScalar());
    return true;
  }
}

/// A full index yields the element in \p Elem (and sets \p Full); a
/// partial one copies the subarray into \p Sub.
bool Interpreter::evalIndex(const InterpStm &S, InterpFrame &F,
                            PrimValue &Elem, Value &Sub, bool &Full) {
  const Exp &E = *S.S->E;
  const Value *A = value(S.X.Ops[0], F);
  if (!A)
    return false;
  if (!A->isArray())
    return fail(CompilerError(E.Loc, "indexing into a scalar"));
  Idx.clear();
  for (size_t I = 1; I < S.X.Ops.size(); ++I) {
    int64_t V = 0;
    FUT_OK(readInt(S.X.Ops[I], F, "index", V));
    Idx.push_back(V);
  }
  const std::vector<int64_t> &Shape = A->shape();
  if (Idx.size() > Shape.size())
    return fail(CompilerError(E.Loc, "index rank exceeds array rank"));
  if (!A->inBounds(Idx))
    return fail(CompilerError::runtime(
        E.Loc, "index out of bounds for " + S.X.Ops[0].Var->str()));
  Full = Idx.size() == Shape.size();
  if (Full)
    Elem = A->flat()[A->flatIndex(Idx)];
  else
    Sub = A->slice(Idx);
  return true;
}

bool Interpreter::evalExp(const InterpStm &S, InterpFrame &F,
                          std::vector<Value> &Out) {
  const Exp &E = *S.S->E;
  const InterpExp &X = S.X;
  switch (E.kind()) {
  case ExpKind::If: {
    const Value *C = value(X.Ops[0], F);
    if (!C)
      return false;
    if (!C->isScalar() || C->getScalar().kind() != ScalarKind::Bool)
      return fail(CompilerError(E.Loc, "if condition is not a bool"));
    return runScoped(X.Bodies[C->getScalar().getBool() ? 0 : 1], F, Out);
  }

  case ExpKind::Apply: {
    std::vector<Value> Args;
    for (const InterpOperand &O : X.Ops) {
      const Value *V = value(O, F);
      if (!V)
        return false;
      Args.push_back(*V);
    }
    if (X.Callee < 0)
      return fail(
          CompilerError("unknown function " + expCast<ApplyExp>(&E)->Func));
    return callFunction(Prog.Funs[X.Callee], std::move(Args), Out);
  }

  case ExpKind::Loop:
    return evalLoop(S, F, Out);

  case ExpKind::Iota: {
    ScalarKind Elem = expCast<IotaExp>(&E)->Elem;
    int64_t N = 0;
    FUT_OK(readInt(X.Ops[0], F, "iota length", N));
    if (N < 0)
      return fail(CompilerError::runtime(E.Loc, "iota of negative length"));
    std::vector<PrimValue> Data;
    Data.reserve(N);
    for (int64_t I = 0; I < N; ++I)
      Data.push_back(intOfKind(Elem, I));
    Out.push_back(Value::array(Elem, {N}, std::move(Data)));
    return true;
  }

  case ExpKind::Replicate: {
    int64_t N = 0;
    FUT_OK(readInt(X.Ops[0], F, "replicate count", N));
    if (N < 0)
      return fail(
          CompilerError::runtime(E.Loc, "replicate of negative count"));
    const Value *V = value(X.Ops[1], F);
    if (!V)
      return false;
    if (V->isScalar()) {
      Out.push_back(
          Value::filledArray(V->getScalar().kind(), {N}, V->getScalar()));
      return true;
    }
    std::vector<int64_t> Shape;
    Shape.push_back(N);
    Shape.insert(Shape.end(), V->shape().begin(), V->shape().end());
    std::vector<PrimValue> Data;
    Data.reserve(N * V->numElems());
    for (int64_t I = 0; I < N; ++I)
      Data.insert(Data.end(), V->flat().begin(), V->flat().end());
    Out.push_back(
        Value::array(V->elemKind(), std::move(Shape), std::move(Data)));
    return true;
  }

  case ExpKind::Rearrange: {
    const std::vector<int> &Perm = expCast<RearrangeExp>(&E)->Perm;
    const Value *A = value(X.Ops[0], F);
    if (!A)
      return false;
    if (A->rank() != static_cast<int>(Perm.size()))
      return fail(CompilerError(E.Loc, "rearrange rank mismatch"));
    std::vector<int64_t> NewShape(Perm.size());
    for (size_t I = 0; I < Perm.size(); ++I)
      NewShape[I] = A->shape()[Perm[I]];
    std::vector<PrimValue> Data(A->numElems());
    // For each output position, locate the source element.
    int Rank = A->rank();
    std::vector<int64_t> OutIdx(Rank, 0), SrcIdx(Rank, 0);
    for (int64_t Flat = 0; Flat < A->numElems(); ++Flat) {
      for (int I = 0; I < Rank; ++I)
        SrcIdx[Perm[I]] = OutIdx[I];
      Data[Flat] = A->at(SrcIdx);
      // Increment OutIdx (row-major).
      for (int I = Rank - 1; I >= 0; --I) {
        if (++OutIdx[I] < NewShape[I])
          break;
        OutIdx[I] = 0;
      }
    }
    Out.push_back(
        Value::array(A->elemKind(), std::move(NewShape), std::move(Data)));
    return true;
  }

  case ExpKind::Reshape: {
    const Value *A = value(X.Ops[0], F);
    if (!A)
      return false;
    std::vector<int64_t> NewShape;
    int64_t N = 1;
    for (size_t I = 1; I < X.Ops.size(); ++I) {
      int64_t D = 0;
      FUT_OK(readInt(X.Ops[I], F, "reshape dimension", D));
      if (D < 0)
        return fail(CompilerError::runtime(
            E.Loc, "reshape to a negative dimension"));
      NewShape.push_back(D);
      N *= D;
    }
    if (N != A->numElems())
      return fail(CompilerError(E.Loc, "reshape changes number of elements"));
    std::vector<PrimValue> Data = A->flat();
    Out.push_back(
        Value::array(A->elemKind(), std::move(NewShape), std::move(Data)));
    return true;
  }

  case ExpKind::Concat: {
    std::vector<Value> Vs;
    for (const InterpOperand &O : X.Ops) {
      const Value *V = value(O, F);
      if (!V)
        return false;
      Vs.push_back(*V);
    }
    FUT_GET(R, concatValues(Vs));
    Out.push_back(std::move(R));
    return true;
  }

  case ExpKind::Slice: {
    const Value *A = value(X.Ops[0], F);
    if (!A)
      return false;
    int64_t Off = 0, Len = 0, Str = 0;
    FUT_OK(readInt(X.Ops[1], F, "slice offset", Off));
    FUT_OK(readInt(X.Ops[2], F, "slice length", Len));
    FUT_OK(readInt(X.Ops[3], F, "slice stride", Str));
    if (!A->isArray() || Off < 0 || Len < 0 || Str <= 0 ||
        (Len > 0 && Off + (Len - 1) * Str >= A->outerSize()))
      return fail(CompilerError::runtime(E.Loc, "slice out of bounds"));
    std::vector<int64_t> Shape = A->shape();
    Shape[0] = Len;
    int64_t RowElems = A->rowElems();
    std::vector<PrimValue> Data;
    Data.reserve(Len * RowElems);
    for (int64_t I = 0; I < Len; ++I) {
      int64_t Row = Off + I * Str;
      Data.insert(Data.end(), A->flat().begin() + Row * RowElems,
                  A->flat().begin() + (Row + 1) * RowElems);
    }
    Out.push_back(
        Value::array(A->elemKind(), std::move(Shape), std::move(Data)));
    return true;
  }

  case ExpKind::Copy: {
    const Value *A = value(X.Ops[0], F);
    if (!A)
      return false;
    if (A->isScalar()) {
      Out.push_back(*A);
      return true;
    }
    std::vector<PrimValue> Data = A->flat();
    std::vector<int64_t> Shape = A->shape();
    Out.push_back(
        Value::array(A->elemKind(), std::move(Shape), std::move(Data)));
    return true;
  }

  case ExpKind::Map:
    return evalMap(S, F, Out);

  case ExpKind::Reduce:
    return evalReduce(S, F, Out);

  case ExpKind::Scan:
    return evalScan(S, F, Out);

  case ExpKind::ReduceByIndex:
    return evalReduceByIndex(S, F, Out);

  case ExpKind::Stream:
    return evalStream(S, F, Out);

  case ExpKind::Kernel: {
    if (!Opts.HandleKernel)
      return evalKernel(S, F, Out);
    FUT_GET(R, Opts.HandleKernel(*expCast<KernelExp>(&E), F));
    for (Value &V : R)
      Out.push_back(std::move(V));
    return true;
  }

  case ExpKind::SubExpE:
  case ExpKind::BinOpE:
  case ExpKind::UnOpE:
  case ExpKind::ConvOpE:
  case ExpKind::Index:
  case ExpKind::Update:
    break; // execStm binds these straight into their slot.
  }
  return fail(CompilerError(E.Loc, "unhandled expression kind in interpreter"));
}

bool Interpreter::evalUpdate(const InterpStm &S, InterpFrame &F, Value &A) {
  const auto &X = *expCast<UpdateExp>(S.S->E.get());
  const std::vector<InterpOperand> &Ops = S.X.Ops;
  FUT_OK(consumeToMutate(Ops[0], F, A));
  Idx.clear();
  for (size_t I = 2; I < Ops.size(); ++I) {
    int64_t V = 0;
    FUT_OK(readInt(Ops[I], F, "index", V));
    Idx.push_back(V);
  }
  const Value *V = value(Ops[1], F);
  if (!V)
    return false;
  if (!A.inBounds(Idx))
    return fail(CompilerError::runtime(
        X.Loc, "update index out of bounds for " + X.Arr.str()));
  if (Idx.size() == A.shape().size()) {
    if (!V->isScalar())
      return fail(CompilerError(X.Loc, "updating element with non-scalar"));
    int64_t Off = A.flatIndex(Idx);
    A.flatMut()[Off] = V->getScalar();
    return true;
  }
  // Bulk update of a whole subarray.
  int64_t Rows = 1;
  for (size_t I = 0; I < Idx.size(); ++I)
    Rows *= A.shape()[I];
  if (V->isScalar() || V->numElems() != A.numElems() / Rows)
    return fail(CompilerError(X.Loc, "bulk update value has wrong size"));
  int64_t Inner = V->numElems();
  int64_t Off = 0;
  for (size_t I = 0; I < Idx.size(); ++I)
    Off = Off * A.shape()[I] + Idx[I];
  Off *= Inner;
  auto &Flat = A.flatMut();
  for (int64_t I = 0; I < Inner; ++I)
    Flat[Off + I] = V->flat()[I];
  return true;
}

bool Interpreter::evalLoop(const InterpStm &S, InterpFrame &F,
                           std::vector<Value> &Out) {
  const auto &X = *expCast<LoopExp>(S.S->E.get());
  const InterpExp &R = S.X;
  const Value *BoundV = value(R.Ops[0], F);
  if (!BoundV)
    return false;
  FUT_GET(Bound, scalarInt(*BoundV, "loop bound"));
  ScalarKind IdxKind = BoundV->getScalar().kind();
  std::vector<Value> Merge;
  for (size_t J = 0; J + 1 < R.Ops.size(); ++J) {
    const InterpOperand &O = R.Ops[J + 1];
    if (J < R.Movable.size() && R.Movable[J]) {
      if (!F.bound(O.Slot))
        return fail(unbound(*O.Var));
      Merge.push_back(F.take(O.Slot));
      continue;
    }
    const Value *V = value(O, F);
    if (!V)
      return false;
    Merge.push_back(*V);
  }
  if (Merge.size() != X.MergeParams.size())
    return fail(CompilerError(X.Loc, "loop merge arity mismatch: " +
                                         std::to_string(X.MergeParams.size()) +
                                         " parameters, " +
                                         std::to_string(Merge.size()) +
                                         " initial values"));
  const InterpBinding &Index = R.Binds.back();
  const InterpBody &LoopBody = R.Bodies[0];
  std::vector<Value> Next;
  ++F.Level;
  for (int64_t I = 0; I < Bound; ++I) {
    size_t Mark = F.mark();
    F.bindScalar(Index.Slot, Index.Logged, intOfKind(IdxKind, I));
    for (size_t J = 0; J < X.MergeParams.size(); ++J)
      FUT_OK(bindValue(F, R.Binds[J], std::move(Merge[J])));
    Next.clear();
    FUT_OK(runBody(LoopBody, F, Next));
    F.exit(LoopBody, Mark);
    if (Next.size() != Merge.size())
      return fail(CompilerError(X.Loc, "loop body arity mismatch"));
    std::swap(Merge, Next);
  }
  --F.Level;
  for (Value &V : Merge)
    Out.push_back(std::move(V));
  return true;
}

/// Copies the arrays a SOAC maps over (operands \p From on), which share
/// their payloads, so rows stay readable while the lambda runs.  Each must
/// have outer size \p W; a map names the one that does not.
bool Interpreter::soacArrays(const InterpStm &S, InterpFrame &F, size_t From,
                             int64_t W, const char *Msg,
                             std::vector<Value> &Out) {
  const Exp &E = *S.S->E;
  for (size_t I = From; I < S.X.Ops.size(); ++I) {
    const InterpOperand &O = S.X.Ops[I];
    const Value *A = value(O, F);
    if (!A)
      return false;
    if (!A->isArray() || A->outerSize() != W)
      return fail(CompilerError(
          E.Loc, Msg ? std::string(Msg)
                     : "map input " + O.Var->str() + " has wrong outer size"));
    Out.push_back(*A);
  }
  return true;
}

bool Interpreter::evalMap(const InterpStm &S, InterpFrame &F,
                          std::vector<Value> &Out) {
  const Exp &E = *S.S->E;
  const auto &X = *expCast<MapExp>(&E);
  int64_t W = 0;
  FUT_OK(readInt(S.X.Ops[0], F, "map width", W));
  std::vector<Value> Arrays;
  FUT_OK(soacArrays(S, F, 1, W, nullptr, Arrays));
  size_t NumRes = X.Fn.RetTypes.size();
  std::vector<ArrayAssembler> Columns(NumRes, ArrayAssembler(W));
  std::vector<Value> Args, Res;
  for (int64_t I = 0; I < W; ++I) {
    Args.clear();
    for (const Value &A : Arrays)
      Args.push_back(A.row(I));
    Res.clear();
    FUT_OK(callLambda(S.X.Fns[0], Args, F, Res));
    if (Res.size() != NumRes)
      return fail(CompilerError(E.Loc, "map function arity mismatch"));
    for (size_t J = 0; J < NumRes; ++J)
      Columns[J].add(Res[J]);
  }
  for (size_t J = 0; J < NumRes; ++J) {
    if (W == 0) {
      // Empty result with the statically known row shape where possible.
      Out.push_back(Value::array(X.Fn.RetTypes[J].elemKind(), {0}, {}));
      continue;
    }
    FUT_GET(Col, Columns[J].finish());
    Out.push_back(std::move(Col));
  }
  return true;
}

bool Interpreter::evalReduce(const InterpStm &S, InterpFrame &F,
                             std::vector<Value> &Out) {
  const Exp &E = *S.S->E;
  size_t NumNeutral = expCast<ReduceExp>(&E)->Neutral.size();
  int64_t W = 0;
  FUT_OK(readInt(S.X.Ops[0], F, "reduce width", W));
  std::vector<Value> Acc;
  for (size_t I = 1; I <= NumNeutral; ++I) {
    const Value *V = value(S.X.Ops[I], F);
    if (!V)
      return false;
    Acc.push_back(*V);
  }
  std::vector<Value> Arrays;
  FUT_OK(soacArrays(S, F, 1 + NumNeutral, W, "reduce input has wrong outer size",
                    Arrays));
  std::vector<Value> Args;
  for (int64_t I = 0; I < W; ++I) {
    Args.clear();
    for (Value &V : Acc)
      Args.push_back(std::move(V));
    for (const Value &A : Arrays)
      Args.push_back(A.row(I));
    Acc.clear();
    FUT_OK(callLambda(S.X.Fns[0], Args, F, Acc));
  }
  for (Value &V : Acc)
    Out.push_back(std::move(V));
  return true;
}

bool Interpreter::evalScan(const InterpStm &S, InterpFrame &F,
                           std::vector<Value> &Out) {
  const Exp &E = *S.S->E;
  const auto &X = *expCast<ScanExp>(&E);
  size_t NumNeutral = X.Neutral.size();
  int64_t W = 0;
  FUT_OK(readInt(S.X.Ops[0], F, "scan width", W));
  std::vector<Value> Acc;
  for (size_t I = 1; I <= NumNeutral; ++I) {
    const Value *V = value(S.X.Ops[I], F);
    if (!V)
      return false;
    Acc.push_back(*V);
  }
  std::vector<Value> Arrays;
  FUT_OK(soacArrays(S, F, 1 + NumNeutral, W, "scan input has wrong outer size",
                    Arrays));
  std::vector<ArrayAssembler> Columns(Acc.size(), ArrayAssembler(W));
  std::vector<Value> Args;
  for (int64_t I = 0; I < W; ++I) {
    Args.clear();
    for (Value &V : Acc)
      Args.push_back(std::move(V));
    for (const Value &A : Arrays)
      Args.push_back(A.row(I));
    Acc.clear();
    FUT_OK(callLambda(S.X.Fns[0], Args, F, Acc));
    for (size_t J = 0; J < Acc.size() && J < Columns.size(); ++J)
      Columns[J].add(Acc[J]);
  }
  if (W == 0 && X.Fn.RetTypes.size() < Columns.size())
    return fail(CompilerError(E.Loc, "scan operator arity mismatch"));
  for (size_t J = 0; J < Columns.size(); ++J) {
    if (W == 0) {
      Out.push_back(Value::array(X.Fn.RetTypes[J].elemKind(), {0}, {}));
      continue;
    }
    FUT_GET(Col, Columns[J].finish());
    Out.push_back(std::move(Col));
  }
  return true;
}

bool Interpreter::evalReduceByIndex(const InterpStm &S, InterpFrame &F,
                                    std::vector<Value> &Out) {
  const Exp &E = *S.S->E;
  const std::vector<InterpOperand> &Ops = S.X.Ops;
  int64_t W = 0;
  FUT_OK(readInt(Ops[0], F, "reduce_by_index width", W));
  const Value *Dest = value(Ops[1], F);
  if (!Dest)
    return false;
  if (!Dest->isArray() || Dest->outerSize() != W)
    return fail(CompilerError(
        E.Loc, "reduce_by_index destination has wrong outer size"));
  Value D;
  FUT_OK(consumeToMutate(Ops[1], F, D));
  const Value *IA = value(Ops[2], F);
  if (!IA)
    return false;
  if (!IA->isArray())
    return fail(
        CompilerError(E.Loc, "reduce_by_index indices are not an array"));
  Value Indices = *IA;
  int64_t N = Indices.outerSize();
  std::vector<Value> Arrays;
  for (size_t I = 3; I < Ops.size(); ++I) {
    const Value *V = value(Ops[I], F);
    if (!V)
      return false;
    if (!V->isArray() || V->outerSize() != N)
      return fail(CompilerError(E.Loc, "reduce_by_index value array " +
                                           Ops[I].Var->str() +
                                           " has wrong outer size"));
    Arrays.push_back(*V);
  }
  const InterpLambda &CombineFn = S.X.Fns[0], &ValueFn = S.X.Fns[1];
  std::vector<PrimValue> &Data = D.flatMut();
  std::vector<Value> Args, Val, Comb;
  for (int64_t J = 0; J < N; ++J) {
    FUT_GET(Bin, scalarInt(Indices.row(J), "reduce_by_index bin"));
    // The value is computed before the bounds check (every device thread
    // runs its body), so runtime errors inside the value function agree
    // between the interpreter and the compiled path.
    Args.clear();
    for (const Value &A : Arrays)
      Args.push_back(A.row(J));
    Val.clear();
    FUT_OK(callLambda(ValueFn, Args, F, Val));
    if (Val.size() != 1 || !Val[0].isScalar())
      return fail(CompilerError(E.Loc, "reduce_by_index value function must "
                                       "produce one scalar"));
    if (Bin < 0 || Bin >= W)
      continue; // Out-of-range bins are skipped, never an error.
    Args.clear();
    Args.push_back(Value::scalar(Data[Bin]));
    Args.push_back(std::move(Val[0]));
    Comb.clear();
    FUT_OK(callLambda(CombineFn, Args, F, Comb));
    if (Comb.size() != 1 || !Comb[0].isScalar())
      return fail(CompilerError(E.Loc, "reduce_by_index operator must "
                                       "produce one scalar"));
    Data[Bin] = Comb[0].getScalar();
  }
  Out.push_back(std::move(D));
  return true;
}

bool Interpreter::evalStream(const InterpStm &S, InterpFrame &F,
                             std::vector<Value> &Out) {
  const Exp &E = *S.S->E;
  const auto &X = *expCast<StreamExp>(&E);
  int64_t W = 0;
  FUT_OK(readInt(S.X.Ops[0], F, "stream width", W));
  size_t NumInits = X.AccInit.size();
  std::vector<Value> Arrays;
  FUT_OK(soacArrays(S, F, 1 + NumInits, W, "stream input has wrong outer size",
                    Arrays));
  std::vector<Value> AccInit;
  for (size_t I = 1; I <= NumInits; ++I) {
    const Value *V = value(S.X.Ops[I], F);
    if (!V)
      return false;
    AccInit.push_back(*V);
  }
  if (static_cast<int>(AccInit.size()) != X.NumAccs)
    return fail(CompilerError::runtime(
        "stream accumulator count mismatch: " +
        std::to_string(AccInit.size()) + " initialisers for " +
        std::to_string(X.NumAccs) + " accumulators"));

  // Partitioning: contiguous chunks of StreamChunk elements, or, when
  // StreamInterleave is set, P interleaved chunks (chunk g holds elements
  // g, g+P, g+2P, ... — the partitioning the compiler's device chunking
  // uses so warp accesses coalesce).
  int64_t Chunk = Opts.StreamChunk > 0 ? Opts.StreamChunk : (W > 0 ? W : 1);
  int64_t Interleave = 0;
  if (Opts.StreamInterleave > 0)
    Interleave = std::min<int64_t>(W > 0 ? W : 1, Opts.StreamInterleave);
  int64_t NumChunks =
      Interleave > 0 ? Interleave : std::max<int64_t>(1, (W + Chunk - 1) /
                                                             Chunk);
  if (W == 0)
    NumChunks = 1;
  ScalarKind ChunkKind = X.FoldFn.Params.empty()
                             ? ScalarKind::I32
                             : X.FoldFn.Params[0].Ty.elemKind();

  const InterpLambda &ReduceFn = S.X.Fns[0], &FoldFn = S.X.Fns[1];
  size_t NumMapped = X.FoldFn.RetTypes.size() - X.NumAccs;
  std::vector<std::vector<Value>> MappedChunks(NumMapped);
  // A sequential stream threads its accumulators from chunk to chunk; the
  // parallel forms start every chunk from the initial values.
  std::vector<Value> Accs = AccInit;
  std::vector<Value> Args, Res, CombArgs;

  for (int64_t G = 0; G < NumChunks; ++G) {
    int64_t Start = Interleave > 0 ? G : G * Chunk;
    int64_t Stride = Interleave > 0 ? Interleave : 1;
    int64_t Len;
    if (W == 0)
      Len = 0;
    else if (Interleave > 0)
      Len = Start < W ? (W - Start + Interleave - 1) / Interleave : 0;
    else
      Len = std::min(Chunk, W - Start);
    // Slice out this chunk of every input array.
    Args.clear();
    Args.push_back(Value::scalar(intOfKind(ChunkKind, Len)));
    if (X.Form == StreamExp::FormKind::Seq)
      for (Value &A : Accs)
        Args.push_back(std::move(A));
    else if (X.Form == StreamExp::FormKind::Red)
      Args.insert(Args.end(), AccInit.begin(), AccInit.end());
    for (const Value &A : Arrays) {
      std::vector<int64_t> Shape = A.shape();
      Shape[0] = Len;
      int64_t RowElems = A.rowElems();
      std::vector<PrimValue> Data;
      Data.reserve(Len * RowElems);
      for (int64_t I = 0; I < Len; ++I) {
        int64_t Row = Start + I * Stride;
        Data.insert(Data.end(), A.flat().begin() + Row * RowElems,
                    A.flat().begin() + (Row + 1) * RowElems);
      }
      Args.push_back(Value::array(A.elemKind(), std::move(Shape),
                                  std::move(Data)));
    }
    Res.clear();
    FUT_OK(callLambda(FoldFn, Args, F, Res));
    if (Res.size() != X.FoldFn.RetTypes.size())
      return fail(CompilerError(E.Loc, "stream fold arity mismatch"));

    switch (X.Form) {
    case StreamExp::FormKind::Par:
      break;
    case StreamExp::FormKind::Seq:
      Accs.assign(std::make_move_iterator(Res.begin()),
                  std::make_move_iterator(Res.begin() + X.NumAccs));
      break;
    case StreamExp::FormKind::Red: {
      // Combine with the running accumulator via the associative operator.
      CombArgs = std::move(Accs);
      CombArgs.insert(CombArgs.end(), std::make_move_iterator(Res.begin()),
                      std::make_move_iterator(Res.begin() + X.NumAccs));
      Accs.clear();
      FUT_OK(callLambda(ReduceFn, CombArgs, F, Accs));
      break;
    }
    }
    for (size_t J = 0; J < NumMapped; ++J)
      MappedChunks[J].push_back(std::move(Res[X.NumAccs + J]));
  }

  for (Value &V : Accs)
    Out.push_back(std::move(V));
  for (size_t J = 0; J < NumMapped; ++J) {
    if (MappedChunks[J].empty()) {
      Out.push_back(Value::array(
          X.FoldFn.RetTypes[X.NumAccs + J].elemKind(), {0}, {}));
      continue;
    }
    FUT_GET(Col, concatValues(MappedChunks[J]));
    Out.push_back(std::move(Col));
  }
  return true;
}

bool Interpreter::evalKernel(const InterpStm &S, InterpFrame &F,
                             std::vector<Value> &Out) {
  const auto &K = *expCast<KernelExp>(S.S->E.get());
  const std::vector<InterpOperand> &Ops = S.X.Ops;
  size_t NumGrid = K.GridDims.size(), NumNeutral = K.Neutral.size();
  const InterpOperand &HistWidth = Ops[NumGrid + NumNeutral];
  const InterpOperand &HistDest = Ops[NumGrid + NumNeutral + 1];
  const InterpOperand &SegSizeOp = Ops[NumGrid + NumNeutral + 2];
  const InterpBody &ThreadBody = S.X.Bodies[0];
  const InterpLambda &ReduceFn = S.X.Fns[0];
  // Resolve grid dimensions.
  std::vector<int64_t> Grid;
  for (size_t I = 0; I < NumGrid; ++I) {
    int64_t D = 0;
    FUT_OK(readInt(Ops[I], F, "grid dimension", D));
    Grid.push_back(D);
  }
  int64_t NumGroups = 1;
  for (int64_t G : Grid)
    NumGroups *= G;
  // Runs the thread body at one grid position (and segment position) in a
  // fresh scope.
  std::vector<Value> Res;
  auto RunThread = [&](const std::vector<int64_t> &Idx, int64_t Seg) {
    ++F.Level;
    size_t Mark = F.mark();
    for (size_t I = 0; I < Grid.size(); ++I)
      F.bind(S.X.Binds[I].Slot, S.X.Binds[I].Logged, i32Value(Idx[I]));
    if (Seg >= 0)
      F.bind(S.X.Binds[Grid.size()].Slot, S.X.Binds[Grid.size()].Logged,
             i32Value(Seg));
    Res.clear();
    FUT_OK(runBody(ThreadBody, F, Res));
    F.exit(ThreadBody, Mark);
    --F.Level;
    return true;
  };
  auto Advance = [&](std::vector<int64_t> &Idx) {
    for (int I = static_cast<int>(Grid.size()) - 1; I >= 0; --I) {
      if (++Idx[I] < Grid[I])
        break;
      Idx[I] = 0;
    }
  };
  std::vector<Value> Args, Comb;

  if (K.Op == KernelExp::OpKind::SegHist) {
    // One thread per grid position computes (bin, value); values fold into
    // the destination bins with ReduceFn.  Ascending thread order keeps the
    // result bit-identical to the device, which serialises conflicting
    // atomics deterministically.
    int64_t W = 0;
    FUT_OK(readInt(HistWidth, F, "histogram width", W));
    const Value *Dest = value(HistDest, F);
    if (!Dest)
      return false;
    if (!Dest->isArray() || Dest->outerSize() != W)
      return fail(
          CompilerError(K.Loc, "seghist destination has wrong outer size"));
    Value D;
    FUT_OK(consumeToMutate(HistDest, F, D));
    std::vector<PrimValue> &Data = D.flatMut();
    std::vector<int64_t> HIdx(Grid.size(), 0);
    for (int64_t G = 0; G < NumGroups; ++G) {
      FUT_OK(RunThread(HIdx, -1));
      if (Res.size() != 2 || !Res[0].isScalar() || !Res[1].isScalar())
        return fail(CompilerError(
            K.Loc, "seghist thread body must produce (bin, value)"));
      FUT_GET(Bin, scalarInt(Res[0], "seghist bin"));
      if (Bin >= 0 && Bin < W) {
        Args.clear();
        Args.push_back(Value::scalar(Data[Bin]));
        Args.push_back(std::move(Res[1]));
        Comb.clear();
        FUT_OK(callLambda(ReduceFn, Args, F, Comb));
        if (Comb.size() != 1 || !Comb[0].isScalar())
          return fail(CompilerError(
              K.Loc, "seghist operator must produce one scalar"));
        Data[Bin] = Comb[0].getScalar();
      }
      Advance(HIdx);
    }
    Out.push_back(std::move(D));
    return true;
  }

  int64_t SegSize = 1;
  if (K.isSegmented())
    FUT_OK(readInt(SegSizeOp, F, "segment size", SegSize));

  size_t NumRes = K.isSegmented() ? NumNeutral : K.RetTypes.size();
  std::vector<std::vector<Value>> PerPos(NumRes);

  std::vector<int64_t> Idx(Grid.size(), 0);
  for (int64_t G = 0; G < NumGroups; ++G) {
    if (!K.isSegmented()) {
      FUT_OK(RunThread(Idx, -1));
      if (Res.size() != NumRes)
        return fail(CompilerError(K.Loc, "kernel thread body arity mismatch"));
      for (size_t J = 0; J < NumRes; ++J)
        PerPos[J].push_back(std::move(Res[J]));
    } else {
      // Evaluate the per-element values, then combine within the segment.
      std::vector<Value> Acc;
      for (size_t I = 0; I < NumNeutral; ++I) {
        const Value *V = value(Ops[NumGrid + I], F);
        if (!V)
          return false;
        Acc.push_back(*V);
      }
      std::vector<std::vector<Value>> ScanCols(NumRes);
      for (int64_t Seg = 0; Seg < SegSize; ++Seg) {
        FUT_OK(RunThread(Idx, Seg));
        Args = std::move(Acc);
        for (Value &V : Res)
          Args.push_back(std::move(V));
        Acc.clear();
        FUT_OK(callLambda(ReduceFn, Args, F, Acc));
        if (Acc.size() != NumRes)
          return fail(CompilerError(K.Loc, "kernel operator arity mismatch"));
        if (K.Op == KernelExp::OpKind::SegScan)
          for (size_t J = 0; J < NumRes; ++J)
            ScanCols[J].push_back(Acc[J]);
      }
      if (K.Op == KernelExp::OpKind::SegReduce) {
        for (size_t J = 0; J < NumRes; ++J)
          PerPos[J].push_back(std::move(Acc[J]));
      } else {
        for (size_t J = 0; J < NumRes; ++J) {
          if (SegSize == 0) {
            PerPos[J].push_back(
                Value::array(K.RetTypes[J].elemKind(), {0}, {}));
            continue;
          }
          FUT_GET(Col, assembleArray(ScanCols[J]));
          PerPos[J].push_back(std::move(Col));
        }
      }
    }
    Advance(Idx);
  }

  // Assemble results: nested per grid dimensions.
  for (size_t J = 0; J < NumRes; ++J) {
    if (Grid.empty()) {
      Out.push_back(std::move(PerPos[J][0]));
      continue;
    }
    if (NumGroups == 0) {
      std::vector<int64_t> Shape = Grid;
      Out.push_back(Value::array(K.RetTypes[J].elemKind(), Shape, {}));
      continue;
    }
    FUT_GET(FlatV, assembleArray(PerPos[J]));
    // Reshape the flat outer dimension into the grid shape.
    std::vector<int64_t> Shape = Grid;
    const Value &First = PerPos[J][0];
    if (First.isArray())
      Shape.insert(Shape.end(), First.shape().begin(), First.shape().end());
    std::vector<PrimValue> Data = FlatV.flat();
    Out.push_back(
        Value::array(FlatV.elemKind(), std::move(Shape), std::move(Data)));
  }
  return true;
}
