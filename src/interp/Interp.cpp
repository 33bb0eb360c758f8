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

// Local helper for propagating errors out of ErrorOr-returning calls.
#define FUT_TRY(VAR, EXPR)                                                     \
  auto VAR##OrErr = (EXPR);                                                    \
  if (!VAR##OrErr)                                                             \
    return VAR##OrErr.getError();                                              \
  auto VAR = VAR##OrErr.take();

#define FUT_CHECK(EXPR)                                                        \
  do {                                                                         \
    if (auto Err = (EXPR))                                                     \
      return Err.getError();                                                   \
  } while (false)

ErrorOr<Value> fut::assembleArray(const std::vector<Value> &Elems) {
  if (Elems.empty())
    return CompilerError::runtime(
        "cannot assemble an empty array without an element type");
  const Value &First = Elems.front();
  if (First.isScalar()) {
    std::vector<PrimValue> Data;
    Data.reserve(Elems.size());
    for (const Value &V : Elems) {
      if (!V.isScalar() || V.getScalar().kind() != First.getScalar().kind())
        return CompilerError("irregular array: element kind mismatch");
      Data.push_back(V.getScalar());
    }
    return Value::array(First.getScalar().kind(),
                        {static_cast<int64_t>(Elems.size())},
                        std::move(Data));
  }
  std::vector<PrimValue> Data;
  Data.reserve(Elems.size() * First.numElems());
  for (const Value &V : Elems) {
    if (V.isScalar() || V.shape() != First.shape() ||
        V.elemKind() != First.elemKind())
      return CompilerError(
          "irregular array: all rows must have the same shape");
    Data.insert(Data.end(), V.flat().begin(), V.flat().end());
  }
  std::vector<int64_t> Shape;
  Shape.push_back(static_cast<int64_t>(Elems.size()));
  Shape.insert(Shape.end(), First.shape().begin(), First.shape().end());
  return Value::array(First.elemKind(), std::move(Shape), std::move(Data));
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
// Slot layouts and frames
//===----------------------------------------------------------------------===//

namespace fut {

/// The dense slot numbering of one function (or closed lambda): every name
/// it binds gets a slot once, when the interpreter is constructed.  A name
/// is found by its tag, or by a hash of the whole name when it is untagged
/// or shares its tag with another bound name.
struct InterpLayout {
  NameMap<int32_t> ByName;
  int32_t MinTag = 0;
  /// Tag - MinTag -> slot; -1 when no bound name has the tag, -2 when two
  /// do.
  std::vector<int32_t> ByTag;
  /// The base of the name bound to each slot, so that a tag hit on a name
  /// the function does not bind is told apart from the bound one.
  std::vector<std::string> SlotBase;
  /// The loops some of whose initialisers are the last use of their
  /// variable, and which ones.
  std::unordered_map<const LoopExp *, std::vector<bool>> MovableInits;

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

/// One activation of a function.  Each nested body records what it binds in
/// the undo log and unwinds to its mark on exit, which clears its bindings
/// and restores any it shadowed.
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
  /// How many repeated bodies (loop iterations, lambda calls, kernel
  /// threads) enclose the code being evaluated.
  int32_t Level = 0;

  explicit InterpFrame(const InterpLayout &L)
      : L(L), Slots(L.numSlots()), BoundAt(L.numSlots(), -1) {}

  const Value *find(const VName &N) const override {
    int32_t S = L.slotOf(N);
    return S >= 0 && BoundAt[S] >= 0 ? &Slots[S] : nullptr;
  }

  bool bound(int32_t S) const { return S >= 0 && BoundAt[S] >= 0; }

  void bind(int32_t S, Value V) {
    Log.push_back({S, BoundAt[S], BoundAt[S] >= 0 ? std::move(Slots[S])
                                                   : Value()});
    Slots[S] = std::move(V);
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

  void unwind(size_t Mark) {
    while (Log.size() > Mark) {
      Undo &U = Log.back();
      Slots[U.Slot] = std::move(U.Old);
      BoundAt[U.Slot] = U.OldLevel;
      Log.pop_back();
    }
  }
};

} // namespace fut

namespace {

/// Numbers the names a function or closed lambda binds, and finds the loop
/// initialisers that may move into their merge parameter.
class Resolver {
  InterpLayout &L;

public:
  explicit Resolver(InterpLayout &L) : L(L) {}

  void function(const FunDef &F) {
    for (const Param &P : F.Params)
      param(P);
    body(F.FBody, paramNames(F.Params));
    finish();
  }

  void closedLambda(const Lambda &Fn) {
    lambda(Fn);
    finish();
  }

private:
  static std::vector<VName> paramNames(const std::vector<Param> &Ps) {
    std::vector<VName> Out;
    for (const Param &P : Ps)
      Out.push_back(P.Name);
    return Out;
  }

  void bind(const VName &N) {
    L.ByName.emplace(N, static_cast<int32_t>(L.ByName.size()));
  }

  /// A parameter binds its name and the unbound variables of its shape.
  void param(const Param &P) {
    bind(P.Name);
    for (const Dim &D : P.Ty.shape())
      if (D.isVar())
        bind(D.getVar());
  }

  void lambda(const Lambda &Fn) {
    for (const Param &P : Fn.Params)
      param(P);
    body(Fn.B, paramNames(Fn.Params));
  }

  /// \p Owner are the names the body's owner binds for it.
  void body(const Body &B, const std::vector<VName> &Owner) {
    for (const Stm &S : B.Stms) {
      exp(*S.E);
      for (const Param &P : S.Pat)
        param(P);
    }
    findLastUseInits(B, Owner);
  }

  void exp(const Exp &E) {
    switch (E.kind()) {
    case ExpKind::If: {
      const auto *X = expCast<IfExp>(&E);
      body(X->Then, {});
      body(X->Else, {});
      return;
    }
    case ExpKind::Loop: {
      const auto *X = expCast<LoopExp>(&E);
      for (const Param &P : X->MergeParams)
        param(P);
      bind(X->IndexVar);
      std::vector<VName> Owner = paramNames(X->MergeParams);
      Owner.push_back(X->IndexVar);
      body(X->LoopBody, Owner);
      return;
    }
    case ExpKind::Map:
      lambda(expCast<MapExp>(&E)->Fn);
      return;
    case ExpKind::Reduce:
      lambda(expCast<ReduceExp>(&E)->Fn);
      return;
    case ExpKind::Scan:
      lambda(expCast<ScanExp>(&E)->Fn);
      return;
    case ExpKind::ReduceByIndex: {
      const auto *X = expCast<ReduceByIndexExp>(&E);
      lambda(X->CombineFn);
      lambda(X->ValueFn);
      return;
    }
    case ExpKind::Stream: {
      const auto *X = expCast<StreamExp>(&E);
      lambda(X->ReduceFn);
      lambda(X->FoldFn);
      return;
    }
    case ExpKind::Kernel: {
      const auto *X = expCast<KernelExp>(&E);
      std::vector<VName> Owner = X->ThreadIndices;
      if (X->isSegmented())
        Owner.push_back(X->SegIndex);
      for (const VName &N : Owner)
        bind(N);
      lambda(X->ReduceFn);
      body(X->ThreadBody, Owner);
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
      L.MovableInits[&X] = std::move(Movable);
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

/// The value bound to \p N.
ErrorOr<const Value *> lookup(const VName &N, const InterpFrame &F) {
  if (const Value *V = F.find(N))
    return V;
  return unbound(N);
}

/// The value of operand \p S (a copy sharing any array payload).
ErrorOr<Value> read(const SubExp &S, const InterpFrame &F) {
  if (S.isConst())
    return Value::scalar(S.getConst());
  FUT_TRY(V, lookup(S.getVar(), F));
  return *V;
}

/// The integer value of operand \p S.
ErrorOr<int64_t> readInt(const SubExp &S, const InterpFrame &F,
                         const char *What) {
  if (S.isConst())
    return S.getConst().asInt64();
  FUT_TRY(V, lookup(S.getVar(), F));
  return scalarInt(*V, What);
}

/// Consumes the array bound to \p N (see InterpFrame::take).
ErrorOr<Value> consume(const VName &N, InterpFrame &F) {
  int32_t S = F.L.slotOf(N);
  if (!F.bound(S))
    return unbound(N);
  return F.take(S);
}

} // namespace

Interpreter::Interpreter(const Program &Prog, InterpOptions Opts)
    : Prog(Prog), Opts(std::move(Opts)) {
  for (const FunDef &F : Prog.Funs) {
    FunLayouts.push_back(std::make_unique<InterpLayout>());
    Resolver(*FunLayouts.back()).function(F);
  }
}

Interpreter::~Interpreter() = default;

ErrorOr<Value> Interpreter::consumeToMutate(const VName &N, InterpFrame &F) {
  FUT_TRY(A, consume(N, F));
  if (!A.uniquelyHeld())
    ++CopiedConsumes;
  return A;
}

MaybeError Interpreter::step(const Exp &E) {
  if (++Steps > Opts.MaxSteps)
    return CompilerError::runtime(E.Loc, "interpreter step limit exceeded");
  return MaybeError::success();
}

/// Binds a parameter to a value and binds/checks the symbolic dimensions of
/// its declared type against the value's actual shape.
MaybeError Interpreter::bindParam(InterpFrame &F, const Param &P, Value V) {
  if (!P.Ty.isScalar()) {
    if (V.isScalar() || V.rank() != P.Ty.rank())
      return CompilerError("value for " + P.Name.str() +
                           " has wrong rank for type " + P.Ty.str());
    for (int I = 0; I < P.Ty.rank(); ++I) {
      const Dim &D = P.Ty.shape()[I];
      int64_t Actual = V.shape()[I];
      if (D.isConst()) {
        if (D.getConst().asInt64() != Actual)
          return CompilerError("shape mismatch for " + P.Name.str() +
                               ": expected " + D.getConst().str() +
                               ", got " + std::to_string(Actual));
        continue;
      }
      int32_t S = F.L.slotOf(D.getVar());
      if (!F.bound(S)) {
        F.bind(S, i32Value(Actual));
        continue;
      }
      const Value &Bound = F.Slots[S];
      if (!Bound.isScalar())
        return CompilerError::runtime("shape dimension " + D.getVar().str() +
                                      " of " + P.Name.str() +
                                      " is bound to a non-scalar value");
      if (Bound.getScalar().asInt64() != Actual)
        return CompilerError("shape mismatch for " + P.Name.str() + ": " +
                             D.getVar().str() + " = " +
                             Bound.getScalar().str() + " but dimension is " +
                             std::to_string(Actual));
    }
  }
  F.bind(F.L.slotOf(P.Name), std::move(V));
  return MaybeError::success();
}

MaybeError Interpreter::runBody(const Body &B, InterpFrame &F,
                                std::vector<Value> &Out) {
  std::vector<Value> Vals;
  for (const Stm &S : B.Stms) {
    Vals.clear();
    FUT_CHECK(evalExp(*S.E, F, Vals));
    if (Vals.size() != S.Pat.size())
      return CompilerError(S.E->Loc,
                           "pattern arity mismatch: " +
                               std::to_string(S.Pat.size()) + " names for " +
                               std::to_string(Vals.size()) + " values");
    // The binding hook sees the values after binding, so it gets copies;
    // clearing Vals afterwards leaves each slot's payload unshared again.
    for (size_t I = 0; I < Vals.size(); ++I) {
      Value V = Opts.OnBind ? Vals[I] : std::move(Vals[I]);
      FUT_CHECK(bindParam(F, S.Pat[I], std::move(V)));
    }
    if (Opts.OnBind)
      Opts.OnBind(S, Vals);
  }
  for (const SubExp &S : B.Result) {
    FUT_TRY(V, read(S, F));
    Out.push_back(std::move(V));
  }
  return MaybeError::success();
}

MaybeError Interpreter::runScoped(const Body &B, InterpFrame &F,
                                  std::vector<Value> &Out) {
  size_t Mark = F.mark();
  FUT_CHECK(runBody(B, F, Out));
  F.unwind(Mark);
  return MaybeError::success();
}

MaybeError Interpreter::callLambda(const Lambda &L, std::vector<Value> &Args,
                                   InterpFrame &F, std::vector<Value> &Out) {
  if (Args.size() != L.Params.size())
    return CompilerError("lambda arity mismatch: expected " +
                         std::to_string(L.Params.size()) + " arguments, got " +
                         std::to_string(Args.size()));
  ++F.Level;
  size_t Mark = F.mark();
  for (size_t I = 0; I < Args.size(); ++I)
    FUT_CHECK(bindParam(F, L.Params[I], std::move(Args[I])));
  FUT_CHECK(runBody(L.B, F, Out));
  F.unwind(Mark);
  --F.Level;
  return MaybeError::success();
}

ErrorOr<std::vector<Value>> Interpreter::callFunction(const FunDef &Fn,
                                                      std::vector<Value> Args) {
  if (Args.size() != Fn.Params.size())
    return CompilerError("function " + Fn.Name + " expects " +
                         std::to_string(Fn.Params.size()) +
                         " arguments, got " + std::to_string(Args.size()));
  size_t Idx = static_cast<size_t>(&Fn - Prog.Funs.data());
  if (Idx >= FunLayouts.size())
    return CompilerError("function " + Fn.Name +
                         " was added after the interpreter was constructed");
  InterpFrame Frame(*FunLayouts[Idx]);
  for (size_t I = 0; I < Args.size(); ++I)
    FUT_CHECK(bindParam(Frame, Fn.Params[I], std::move(Args[I])));
  std::vector<Value> Out;
  FUT_CHECK(runBody(Fn.FBody, Frame, Out));
  return Out;
}

ErrorOr<std::vector<Value>>
Interpreter::runFunction(const std::string &Name,
                         const std::vector<Value> &Args) {
  const FunDef *F = Prog.findFun(Name);
  if (!F)
    return CompilerError("unknown function " + Name);
  return callFunction(*F, Args);
}

ErrorOr<std::vector<Value>> Interpreter::evalLambda(const Lambda &L,
                                                    std::vector<Value> Args) {
  std::unique_ptr<InterpLayout> &Layout = LambdaLayouts[&L];
  if (!Layout) {
    Layout = std::make_unique<InterpLayout>();
    Resolver(*Layout).closedLambda(L);
  }
  InterpFrame Frame(*Layout);
  std::vector<Value> Out;
  FUT_CHECK(callLambda(L, Args, Frame, Out));
  return Out;
}

MaybeError Interpreter::evalExp(const Exp &E, InterpFrame &F,
                                std::vector<Value> &Out) {
  FUT_CHECK(step(E));
  if (Opts.OnExp)
    Opts.OnExp(E, F);

  switch (E.kind()) {
  case ExpKind::SubExpE: {
    FUT_TRY(V, read(expCast<SubExpExp>(&E)->Val, F));
    Out.push_back(std::move(V));
    return MaybeError::success();
  }

  case ExpKind::BinOpE: {
    const auto *X = expCast<BinOpExp>(&E);
    FUT_TRY(A, read(X->A, F));
    FUT_TRY(B, read(X->B, F));
    if (!A.isScalar() || !B.isScalar())
      return CompilerError(E.Loc, "binop on non-scalar");
    FUT_TRY(R, evalBinOp(X->Op, A.getScalar(), B.getScalar()));
    Out.push_back(Value::scalar(R));
    return MaybeError::success();
  }

  case ExpKind::UnOpE: {
    const auto *X = expCast<UnOpExp>(&E);
    FUT_TRY(A, read(X->A, F));
    if (!A.isScalar())
      return CompilerError(E.Loc, "unop on non-scalar");
    FUT_TRY(R, evalUnOp(X->Op, A.getScalar()));
    Out.push_back(Value::scalar(R));
    return MaybeError::success();
  }

  case ExpKind::ConvOpE: {
    const auto *X = expCast<ConvOpExp>(&E);
    FUT_TRY(A, read(X->A, F));
    if (!A.isScalar())
      return CompilerError(E.Loc, "conversion of non-scalar");
    Out.push_back(Value::scalar(evalConvOp(X->Op, A.getScalar())));
    return MaybeError::success();
  }

  case ExpKind::If: {
    const auto *X = expCast<IfExp>(&E);
    FUT_TRY(C, read(X->Cond, F));
    if (!C.isScalar() || C.getScalar().kind() != ScalarKind::Bool)
      return CompilerError(E.Loc, "if condition is not a bool");
    return runScoped(C.getScalar().getBool() ? X->Then : X->Else, F, Out);
  }

  case ExpKind::Index: {
    const auto *X = expCast<IndexExp>(&E);
    FUT_TRY(A, lookup(X->Arr, F));
    if (!A->isArray())
      return CompilerError(E.Loc, "indexing into a scalar");
    std::vector<int64_t> Idx;
    for (const SubExp &S : X->Indices) {
      FUT_TRY(I, readInt(S, F, "index"));
      Idx.push_back(I);
    }
    if (Idx.size() > A->shape().size())
      return CompilerError(E.Loc, "index rank exceeds array rank");
    if (!A->inBounds(Idx))
      return CompilerError::runtime(E.Loc,
                                    "index out of bounds for " + X->Arr.str());
    Out.push_back(A->slice(Idx));
    return MaybeError::success();
  }

  case ExpKind::Apply: {
    const auto *X = expCast<ApplyExp>(&E);
    std::vector<Value> Args;
    for (const SubExp &S : X->Args) {
      FUT_TRY(V, read(S, F));
      Args.push_back(std::move(V));
    }
    const FunDef *Fn = Prog.findFun(X->Func);
    if (!Fn)
      return CompilerError("unknown function " + X->Func);
    FUT_TRY(R, callFunction(*Fn, std::move(Args)));
    Out = std::move(R);
    return MaybeError::success();
  }

  case ExpKind::Loop:
    return evalLoop(*expCast<LoopExp>(&E), F, Out);

  case ExpKind::Update:
    return evalUpdate(*expCast<UpdateExp>(&E), F, Out);

  case ExpKind::Iota: {
    const auto *X = expCast<IotaExp>(&E);
    FUT_TRY(N, readInt(X->N, F, "iota length"));
    if (N < 0)
      return CompilerError::runtime(E.Loc, "iota of negative length");
    std::vector<PrimValue> Data;
    Data.reserve(N);
    for (int64_t I = 0; I < N; ++I)
      Data.push_back(intOfKind(X->Elem, I));
    Out.push_back(Value::array(X->Elem, {N}, std::move(Data)));
    return MaybeError::success();
  }

  case ExpKind::Replicate: {
    const auto *X = expCast<ReplicateExp>(&E);
    FUT_TRY(N, readInt(X->N, F, "replicate count"));
    if (N < 0)
      return CompilerError::runtime(E.Loc, "replicate of negative count");
    FUT_TRY(V, read(X->Val, F));
    if (V.isScalar()) {
      Out.push_back(
          Value::filledArray(V.getScalar().kind(), {N}, V.getScalar()));
      return MaybeError::success();
    }
    std::vector<int64_t> Shape;
    Shape.push_back(N);
    Shape.insert(Shape.end(), V.shape().begin(), V.shape().end());
    std::vector<PrimValue> Data;
    Data.reserve(N * V.numElems());
    for (int64_t I = 0; I < N; ++I)
      Data.insert(Data.end(), V.flat().begin(), V.flat().end());
    Out.push_back(
        Value::array(V.elemKind(), std::move(Shape), std::move(Data)));
    return MaybeError::success();
  }

  case ExpKind::Rearrange: {
    const auto *X = expCast<RearrangeExp>(&E);
    FUT_TRY(A, lookup(X->Arr, F));
    if (A->rank() != static_cast<int>(X->Perm.size()))
      return CompilerError(E.Loc, "rearrange rank mismatch");
    std::vector<int64_t> NewShape(X->Perm.size());
    for (size_t I = 0; I < X->Perm.size(); ++I)
      NewShape[I] = A->shape()[X->Perm[I]];
    std::vector<PrimValue> Data(A->numElems());
    // For each output position, locate the source element.
    int Rank = A->rank();
    std::vector<int64_t> OutIdx(Rank, 0), SrcIdx(Rank, 0);
    for (int64_t Flat = 0; Flat < A->numElems(); ++Flat) {
      for (int I = 0; I < Rank; ++I)
        SrcIdx[X->Perm[I]] = OutIdx[I];
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
    return MaybeError::success();
  }

  case ExpKind::Reshape: {
    const auto *X = expCast<ReshapeExp>(&E);
    FUT_TRY(A, lookup(X->Arr, F));
    std::vector<int64_t> NewShape;
    int64_t N = 1;
    for (const SubExp &S : X->NewShape) {
      FUT_TRY(D, readInt(S, F, "reshape dimension"));
      if (D < 0)
        return CompilerError::runtime(E.Loc,
                                      "reshape to a negative dimension");
      NewShape.push_back(D);
      N *= D;
    }
    if (N != A->numElems())
      return CompilerError(E.Loc, "reshape changes number of elements");
    std::vector<PrimValue> Data = A->flat();
    Out.push_back(
        Value::array(A->elemKind(), std::move(NewShape), std::move(Data)));
    return MaybeError::success();
  }

  case ExpKind::Concat: {
    const auto *X = expCast<ConcatExp>(&E);
    std::vector<Value> Vs;
    for (const VName &N : X->Arrays) {
      FUT_TRY(V, lookup(N, F));
      Vs.push_back(*V);
    }
    FUT_TRY(R, concatValues(Vs));
    Out.push_back(std::move(R));
    return MaybeError::success();
  }

  case ExpKind::Slice: {
    const auto *X = expCast<SliceExp>(&E);
    FUT_TRY(A, lookup(X->Arr, F));
    FUT_TRY(Off, readInt(X->Offset, F, "slice offset"));
    FUT_TRY(Len, readInt(X->Len, F, "slice length"));
    FUT_TRY(Str, readInt(X->Stride, F, "slice stride"));
    if (!A->isArray() || Off < 0 || Len < 0 || Str <= 0 ||
        (Len > 0 && Off + (Len - 1) * Str >= A->outerSize()))
      return CompilerError::runtime(E.Loc, "slice out of bounds");
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
    return MaybeError::success();
  }

  case ExpKind::Copy: {
    FUT_TRY(A, lookup(expCast<CopyExp>(&E)->Arr, F));
    if (A->isScalar()) {
      Out.push_back(*A);
      return MaybeError::success();
    }
    std::vector<PrimValue> Data = A->flat();
    std::vector<int64_t> Shape = A->shape();
    Out.push_back(
        Value::array(A->elemKind(), std::move(Shape), std::move(Data)));
    return MaybeError::success();
  }

  case ExpKind::Map: {
    const auto *X = expCast<MapExp>(&E);
    FUT_TRY(W, readInt(X->Width, F, "map width"));
    std::vector<Value> Arrays;
    for (const VName &N : X->Arrays) {
      FUT_TRY(A, lookup(N, F));
      if (!A->isArray() || A->outerSize() != W)
        return CompilerError(E.Loc, "map input " + N.str() +
                                        " has wrong outer size");
      Arrays.push_back(*A);
    }
    size_t NumRes = X->Fn.RetTypes.size();
    std::vector<std::vector<Value>> Columns(NumRes);
    std::vector<Value> Args, Res;
    for (int64_t I = 0; I < W; ++I) {
      Args.clear();
      for (const Value &A : Arrays)
        Args.push_back(A.row(I));
      Res.clear();
      FUT_CHECK(callLambda(X->Fn, Args, F, Res));
      if (Res.size() != NumRes)
        return CompilerError(E.Loc, "map function arity mismatch");
      for (size_t J = 0; J < NumRes; ++J)
        Columns[J].push_back(std::move(Res[J]));
    }
    for (size_t J = 0; J < NumRes; ++J) {
      if (W == 0) {
        // Empty result with the statically known row shape where possible.
        Out.push_back(Value::array(X->Fn.RetTypes[J].elemKind(), {0}, {}));
        continue;
      }
      FUT_TRY(Col, assembleArray(Columns[J]));
      Out.push_back(std::move(Col));
    }
    return MaybeError::success();
  }

  case ExpKind::Reduce: {
    const auto *X = expCast<ReduceExp>(&E);
    FUT_TRY(W, readInt(X->Width, F, "reduce width"));
    std::vector<Value> Acc;
    for (const SubExp &S : X->Neutral) {
      FUT_TRY(V, read(S, F));
      Acc.push_back(std::move(V));
    }
    std::vector<Value> Arrays;
    for (const VName &N : X->Arrays) {
      FUT_TRY(A, lookup(N, F));
      if (!A->isArray() || A->outerSize() != W)
        return CompilerError(E.Loc, "reduce input has wrong outer size");
      Arrays.push_back(*A);
    }
    std::vector<Value> Args;
    for (int64_t I = 0; I < W; ++I) {
      Args = std::move(Acc);
      for (const Value &A : Arrays)
        Args.push_back(A.row(I));
      Acc.clear();
      FUT_CHECK(callLambda(X->Fn, Args, F, Acc));
    }
    Out = std::move(Acc);
    return MaybeError::success();
  }

  case ExpKind::Scan: {
    const auto *X = expCast<ScanExp>(&E);
    FUT_TRY(W, readInt(X->Width, F, "scan width"));
    std::vector<Value> Acc;
    for (const SubExp &S : X->Neutral) {
      FUT_TRY(V, read(S, F));
      Acc.push_back(std::move(V));
    }
    std::vector<Value> Arrays;
    for (const VName &N : X->Arrays) {
      FUT_TRY(A, lookup(N, F));
      if (!A->isArray() || A->outerSize() != W)
        return CompilerError(E.Loc, "scan input has wrong outer size");
      Arrays.push_back(*A);
    }
    std::vector<std::vector<Value>> Columns(Acc.size());
    std::vector<Value> Args;
    for (int64_t I = 0; I < W; ++I) {
      Args = std::move(Acc);
      for (const Value &A : Arrays)
        Args.push_back(A.row(I));
      Acc.clear();
      FUT_CHECK(callLambda(X->Fn, Args, F, Acc));
      for (size_t J = 0; J < Acc.size() && J < Columns.size(); ++J)
        Columns[J].push_back(Acc[J]);
    }
    for (size_t J = 0; J < Columns.size(); ++J) {
      if (W == 0) {
        Out.push_back(Value::array(X->Fn.RetTypes[J].elemKind(), {0}, {}));
        continue;
      }
      FUT_TRY(Col, assembleArray(Columns[J]));
      Out.push_back(std::move(Col));
    }
    return MaybeError::success();
  }

  case ExpKind::ReduceByIndex:
    return evalReduceByIndex(*expCast<ReduceByIndexExp>(&E), F, Out);

  case ExpKind::Stream:
    return evalStream(*expCast<StreamExp>(&E), F, Out);

  case ExpKind::Kernel: {
    const auto &K = *expCast<KernelExp>(&E);
    if (!Opts.HandleKernel)
      return evalKernel(K, F, Out);
    FUT_TRY(R, Opts.HandleKernel(K, F));
    Out = std::move(R);
    return MaybeError::success();
  }
  }
  return CompilerError(E.Loc, "unhandled expression kind in interpreter");
}

MaybeError Interpreter::evalUpdate(const UpdateExp &X, InterpFrame &F,
                                   std::vector<Value> &Out) {
  FUT_TRY(A, consumeToMutate(X.Arr, F));
  std::vector<int64_t> Idx;
  for (const SubExp &S : X.Indices) {
    FUT_TRY(I, readInt(S, F, "index"));
    Idx.push_back(I);
  }
  FUT_TRY(V, read(X.Value, F));
  if (!A.inBounds(Idx))
    return CompilerError::runtime(X.Loc, "update index out of bounds for " +
                                             X.Arr.str());
  if (Idx.size() == A.shape().size()) {
    if (!V.isScalar())
      return CompilerError(X.Loc, "updating element with non-scalar");
    int64_t Off = A.flatIndex(Idx);
    A.flatMut()[Off] = V.getScalar();
    Out.push_back(std::move(A));
    return MaybeError::success();
  }
  // Bulk update of a whole subarray.
  int64_t Rows = 1;
  for (size_t I = 0; I < Idx.size(); ++I)
    Rows *= A.shape()[I];
  if (V.isScalar() || V.numElems() != A.numElems() / Rows)
    return CompilerError(X.Loc, "bulk update value has wrong size");
  int64_t Inner = V.numElems();
  int64_t Off = 0;
  for (size_t I = 0; I < Idx.size(); ++I)
    Off = Off * A.shape()[I] + Idx[I];
  Off *= Inner;
  auto &Flat = A.flatMut();
  for (int64_t I = 0; I < Inner; ++I)
    Flat[Off + I] = V.flat()[I];
  Out.push_back(std::move(A));
  return MaybeError::success();
}

MaybeError Interpreter::evalLoop(const LoopExp &X, InterpFrame &F,
                                 std::vector<Value> &Out) {
  FUT_TRY(BoundV, read(X.Bound, F));
  FUT_TRY(Bound, scalarInt(BoundV, "loop bound"));
  auto Movable = F.L.MovableInits.find(&X);
  std::vector<Value> Merge;
  for (size_t J = 0; J < X.MergeInit.size(); ++J) {
    const SubExp &S = X.MergeInit[J];
    if (Movable != F.L.MovableInits.end() && Movable->second[J]) {
      FUT_TRY(V, consume(S.getVar(), F));
      Merge.push_back(std::move(V));
      continue;
    }
    FUT_TRY(V, read(S, F));
    Merge.push_back(std::move(V));
  }
  ScalarKind IdxKind = BoundV.getScalar().kind();
  int32_t IdxSlot = F.L.slotOf(X.IndexVar);
  std::vector<Value> Next;
  ++F.Level;
  for (int64_t I = 0; I < Bound; ++I) {
    size_t Mark = F.mark();
    F.bind(IdxSlot, Value::scalar(intOfKind(IdxKind, I)));
    for (size_t J = 0; J < X.MergeParams.size(); ++J)
      FUT_CHECK(bindParam(F, X.MergeParams[J], std::move(Merge[J])));
    Next.clear();
    FUT_CHECK(runBody(X.LoopBody, F, Next));
    F.unwind(Mark);
    if (Next.size() != Merge.size())
      return CompilerError(X.Loc, "loop body arity mismatch");
    std::swap(Merge, Next);
  }
  --F.Level;
  Out = std::move(Merge);
  return MaybeError::success();
}

MaybeError Interpreter::evalReduceByIndex(const ReduceByIndexExp &X,
                                          InterpFrame &F,
                                          std::vector<Value> &Out) {
  FUT_TRY(W, readInt(X.Width, F, "reduce_by_index width"));
  FUT_TRY(Dest, lookup(X.Dest, F));
  if (!Dest->isArray() || Dest->outerSize() != W)
    return CompilerError(X.Loc,
                         "reduce_by_index destination has wrong outer size");
  FUT_TRY(D, consumeToMutate(X.Dest, F));
  FUT_TRY(IA, lookup(X.IndexArr, F));
  if (!IA->isArray())
    return CompilerError(X.Loc, "reduce_by_index indices are not an array");
  Value Indices = *IA;
  int64_t N = Indices.outerSize();
  std::vector<Value> Arrays;
  for (const VName &A : X.ValueArrs) {
    FUT_TRY(V, lookup(A, F));
    if (!V->isArray() || V->outerSize() != N)
      return CompilerError(X.Loc, "reduce_by_index value array " + A.str() +
                                      " has wrong outer size");
    Arrays.push_back(*V);
  }
  std::vector<PrimValue> &Data = D.flatMut();
  std::vector<Value> Args, Val, Comb;
  for (int64_t J = 0; J < N; ++J) {
    FUT_TRY(Bin, scalarInt(Indices.row(J), "reduce_by_index bin"));
    // The value is computed before the bounds check (every device thread
    // runs its body), so runtime errors inside the value function agree
    // between the interpreter and the compiled path.
    Args.clear();
    for (const Value &A : Arrays)
      Args.push_back(A.row(J));
    Val.clear();
    FUT_CHECK(callLambda(X.ValueFn, Args, F, Val));
    if (Val.size() != 1 || !Val[0].isScalar())
      return CompilerError(X.Loc, "reduce_by_index value function must "
                                  "produce one scalar");
    if (Bin < 0 || Bin >= W)
      continue; // Out-of-range bins are skipped, never an error.
    Args.clear();
    Args.push_back(Value::scalar(Data[Bin]));
    Args.push_back(std::move(Val[0]));
    Comb.clear();
    FUT_CHECK(callLambda(X.CombineFn, Args, F, Comb));
    if (Comb.size() != 1 || !Comb[0].isScalar())
      return CompilerError(X.Loc, "reduce_by_index operator must produce one "
                                  "scalar");
    Data[Bin] = Comb[0].getScalar();
  }
  Out.push_back(std::move(D));
  return MaybeError::success();
}

MaybeError Interpreter::evalStream(const StreamExp &S, InterpFrame &F,
                                   std::vector<Value> &Out) {
  FUT_TRY(W, readInt(S.Width, F, "stream width"));
  std::vector<Value> Arrays;
  for (const VName &N : S.Arrays) {
    FUT_TRY(A, lookup(N, F));
    if (!A->isArray() || A->outerSize() != W)
      return CompilerError(S.Loc, "stream input has wrong outer size");
    Arrays.push_back(*A);
  }
  std::vector<Value> AccInit;
  for (const SubExp &I : S.AccInit) {
    FUT_TRY(V, read(I, F));
    AccInit.push_back(std::move(V));
  }
  if (static_cast<int>(AccInit.size()) != S.NumAccs)
    return CompilerError::runtime(
        "stream accumulator count mismatch: " +
        std::to_string(AccInit.size()) + " initialisers for " +
        std::to_string(S.NumAccs) + " accumulators");

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
  ScalarKind ChunkKind = S.FoldFn.Params.empty()
                             ? ScalarKind::I32
                             : S.FoldFn.Params[0].Ty.elemKind();

  size_t NumMapped = S.FoldFn.RetTypes.size() - S.NumAccs;
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
    if (S.Form == StreamExp::FormKind::Seq)
      for (Value &A : Accs)
        Args.push_back(std::move(A));
    else if (S.Form == StreamExp::FormKind::Red)
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
    FUT_CHECK(callLambda(S.FoldFn, Args, F, Res));
    if (Res.size() != S.FoldFn.RetTypes.size())
      return CompilerError(S.Loc, "stream fold arity mismatch");

    switch (S.Form) {
    case StreamExp::FormKind::Par:
      break;
    case StreamExp::FormKind::Seq:
      Accs.assign(std::make_move_iterator(Res.begin()),
                  std::make_move_iterator(Res.begin() + S.NumAccs));
      break;
    case StreamExp::FormKind::Red: {
      // Combine with the running accumulator via the associative operator.
      CombArgs = std::move(Accs);
      CombArgs.insert(CombArgs.end(), std::make_move_iterator(Res.begin()),
                      std::make_move_iterator(Res.begin() + S.NumAccs));
      Accs.clear();
      FUT_CHECK(callLambda(S.ReduceFn, CombArgs, F, Accs));
      break;
    }
    }
    for (size_t J = 0; J < NumMapped; ++J)
      MappedChunks[J].push_back(std::move(Res[S.NumAccs + J]));
  }

  Out = std::move(Accs);
  for (size_t J = 0; J < NumMapped; ++J) {
    if (MappedChunks[J].empty()) {
      Out.push_back(Value::array(
          S.FoldFn.RetTypes[S.NumAccs + J].elemKind(), {0}, {}));
      continue;
    }
    FUT_TRY(Col, concatValues(MappedChunks[J]));
    Out.push_back(std::move(Col));
  }
  return MaybeError::success();
}

MaybeError Interpreter::evalKernel(const KernelExp &K, InterpFrame &F,
                                   std::vector<Value> &Out) {
  // Resolve grid dimensions.
  std::vector<int64_t> Grid;
  for (const SubExp &D : K.GridDims) {
    FUT_TRY(I, readInt(D, F, "grid dimension"));
    Grid.push_back(I);
  }
  int64_t NumGroups = 1;
  for (int64_t G : Grid)
    NumGroups *= G;
  std::vector<int32_t> IdxSlots;
  for (const VName &T : K.ThreadIndices)
    IdxSlots.push_back(F.L.slotOf(T));
  // Runs the thread body at one grid position (and segment position) in a
  // fresh scope.
  std::vector<Value> Res;
  auto RunThread = [&](const std::vector<int64_t> &Idx,
                       int64_t Seg) -> MaybeError {
    ++F.Level;
    size_t Mark = F.mark();
    for (size_t I = 0; I < Grid.size(); ++I)
      F.bind(IdxSlots[I], i32Value(Idx[I]));
    if (Seg >= 0)
      F.bind(F.L.slotOf(K.SegIndex), i32Value(Seg));
    Res.clear();
    FUT_CHECK(runBody(K.ThreadBody, F, Res));
    F.unwind(Mark);
    --F.Level;
    return MaybeError::success();
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
    FUT_TRY(W, readInt(K.HistWidth, F, "histogram width"));
    FUT_TRY(Dest, lookup(K.HistDest, F));
    if (!Dest->isArray() || Dest->outerSize() != W)
      return CompilerError(K.Loc, "seghist destination has wrong outer size");
    FUT_TRY(D, consumeToMutate(K.HistDest, F));
    std::vector<PrimValue> &Data = D.flatMut();
    std::vector<int64_t> HIdx(Grid.size(), 0);
    for (int64_t G = 0; G < NumGroups; ++G) {
      FUT_CHECK(RunThread(HIdx, -1));
      if (Res.size() != 2 || !Res[0].isScalar() || !Res[1].isScalar())
        return CompilerError(K.Loc,
                             "seghist thread body must produce (bin, value)");
      FUT_TRY(Bin, scalarInt(Res[0], "seghist bin"));
      if (Bin >= 0 && Bin < W) {
        Args.clear();
        Args.push_back(Value::scalar(Data[Bin]));
        Args.push_back(std::move(Res[1]));
        Comb.clear();
        FUT_CHECK(callLambda(K.ReduceFn, Args, F, Comb));
        if (Comb.size() != 1 || !Comb[0].isScalar())
          return CompilerError(K.Loc,
                               "seghist operator must produce one scalar");
        Data[Bin] = Comb[0].getScalar();
      }
      Advance(HIdx);
    }
    Out.push_back(std::move(D));
    return MaybeError::success();
  }

  int64_t SegSize = 1;
  if (K.isSegmented()) {
    FUT_TRY(I, readInt(K.SegSize, F, "segment size"));
    SegSize = I;
  }

  size_t NumRes = K.isSegmented() ? K.Neutral.size() : K.RetTypes.size();
  std::vector<std::vector<Value>> PerPos(NumRes);

  std::vector<int64_t> Idx(Grid.size(), 0);
  for (int64_t G = 0; G < NumGroups; ++G) {
    if (!K.isSegmented()) {
      FUT_CHECK(RunThread(Idx, -1));
      for (size_t J = 0; J < NumRes; ++J)
        PerPos[J].push_back(std::move(Res[J]));
    } else {
      // Evaluate the per-element values, then combine within the segment.
      std::vector<Value> Acc;
      for (const SubExp &N : K.Neutral) {
        FUT_TRY(V, read(N, F));
        Acc.push_back(std::move(V));
      }
      std::vector<std::vector<Value>> ScanCols(NumRes);
      for (int64_t S = 0; S < SegSize; ++S) {
        FUT_CHECK(RunThread(Idx, S));
        Args = std::move(Acc);
        for (Value &V : Res)
          Args.push_back(std::move(V));
        Acc.clear();
        FUT_CHECK(callLambda(K.ReduceFn, Args, F, Acc));
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
          FUT_TRY(Col, assembleArray(ScanCols[J]));
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
    FUT_TRY(FlatV, assembleArray(PerPos[J]));
    // Reshape the flat outer dimension into the grid shape.
    std::vector<int64_t> Shape = Grid;
    const Value &First = PerPos[J][0];
    if (First.isArray())
      Shape.insert(Shape.end(), First.shape().begin(), First.shape().end());
    std::vector<PrimValue> Data = FlatV.flat();
    Out.push_back(
        Value::array(FlatV.elemKind(), std::move(Shape), std::move(Data)));
  }
  return MaybeError::success();
}
