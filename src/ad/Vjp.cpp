//===- Vjp.cpp - Reverse-mode AD (vector-Jacobian products) ---------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "ad/Vjp.h"

#include "ir/Builder.h"
#include "ir/Traversal.h"
#include "trace/Trace.h"

#include <algorithm>
#include <sstream>

using namespace fut;
using namespace fut::ad;

std::string fut::ad::vjpName(const std::string &Fun) { return Fun + "_vjp"; }

namespace {

/// A value is "active" when perturbing it can change a float result:
/// structurally, exactly the float-element types.  Integers and booleans
/// carry no adjoint.
bool activeType(const Type &T) { return isFloatKind(T.elemKind()); }

SubExp zeroConst(ScalarKind K) {
  return SubExp::constant(PrimValue::zeroOf(K));
}

SubExp oneConst(ScalarKind K) {
  switch (K) {
  case ScalarKind::F32:
    return f32c(1.0f);
  case ScalarKind::F64:
    return f64c(1.0);
  case ScalarKind::I32:
    return i32(1);
  case ScalarKind::I64:
    return i64c(1);
  case ScalarKind::Bool:
    return boolc(true);
  }
  return i32(1);
}

/// Matches a two-parameter scalar lambda of the binOpLambda shape:
/// \x y -> x `op` y (one BinOp binding returned directly).  Fills \p Op.
bool matchBinOpLambda(const Lambda &L, BinOp &Op) {
  if (L.Params.size() != 2 || L.B.Stms.size() != 1 || L.B.Result.size() != 1)
    return false;
  const auto *B = expDynCast<BinOpExp>(L.B.Stms[0].E.get());
  if (!B || L.B.Stms[0].Pat.size() != 1)
    return false;
  const SubExp &R = L.B.Result[0];
  if (!R.isVar() || !(R.getVar() == L.B.Stms[0].Pat[0].Name))
    return false;
  const VName &P0 = L.Params[0].Name, &P1 = L.Params[1].Name;
  auto IsP = [](const SubExp &S, const VName &N) {
    return S.isVar() && S.getVar() == N;
  };
  if ((IsP(B->A, P0) && IsP(B->B, P1)) || (IsP(B->A, P1) && IsP(B->B, P0))) {
    Op = B->Op;
    return true;
  }
  return false;
}

/// Matches the vectorisedBinOpLambda shape: \xs ys -> map (op) xs ys on
/// rank-1 rows.  Fills the scalar \p Op.
bool matchVectorisedBinOpLambda(const Lambda &L, BinOp &Op) {
  if (L.Params.size() != 2 || L.B.Stms.size() != 1 || L.B.Result.size() != 1)
    return false;
  if (!L.Params[0].Ty.isArray())
    return false;
  const auto *M = expDynCast<MapExp>(L.B.Stms[0].E.get());
  if (!M || M->Arrays.size() != 2 || L.B.Stms[0].Pat.size() != 1)
    return false;
  const SubExp &R = L.B.Result[0];
  if (!R.isVar() || !(R.getVar() == L.B.Stms[0].Pat[0].Name))
    return false;
  const VName &P0 = L.Params[0].Name, &P1 = L.Params[1].Name;
  bool ArraysMatch = (M->Arrays[0] == P0 && M->Arrays[1] == P1) ||
                     (M->Arrays[0] == P1 && M->Arrays[1] == P0);
  return ArraysMatch && matchBinOpLambda(M->Fn, Op);
}

/// Matches the identity lambda \x -> x (reduce_by_index's unfused value
/// function).
bool matchIdentityLambda(const Lambda &L) {
  return L.Params.size() == 1 && L.B.Stms.empty() && L.B.Result.size() == 1 &&
         L.B.Result[0].isVar() && L.B.Result[0].getVar() == L.Params[0].Name;
}

class VjpEmitter {
public:
  VjpEmitter(NameSource &Names) : Names(Names) {}

  ErrorOr<FunDef> run(const FunDef &F);
  const VjpStats &stats() const { return Stats; }

private:
  NameSource &Names;
  VjpStats Stats;
  /// Types of every name in scope anywhere in the generated function.
  /// Names are globally unique (everything we emit is freshly renamed), so
  /// one flat map suffices.
  NameMap<Type> TypeOf;

  /// Reverse-sweep state for one body.
  struct Sweep {
    NameMap<SubExp> Adj;   ///< Current adjoint per (active) name.
    NameMap<VName> Saved;  ///< Consumed name -> save-on-consume copy.
  };

  CompilerError unsupported(const std::string &What) {
    return CompilerError("vjp: " + What);
  }

  void know(const VName &N, Type T) { TypeOf[N] = std::move(T); }
  void knowPat(const std::vector<Param> &Pat) {
    for (const Param &P : Pat)
      know(P.Name, P.Ty);
  }

  ErrorOr<Type> typeOfSub(const SubExp &S) {
    if (S.isConst())
      return Type::scalar(S.getConst().kind());
    auto It = TypeOf.find(S.getVar());
    if (It == TypeOf.end())
      return unsupported("unknown type of " + S.getVar().str() +
                         " during differentiation");
    return It->second;
  }

  /// Primal read: routes a variable through its save-on-consume copy.
  SubExp prim(const Sweep &SW, const SubExp &S) const {
    if (S.isConst())
      return S;
    auto It = SW.Saved.find(S.getVar());
    return It == SW.Saved.end() ? S : SubExp::var(It->second);
  }
  VName primVar(const Sweep &SW, const VName &N) const {
    auto It = SW.Saved.find(N);
    return It == SW.Saved.end() ? N : It->second;
  }

  /// A zero value of type \p T (rank arbitrary), emitted into \p BB.
  SubExp zeroOf(const Type &T, BodyBuilder &BB) {
    if (T.isScalar())
      return zeroConst(T.elemKind());
    Type Row = T.rowType();
    SubExp Z = zeroOf(Row, BB);
    VName N = BB.bind("adz", T.asNonUnique(),
                      std::make_unique<ReplicateExp>(T.outerDim(), Z, Row));
    know(N, T.asNonUnique());
    return SubExp::var(N);
  }

  /// Loop bounds in generated reverse loops: the verifier types every loop
  /// index variable as i32 and the interpreter gives index values the
  /// bound's kind, so index arithmetic is only well-kinded when the bound
  /// itself is i32.  Normalises a bound of any integer kind.
  ErrorOr<SubExp> boundAsI32(const SubExp &W, BodyBuilder &BB) {
    auto T = typeOfSub(W);
    if (!T)
      return T.getError();
    if (T->elemKind() == ScalarKind::I32)
      return W;
    SubExp C = BB.convOp(T->elemKind(), ScalarKind::I32, W, "adw");
    know(C.getVar(), Type::scalar(ScalarKind::I32));
    return C;
  }

  /// A lambda (\a b -> a + b) on values of type \p T (elementwise for
  /// arrays, any rank).
  Lambda addLambda(const Type &T) {
    std::vector<Param> Ps{Param(Names.fresh("aa"), T.asNonUnique()),
                          Param(Names.fresh("ab"), T.asNonUnique())};
    BodyBuilder LB(Names);
    know(Ps[0].Name, Ps[0].Ty);
    know(Ps[1].Name, Ps[1].Ty);
    SubExp R = addValues(SubExp::var(Ps[0].Name), SubExp::var(Ps[1].Name), T,
                         LB);
    return Lambda(std::move(Ps), LB.finish({R}), {T.asNonUnique()});
  }

  /// Emits A + B of type \p T (elementwise for arrays).
  SubExp addValues(const SubExp &A, const SubExp &B, const Type &T,
                   BodyBuilder &BB) {
    if (T.isScalar())
      return BB.binOp(BinOp::Add, A, B, T.elemKind(), "adj");
    Lambda L = addLambda(T.rowType());
    std::vector<Type> RT{T.asNonUnique()};
    std::vector<VName> Out = BB.bindMulti(
        "adj", RT,
        std::make_unique<MapExp>(T.outerDim(), std::move(L),
                                 std::vector<VName>{A.getVar(), B.getVar()}));
    know(Out[0], T.asNonUnique());
    return SubExp::var(Out[0]);
  }

  /// Accumulates \p C into the adjoint of \p N (no-op for inactive types).
  MaybeError addAdj(Sweep &SW, const VName &N, const SubExp &C,
                    BodyBuilder &BB) {
    auto It = TypeOf.find(N);
    if (It == TypeOf.end())
      return MaybeError::success(); // e.g. a function-external constant name
    const Type &T = It->second;
    if (!activeType(T))
      return MaybeError::success();
    auto Cur = SW.Adj.find(N);
    if (Cur == SW.Adj.end()) {
      SW.Adj.emplace(N, C);
      return MaybeError::success();
    }
    SubExp Sum = addValues(Cur->second, C, T, BB);
    Cur->second = Sum;
    return MaybeError::success();
  }
  /// addAdj through a SubExp (constants have no adjoint).
  MaybeError addAdjSub(Sweep &SW, const SubExp &S, const SubExp &C,
                       BodyBuilder &BB) {
    if (S.isConst())
      return MaybeError::success();
    return addAdj(SW, S.getVar(), C, BB);
  }

  /// The current adjoint of \p N, or a fresh zero of its type.
  ErrorOr<SubExp> adjOf(Sweep &SW, const VName &N, BodyBuilder &BB) {
    auto It = SW.Adj.find(N);
    if (It != SW.Adj.end())
      return It->second;
    auto T = typeOfSub(SubExp::var(N));
    if (!T)
      return T.getError();
    SubExp Z = zeroOf(*T, BB);
    SW.Adj.emplace(N, Z);
    return Z;
  }

  bool hasAdj(const Sweep &SW, const VName &N) const {
    return SW.Adj.count(N) != 0;
  }
  bool anyPatAdj(const Sweep &SW, const std::vector<Param> &Pat) const {
    for (const Param &P : Pat)
      if (hasAdj(SW, P.Name))
        return true;
    return false;
  }

  /// Emits `copy A` and returns the fresh name (same type as A).
  ErrorOr<VName> copyArray(const VName &A, BodyBuilder &BB,
                           const char *Base = "adc") {
    auto T = typeOfSub(SubExp::var(A));
    if (!T)
      return T.getError();
    VName C = BB.bind(Base, T->asNonUnique(), std::make_unique<CopyExp>(A));
    know(C, T->asNonUnique());
    return C;
  }

  /// Converts an integer SubExp to kind \p To if needed.
  ErrorOr<SubExp> intAs(const SubExp &S, ScalarKind To, BodyBuilder &BB) {
    auto T = typeOfSub(S);
    if (!T)
      return T.getError();
    if (T->elemKind() == To)
      return S;
    SubExp C = BB.convOp(T->elemKind(), To, S, "adi");
    know(C.getVar(), Type::scalar(To));
    return C;
  }

  /// The active ("adjoint-carrying") free variables of \p E, excluding
  /// \p Exclude, in deterministic order.
  std::vector<VName> activeFreeVars(const Exp &E, const NameSet &Exclude) {
    NameSet FV = freeVarsInExp(E);
    std::vector<VName> Out;
    for (const VName &N : FV) {
      if (Exclude.count(N))
        continue;
      auto It = TypeOf.find(N);
      if (It != TypeOf.end() && activeType(It->second))
        Out.push_back(N);
    }
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  /// The core routine: appends to \p BB a freshly renamed forward clone of
  /// \p B (under \p Outer, with save-on-consume copies), then the reverse
  /// sweep seeded by \p Seeds (aligned with B.Result), and returns the
  /// renamed primal results together with the adjoints of \p Targets
  /// (zeros where nothing flowed).  Target names must be valid after the
  /// \p Outer substitution (enclosing-scope names or substituted params).
  struct BodyVjp {
    std::vector<SubExp> PrimalResults;
    std::vector<SubExp> TargetAdjoints;
  };
  ErrorOr<BodyVjp> emitBodyVjp(const Body &B, const NameMap<SubExp> &Outer,
                               const std::vector<SubExp> &Seeds,
                               const std::vector<VName> &Targets,
                               BodyBuilder &BB, bool TopLevel = false);

  /// Per-iteration tape bookkeeping for an augmented loop.
  struct LoopTape {
    std::vector<VName> TapeArrays; ///< One [bound]xT per merge param.
  };

  MaybeError emitForward(Stm S, Sweep &SW, BodyBuilder &BB,
                         NameMap<LoopTape> &Tapes);
  MaybeError reverseStm(const Stm &S, Sweep &SW, BodyBuilder &BB,
                        const NameMap<LoopTape> &Tapes);

  // Reverse rules for individual constructs (S is the renamed stm as
  // emitted by the forward sweep; for loops the *original* un-augmented
  // exp plus its LoopTape).
  MaybeError reverseBinOp(const Stm &S, const BinOpExp &E, Sweep &SW,
                          BodyBuilder &BB);
  MaybeError reverseUnOp(const Stm &S, const UnOpExp &E, Sweep &SW,
                         BodyBuilder &BB);
  MaybeError reverseIndex(const Stm &S, const IndexExp &E, Sweep &SW,
                          BodyBuilder &BB);
  MaybeError reverseUpdate(const Stm &S, const UpdateExp &E, Sweep &SW,
                           BodyBuilder &BB);
  MaybeError reverseIf(const Stm &S, const IfExp &E, Sweep &SW,
                       BodyBuilder &BB);
  MaybeError reverseMap(const Stm &S, const MapExp &E, Sweep &SW,
                        BodyBuilder &BB);
  MaybeError reverseReduce(const Stm &S, const ReduceExp &E, Sweep &SW,
                           BodyBuilder &BB);
  MaybeError reverseScan(const Stm &S, const ScanExp &E, Sweep &SW,
                         BodyBuilder &BB);
  MaybeError reverseReduceByIndex(const Stm &S, const ReduceByIndexExp &E,
                                  Sweep &SW, BodyBuilder &BB);
  MaybeError reverseLoop(const Stm &S, const LoopExp &E, Sweep &SW,
                         BodyBuilder &BB, const LoopTape &Tape);
  MaybeError reverseConcat(const Stm &S, const ConcatExp &E, Sweep &SW,
                           BodyBuilder &BB);
  MaybeError reverseSlice(const Stm &S, const SliceExp &E, Sweep &SW,
                          BodyBuilder &BB);
  MaybeError reverseReplicate(const Stm &S, const ReplicateExp &E, Sweep &SW,
                              BodyBuilder &BB);

  /// Emits the map-of-pulled-back-lambda shared by reverseMap and the
  /// reduce_by_index value-function pullback: maps \p Fn's pullback over
  /// \p Arrays with per-element result seeds \p SeedArrs (aligned with the
  /// active results of Fn), accumulating adjoints of the active arrays and
  /// of the lambda's free variables.
  MaybeError pullbackThroughMap(const Lambda &Fn,
                                const std::vector<VName> &Arrays,
                                const SubExp &Width,
                                const std::vector<VName> &SeedArrs,
                                Sweep &SW, BodyBuilder &BB);
};

ErrorOr<FunDef> VjpEmitter::run(const FunDef &F) {
  FunDef G;
  G.Name = vjpName(F.Name);

  // Primal parameters, renamed and stripped of uniqueness (the VJP reads
  // every input twice: forward and reverse).
  NameMap<SubExp> ParamSub;
  for (const Param &P : F.Params) {
    VName N = Names.freshFrom(P.Name);
    Type T = P.Ty.asNonUnique();
    ParamSub[P.Name] = SubExp::var(N);
    G.Params.emplace_back(N, T);
    know(N, T);
  }

  // Seed parameters: one per active result, typed like the result with
  // parameter-expressible dimensions.
  std::vector<SubExp> Seeds(F.RetTypes.size(), i32(0));
  for (size_t I = 0; I < F.RetTypes.size(); ++I) {
    Type RT = substituteInType(ParamSub, F.RetTypes[I]).asNonUnique();
    if (!activeType(RT))
      continue;
    for (const Dim &D : RT.shape())
      if (D.isVar() && !TypeOf.count(D.getVar()))
        return unsupported("result " + std::to_string(I) + " of " + F.Name +
                           " has a size (" + D.getVar().str() +
                           ") not expressible from the parameters");
    VName S = Names.fresh("seed");
    G.Params.emplace_back(S, RT);
    know(S, RT);
    Seeds[I] = SubExp::var(S);
  }

  // Return types: primal results, then the adjoint of every active param.
  std::vector<VName> Targets;
  for (const Type &RT : F.RetTypes)
    G.RetTypes.push_back(substituteInType(ParamSub, RT).asNonUnique());
  for (size_t I = 0; I < F.Params.size(); ++I) {
    const Param &NP = G.Params[I];
    if (activeType(NP.Ty)) {
      Targets.push_back(NP.Name);
      G.RetTypes.push_back(NP.Ty);
    }
  }

  BodyBuilder BB(Names);
  auto Out = emitBodyVjp(F.FBody, ParamSub, Seeds, Targets, BB,
                         /*TopLevel=*/true);
  if (!Out)
    return Out.getError();
  std::vector<SubExp> Results = std::move(Out->PrimalResults);
  for (SubExp &A : Out->TargetAdjoints)
    Results.push_back(std::move(A));
  G.FBody = BB.finish(std::move(Results));
  return G;
}

ErrorOr<VjpEmitter::BodyVjp>
VjpEmitter::emitBodyVjp(const Body &B, const NameMap<SubExp> &Outer,
                        const std::vector<SubExp> &Seeds,
                        const std::vector<VName> &Targets, BodyBuilder &BB,
                        bool TopLevel) {
  Body RB = renameBody(B, Names, Outer);

  // Forward sweep: save-on-consume copies, loop tape augmentation, and the
  // renamed statements themselves.
  Sweep SW;
  NameMap<LoopTape> Tapes;
  std::vector<Stm> Order; // reverse-sweep worklist (forward order)
  for (Stm &S : RB.Stms) {
    Order.push_back(S); // copy: the emitted form may be augmented
    if (auto Err = emitForward(std::move(S), SW, BB, Tapes))
      return Err;
  }

  // Seed the result adjoints.  An integer-constant seed is the "no seed"
  // placeholder for a non-active result (a real seed for a float target is
  // never an integer constant), so it is skipped rather than mixed in.
  if (Seeds.size() != RB.Result.size())
    return unsupported("seed arity mismatch (" + std::to_string(Seeds.size()) +
                       " seeds for " + std::to_string(RB.Result.size()) +
                       " results)");
  for (size_t I = 0; I < RB.Result.size(); ++I) {
    if (!RB.Result[I].isVar())
      continue;
    if (Seeds[I].isConst() && !isFloatKind(Seeds[I].getConst().kind()))
      continue;
    if (auto Err = addAdjSub(SW, RB.Result[I], Seeds[I], BB))
      return Err;
  }

  // Reverse sweep.
  for (auto It = Order.rbegin(); It != Order.rend(); ++It)
    if (auto Err = reverseStm(*It, SW, BB, Tapes))
      return Err;

  BodyVjp Out;
  Out.PrimalResults = RB.Result;
  for (const VName &T : Targets) {
    auto A = adjOf(SW, T, BB);
    if (!A)
      return A.getError();
    Out.TargetAdjoints.push_back(*A);
  }
  (void)TopLevel;
  return Out;
}

MaybeError VjpEmitter::emitForward(Stm S, Sweep &SW, BodyBuilder &BB,
                                   NameMap<LoopTape> &Tapes) {
  knowPat(S.Pat);

  // Save-on-consume: before a statement consumes an array, copy it so the
  // reverse sweep can still read the primal value.  (Update and
  // reduce_by_index consume outright; a loop aliases array merge inits
  // into mutable merge state, which the compiled path may overwrite.)
  auto MaybeSave = [&](const VName &A) -> MaybeError {
    if (SW.Saved.count(A))
      return MaybeError::success();
    auto T = typeOfSub(SubExp::var(A));
    if (!T)
      return T.getError();
    if (!T->isArray())
      return MaybeError::success();
    auto C = copyArray(A, BB, "adsave");
    if (!C)
      return C.getError();
    SW.Saved[A] = *C;
    ++Stats.SavedArrays;
    return MaybeError::success();
  };

  if (const auto *U = expDynCast<UpdateExp>(S.E.get())) {
    if (auto Err = MaybeSave(U->Arr))
      return Err;
  } else if (const auto *R = expDynCast<ReduceByIndexExp>(S.E.get())) {
    if (auto Err = MaybeSave(R->Dest))
      return Err;
  } else if (auto *L = expDynCast<LoopExp>(S.E.get())) {
    for (const SubExp &Init : L->MergeInit)
      if (Init.isVar()) {
        auto T = typeOfSub(Init);
        if (T && T->isArray())
          if (auto Err = MaybeSave(Init.getVar()))
            return Err;
      }

    // Tape the loop when any merge parameter is active: record every merge
    // parameter's entry value per iteration (the stack of iterates).
    bool AnyActive = false;
    for (const Param &MP : L->MergeParams)
      if (activeType(MP.Ty))
        AnyActive = true;
    if (AnyActive) {
      LoopTape Tape;
      auto BoundT = typeOfSub(L->Bound);
      if (!BoundT)
        return BoundT.getError();
      std::vector<Param> AugParams = L->MergeParams;
      std::vector<SubExp> AugInit = L->MergeInit;
      std::vector<Stm> TapeWrites;
      std::vector<SubExp> TapeResults;
      for (const Param &MP : L->MergeParams) {
        Type TapeTy = MP.Ty.asNonUnique().arrayOf(L->Bound);
        SubExp TZ = zeroOf(TapeTy, BB);
        VName TP = Names.fresh("adtape");
        know(TP, TapeTy);
        AugParams.emplace_back(TP, TapeTy);
        AugInit.push_back(TZ);
        // adtape' = adtape with [i] <- merge-param (observed before the
        // body can consume the merge parameter).
        VName TPW = Names.fresh("adtape");
        know(TPW, TapeTy);
        TapeWrites.emplace_back(
            std::vector<Param>{Param(TPW, TapeTy)},
            std::make_unique<UpdateExp>(
                TP, std::vector<SubExp>{SubExp::var(L->IndexVar)},
                SubExp::var(MP.Name)));
        TapeResults.push_back(SubExp::var(TPW));
      }
      Body AugBody;
      AugBody.Stms = std::move(TapeWrites);
      for (Stm &BS : L->LoopBody.Stms)
        AugBody.Stms.push_back(std::move(BS));
      AugBody.Result = L->LoopBody.Result;
      for (SubExp &TR : TapeResults)
        AugBody.Result.push_back(TR);

      std::vector<Param> AugPat = S.Pat;
      for (size_t J = 0; J < L->MergeParams.size(); ++J) {
        Type TapeTy = L->MergeParams[J].Ty.asNonUnique().arrayOf(L->Bound);
        VName TO = Names.fresh("adtape");
        know(TO, TapeTy);
        AugPat.emplace_back(TO, TapeTy);
        Tape.TapeArrays.push_back(TO);
      }
      ++Stats.TapedLoops;
      Tapes.emplace(S.Pat[0].Name, Tape);
      BB.append(std::move(AugPat),
                std::make_unique<LoopExp>(std::move(AugParams),
                                          std::move(AugInit), L->IndexVar,
                                          L->Bound, std::move(AugBody)));
      return MaybeError::success();
    }
  }

  BB.append(std::move(S));
  return MaybeError::success();
}

MaybeError VjpEmitter::reverseStm(const Stm &S, Sweep &SW, BodyBuilder &BB,
                                  const NameMap<LoopTape> &Tapes) {
  const Exp &E = *S.E;
  // A statement participates in the reverse sweep only when an adjoint
  // actually reached one of its bindings.
  if (!anyPatAdj(SW, S.Pat))
    return MaybeError::success();
  ++Stats.DifferentiatedStms;

  switch (E.kind()) {
  case ExpKind::SubExpE: {
    const auto *X = expCast<SubExpExp>(&E);
    auto A = adjOf(SW, S.Pat[0].Name, BB);
    if (!A)
      return A.getError();
    return addAdjSub(SW, X->Val, *A, BB);
  }
  case ExpKind::BinOpE:
    return reverseBinOp(S, *expCast<BinOpExp>(&E), SW, BB);
  case ExpKind::UnOpE:
    return reverseUnOp(S, *expCast<UnOpExp>(&E), SW, BB);
  case ExpKind::ConvOpE: {
    const auto *X = expCast<ConvOpExp>(&E);
    if (!isFloatKind(X->Op.From))
      return MaybeError::success(); // d(conv int->float)/d int = 0
    auto A = adjOf(SW, S.Pat[0].Name, BB);
    if (!A)
      return A.getError();
    if (!isFloatKind(X->Op.To))
      return MaybeError::success();
    SubExp C = BB.convOp(X->Op.To, X->Op.From, *A, "adj");
    know(C.getVar(), Type::scalar(X->Op.From));
    return addAdjSub(SW, X->A, C, BB);
  }
  case ExpKind::If:
    return reverseIf(S, *expCast<IfExp>(&E), SW, BB);
  case ExpKind::Index:
    return reverseIndex(S, *expCast<IndexExp>(&E), SW, BB);
  case ExpKind::Apply:
    return unsupported("cannot differentiate a call to " +
                       expCast<ApplyExp>(&E)->Func +
                       " (functions must be inlined before --vjp)");
  case ExpKind::Loop: {
    auto It = Tapes.find(S.Pat[0].Name);
    if (It == Tapes.end())
      return MaybeError::success(); // no active merge: nothing flows
    return reverseLoop(S, *expCast<LoopExp>(&E), SW, BB, It->second);
  }
  case ExpKind::Update:
    return reverseUpdate(S, *expCast<UpdateExp>(&E), SW, BB);
  case ExpKind::Iota:
    return MaybeError::success();
  case ExpKind::Replicate:
    return reverseReplicate(S, *expCast<ReplicateExp>(&E), SW, BB);
  case ExpKind::Rearrange: {
    const auto *X = expCast<RearrangeExp>(&E);
    auto A = adjOf(SW, S.Pat[0].Name, BB);
    if (!A)
      return A.getError();
    auto XT = typeOfSub(SubExp::var(X->Arr));
    if (!XT)
      return XT.getError();
    VName R = BB.bind("adj", XT->asNonUnique(),
                      std::make_unique<RearrangeExp>(inversePerm(X->Perm),
                                                     A->getVar()));
    know(R, XT->asNonUnique());
    return addAdj(SW, X->Arr, SubExp::var(R), BB);
  }
  case ExpKind::Reshape: {
    const auto *X = expCast<ReshapeExp>(&E);
    auto A = adjOf(SW, S.Pat[0].Name, BB);
    if (!A)
      return A.getError();
    auto XT = typeOfSub(SubExp::var(X->Arr));
    if (!XT)
      return XT.getError();
    VName R = BB.bind("adj", XT->asNonUnique(),
                      std::make_unique<ReshapeExp>(XT->shape(), A->getVar()));
    know(R, XT->asNonUnique());
    return addAdj(SW, X->Arr, SubExp::var(R), BB);
  }
  case ExpKind::Concat:
    return reverseConcat(S, *expCast<ConcatExp>(&E), SW, BB);
  case ExpKind::Copy: {
    const auto *X = expCast<CopyExp>(&E);
    auto A = adjOf(SW, S.Pat[0].Name, BB);
    if (!A)
      return A.getError();
    return addAdj(SW, X->Arr, *A, BB);
  }
  case ExpKind::Slice:
    return reverseSlice(S, *expCast<SliceExp>(&E), SW, BB);
  case ExpKind::Map:
    return reverseMap(S, *expCast<MapExp>(&E), SW, BB);
  case ExpKind::Reduce:
    return reverseReduce(S, *expCast<ReduceExp>(&E), SW, BB);
  case ExpKind::Scan:
    return reverseScan(S, *expCast<ScanExp>(&E), SW, BB);
  case ExpKind::Stream:
    return unsupported(std::string("cannot differentiate ") +
                       expCast<StreamExp>(&E)->formName());
  case ExpKind::ReduceByIndex:
    return reverseReduceByIndex(S, *expCast<ReduceByIndexExp>(&E), SW, BB);
  case ExpKind::Kernel:
    return unsupported("cannot differentiate an extracted kernel (run "
                       "--vjp before kernel extraction)");
  }
  return MaybeError::success();
}

MaybeError VjpEmitter::reverseBinOp(const Stm &S, const BinOpExp &E, Sweep &SW,
                                    BodyBuilder &BB) {
  const Type &YT = S.Pat[0].Ty;
  if (!activeType(YT))
    return MaybeError::success();
  ScalarKind K = YT.elemKind();
  auto YB = adjOf(SW, S.Pat[0].Name, BB);
  if (!YB)
    return YB.getError();
  SubExp A = prim(SW, E.A), B = prim(SW, E.B);
  SubExp Y = SubExp::var(S.Pat[0].Name);
  switch (E.Op) {
  case BinOp::Add: {
    if (auto Err = addAdjSub(SW, E.A, *YB, BB))
      return Err;
    return addAdjSub(SW, E.B, *YB, BB);
  }
  case BinOp::Sub: {
    if (auto Err = addAdjSub(SW, E.A, *YB, BB))
      return Err;
    SubExp N = BB.unOp(UnOp::Neg, *YB, K, "adj");
    know(N.getVar(), Type::scalar(K));
    return addAdjSub(SW, E.B, N, BB);
  }
  case BinOp::Mul: {
    SubExp DA = BB.binOp(BinOp::Mul, *YB, B, K, "adj");
    know(DA.getVar(), Type::scalar(K));
    if (auto Err = addAdjSub(SW, E.A, DA, BB))
      return Err;
    SubExp DB = BB.binOp(BinOp::Mul, *YB, A, K, "adj");
    know(DB.getVar(), Type::scalar(K));
    return addAdjSub(SW, E.B, DB, BB);
  }
  case BinOp::Div: {
    SubExp DA = BB.binOp(BinOp::Div, *YB, B, K, "adj");
    know(DA.getVar(), Type::scalar(K));
    if (auto Err = addAdjSub(SW, E.A, DA, BB))
      return Err;
    if (E.B.isVar()) {
      // d/db (a/b) = -a/b^2 = -(y/b)
      SubExp T1 = BB.binOp(BinOp::Mul, *YB, Y, K, "adj");
      SubExp T2 = BB.binOp(BinOp::Div, T1, B, K, "adj");
      SubExp T3 = BB.unOp(UnOp::Neg, T2, K, "adj");
      know(T3.getVar(), Type::scalar(K));
      return addAdjSub(SW, E.B, T3, BB);
    }
    return MaybeError::success();
  }
  case BinOp::Pow: {
    // d/da a^b = b * a^(b-1); d/db a^b = a^b * log a.
    SubExp BM1 = BB.binOp(BinOp::Sub, B, oneConst(K), K, "adj");
    SubExp P = BB.binOp(BinOp::Pow, A, BM1, K, "adj");
    SubExp T1 = BB.binOp(BinOp::Mul, *YB, B, K, "adj");
    SubExp DA = BB.binOp(BinOp::Mul, T1, P, K, "adj");
    know(DA.getVar(), Type::scalar(K));
    if (auto Err = addAdjSub(SW, E.A, DA, BB))
      return Err;
    if (E.B.isVar()) {
      SubExp L = BB.unOp(UnOp::Log, A, K, "adj");
      SubExp T2 = BB.binOp(BinOp::Mul, *YB, Y, K, "adj");
      SubExp DB = BB.binOp(BinOp::Mul, T2, L, K, "adj");
      know(DB.getVar(), Type::scalar(K));
      return addAdjSub(SW, E.B, DB, BB);
    }
    return MaybeError::success();
  }
  case BinOp::Min:
  case BinOp::Max: {
    // The seed routes to whichever operand attains the result (ties to A,
    // matching the evaluator's pick).
    BinOp Cmp = E.Op == BinOp::Min ? BinOp::Leq : BinOp::Geq;
    SubExp C = BB.binOp(Cmp, A, B, K, "adc");
    know(C.getVar(), Type::scalar(ScalarKind::Bool));
    std::vector<Type> RT{Type::scalar(K), Type::scalar(K)};
    Body Then({}, {*YB, zeroConst(K)});
    Body Else({}, {zeroConst(K), *YB});
    std::vector<VName> Split = BB.bindMulti(
        "adj", RT,
        std::make_unique<IfExp>(C, std::move(Then), std::move(Else), RT));
    know(Split[0], Type::scalar(K));
    know(Split[1], Type::scalar(K));
    if (auto Err = addAdjSub(SW, E.A, SubExp::var(Split[0]), BB))
      return Err;
    return addAdjSub(SW, E.B, SubExp::var(Split[1]), BB);
  }
  default:
    // Comparisons and logical operators produce booleans: inactive.
    return MaybeError::success();
  }
}

MaybeError VjpEmitter::reverseUnOp(const Stm &S, const UnOpExp &E, Sweep &SW,
                                   BodyBuilder &BB) {
  const Type &YT = S.Pat[0].Ty;
  if (!activeType(YT))
    return MaybeError::success();
  ScalarKind K = YT.elemKind();
  auto YB = adjOf(SW, S.Pat[0].Name, BB);
  if (!YB)
    return YB.getError();
  SubExp A = prim(SW, E.A);
  SubExp Y = SubExp::var(S.Pat[0].Name);
  SubExp D;
  switch (E.Op) {
  case UnOp::Neg:
    D = BB.unOp(UnOp::Neg, *YB, K, "adj");
    break;
  case UnOp::Abs: {
    SubExp Sg = BB.unOp(UnOp::Signum, A, K, "adj");
    D = BB.binOp(BinOp::Mul, *YB, Sg, K, "adj");
    break;
  }
  case UnOp::Sqrt: {
    // d sqrt a = 1/(2 sqrt a) = 0.5/y.
    SubExp H = K == ScalarKind::F32 ? f32c(0.5f) : f64c(0.5);
    SubExp T = BB.binOp(BinOp::Mul, *YB, H, K, "adj");
    D = BB.binOp(BinOp::Div, T, Y, K, "adj");
    break;
  }
  case UnOp::Exp:
    D = BB.binOp(BinOp::Mul, *YB, Y, K, "adj");
    break;
  case UnOp::Log:
    D = BB.binOp(BinOp::Div, *YB, A, K, "adj");
    break;
  case UnOp::Sin: {
    SubExp C = BB.unOp(UnOp::Cos, A, K, "adj");
    D = BB.binOp(BinOp::Mul, *YB, C, K, "adj");
    break;
  }
  case UnOp::Cos: {
    SubExp Sn = BB.unOp(UnOp::Sin, A, K, "adj");
    SubExp T = BB.binOp(BinOp::Mul, *YB, Sn, K, "adj");
    D = BB.unOp(UnOp::Neg, T, K, "adj");
    break;
  }
  case UnOp::Tan: {
    SubExp C = BB.unOp(UnOp::Cos, A, K, "adj");
    SubExp C2 = BB.binOp(BinOp::Mul, C, C, K, "adj");
    D = BB.binOp(BinOp::Div, *YB, C2, K, "adj");
    break;
  }
  case UnOp::Atan: {
    SubExp A2 = BB.binOp(BinOp::Mul, A, A, K, "adj");
    SubExp Dn = BB.binOp(BinOp::Add, oneConst(K), A2, K, "adj");
    D = BB.binOp(BinOp::Div, *YB, Dn, K, "adj");
    break;
  }
  case UnOp::Floor:
  case UnOp::Signum:
    return MaybeError::success(); // zero derivative a.e.
  case UnOp::Not:
    return MaybeError::success();
  }
  know(D.getVar(), Type::scalar(K));
  return addAdjSub(SW, E.A, D, BB);
}

MaybeError VjpEmitter::reverseIndex(const Stm &S, const IndexExp &E, Sweep &SW,
                                    BodyBuilder &BB) {
  const Type &YT = S.Pat[0].Ty;
  if (!activeType(YT))
    return MaybeError::success();
  auto YB = adjOf(SW, S.Pat[0].Name, BB);
  if (!YB)
    return YB.getError();
  auto AT = typeOfSub(SubExp::var(E.Arr));
  if (!AT)
    return AT.getError();
  auto XB = adjOf(SW, E.Arr, BB);
  if (!XB)
    return XB.getError();
  std::vector<SubExp> Idx;
  for (const SubExp &I : E.Indices)
    Idx.push_back(prim(SW, I));

  // Read-add-update on the adjoint array.  The current adjoint may be
  // shared with another name's adjoint (aliasing lets), so update a fresh
  // copy rather than consuming the shared value.
  VName Cell = BB.bind("adx", YT.asNonUnique(),
                       std::make_unique<IndexExp>(XB->getVar(), Idx));
  know(Cell, YT.asNonUnique());
  SubExp Sum = addValues(SubExp::var(Cell), *YB, YT.asNonUnique(), BB);
  auto Copy = copyArray(XB->getVar(), BB);
  if (!Copy)
    return Copy.getError();
  VName Upd = BB.bind("adj", AT->asNonUnique(),
                      std::make_unique<UpdateExp>(*Copy, Idx, Sum));
  know(Upd, AT->asNonUnique());
  SW.Adj[E.Arr] = SubExp::var(Upd);
  return MaybeError::success();
}

MaybeError VjpEmitter::reverseUpdate(const Stm &S, const UpdateExp &E,
                                     Sweep &SW, BodyBuilder &BB) {
  const Type &YT = S.Pat[0].Ty;
  if (!activeType(YT))
    return MaybeError::success();
  auto YB = adjOf(SW, S.Pat[0].Name, BB);
  if (!YB)
    return YB.getError();
  std::vector<SubExp> Idx;
  for (const SubExp &I : E.Indices)
    Idx.push_back(prim(SW, I));
  Type CellT = YT.peel(static_cast<int>(Idx.size())).asNonUnique();

  // The stored value receives the adjoint of the overwritten cell.
  if (E.Value.isVar()) {
    VName Cell = BB.bind("adx", CellT,
                         std::make_unique<IndexExp>(YB->getVar(), Idx));
    know(Cell, CellT);
    if (auto Err = addAdjSub(SW, E.Value, SubExp::var(Cell), BB))
      return Err;
  }

  // The array's adjoint is the result adjoint with the written cell
  // masked out (that cell's pre-update value never reached the output).
  auto Copy = copyArray(YB->getVar(), BB);
  if (!Copy)
    return Copy.getError();
  SubExp Z = zeroOf(CellT, BB);
  VName Masked = BB.bind("adj", YT.asNonUnique(),
                         std::make_unique<UpdateExp>(*Copy, Idx, Z));
  know(Masked, YT.asNonUnique());
  return addAdj(SW, E.Arr, SubExp::var(Masked), BB);
}

MaybeError VjpEmitter::reverseIf(const Stm &S, const IfExp &E, Sweep &SW,
                                 BodyBuilder &BB) {
  // Adjoint targets: every active free variable either branch touches
  // (the bool condition is structurally non-active).
  NameSet Exclude;
  std::vector<VName> Targets = activeFreeVars(E, Exclude);
  if (Targets.empty())
    return MaybeError::success();

  // Seeds: the adjoints of the if's bindings.
  std::vector<SubExp> ThenSeeds, ElseSeeds;
  for (const Param &P : S.Pat) {
    if (activeType(P.Ty) && hasAdj(SW, P.Name)) {
      auto A = adjOf(SW, P.Name, BB);
      if (!A)
        return A.getError();
      ThenSeeds.push_back(*A);
    } else {
      ThenSeeds.push_back(i32(0)); // inactive: never read
    }
  }
  ElseSeeds = ThenSeeds;

  // Re-run each branch forward (recompute; branch bodies are pure) and
  // pull back, substituting save-on-consume copies for anything the
  // enclosing forward sweep consumed.
  NameMap<SubExp> Outer;
  for (const auto &KV : SW.Saved)
    Outer[KV.first] = SubExp::var(KV.second);

  std::vector<Type> RT;
  for (const VName &T : Targets) {
    auto TT = typeOfSub(SubExp::var(T));
    if (!TT)
      return TT.getError();
    RT.push_back(TT->asNonUnique());
  }

  BodyBuilder ThenBB(Names);
  auto ThenOut = emitBodyVjp(E.Then, Outer, ThenSeeds, Targets, ThenBB);
  if (!ThenOut)
    return ThenOut.getError();
  Body ThenBody = ThenBB.finish(std::move(ThenOut->TargetAdjoints));

  BodyBuilder ElseBB(Names);
  auto ElseOut = emitBodyVjp(E.Else, Outer, ElseSeeds, Targets, ElseBB);
  if (!ElseOut)
    return ElseOut.getError();
  Body ElseBody = ElseBB.finish(std::move(ElseOut->TargetAdjoints));

  std::vector<VName> Contribs = BB.bindMulti(
      "adj", RT,
      std::make_unique<IfExp>(E.Cond, std::move(ThenBody),
                              std::move(ElseBody), RT));
  for (size_t I = 0; I < Targets.size(); ++I) {
    know(Contribs[I], RT[I]);
    if (auto Err = addAdj(SW, Targets[I], SubExp::var(Contribs[I]), BB))
      return Err;
  }
  return MaybeError::success();
}

MaybeError VjpEmitter::pullbackThroughMap(const Lambda &Fn,
                                          const std::vector<VName> &Arrays,
                                          const SubExp &Width,
                                          const std::vector<VName> &SeedArrs,
                                          Sweep &SW, BodyBuilder &BB) {
  // Fresh lambda parameters for the pullback instance.
  NameMap<SubExp> Outer;
  for (const auto &KV : SW.Saved)
    Outer[KV.first] = SubExp::var(KV.second);
  std::vector<Param> GParams;
  for (const Param &P : Fn.Params) {
    VName N = Names.freshFrom(P.Name);
    Type T = P.Ty.asNonUnique();
    Outer[P.Name] = SubExp::var(N);
    GParams.emplace_back(N, T);
    know(N, T);
  }
  // Seed-row parameters, one per active lambda result.
  std::vector<SubExp> Seeds(Fn.RetTypes.size(), i32(0));
  size_t SeedIdx = 0;
  for (size_t I = 0; I < Fn.RetTypes.size(); ++I) {
    if (!activeType(Fn.RetTypes[I]))
      continue;
    VName SN = Names.fresh("adseed");
    Type ST = Fn.RetTypes[I].asNonUnique();
    GParams.emplace_back(SN, ST);
    know(SN, ST);
    Seeds[I] = SubExp::var(SN);
    ++SeedIdx;
  }
  if (SeedIdx != SeedArrs.size())
    return unsupported("internal: seed-array arity mismatch in map pullback");

  // Targets: the active inputs (by their fresh parameter names), then the
  // lambda's active free variables.
  NameSet ParamNames;
  for (const Param &P : Fn.Params)
    ParamNames.insert(P.Name);
  std::vector<VName> FreeTargets;
  {
    NameSet FV = freeVarsInLambda(Fn);
    std::vector<VName> Sorted(FV.begin(), FV.end());
    std::sort(Sorted.begin(), Sorted.end());
    for (const VName &N : Sorted) {
      auto It = TypeOf.find(N);
      if (It != TypeOf.end() && activeType(It->second))
        FreeTargets.push_back(N);
    }
  }
  std::vector<int> ActiveInputs;
  std::vector<VName> Targets;
  for (size_t I = 0; I < Fn.Params.size(); ++I)
    if (activeType(Fn.Params[I].Ty)) {
      ActiveInputs.push_back(static_cast<int>(I));
      Targets.push_back(GParams[I].Name);
    }
  for (const VName &N : FreeTargets)
    Targets.push_back(N);
  if (Targets.empty())
    return MaybeError::success();

  std::vector<Type> GRet;
  for (int I : ActiveInputs)
    GRet.push_back(Fn.Params[I].Ty.asNonUnique());
  for (const VName &N : FreeTargets)
    GRet.push_back(TypeOf.at(N).asNonUnique());

  BodyBuilder GB(Names);
  auto GOut = emitBodyVjp(Fn.B, Outer, Seeds, Targets, GB);
  if (!GOut)
    return GOut.getError();
  Lambda G(std::move(GParams), GB.finish(std::move(GOut->TargetAdjoints)),
           GRet);

  std::vector<VName> MapArrays = Arrays;
  for (const VName &SA : SeedArrs)
    MapArrays.push_back(SA);
  std::vector<Type> ColTypes;
  for (const Type &T : GRet)
    ColTypes.push_back(T.arrayOf(Width));
  std::vector<VName> Cols = BB.bindMulti(
      "adcol", ColTypes,
      std::make_unique<MapExp>(Width, std::move(G), std::move(MapArrays)));
  for (size_t I = 0; I < Cols.size(); ++I)
    know(Cols[I], ColTypes[I]);

  // Input adjoints: elementwise accumulation of the contribution columns.
  size_t Col = 0;
  for (int I : ActiveInputs) {
    if (auto Err = addAdj(SW, Arrays[I], SubExp::var(Cols[Col]), BB))
      return Err;
    ++Col;
  }
  // Free-variable adjoints: reduce each contribution column with (+).
  for (const VName &N : FreeTargets) {
    Type T = TypeOf.at(N).asNonUnique();
    Lambda AddL = addLambda(T);
    SubExp Z = zeroOf(T, BB);
    std::vector<Type> RT{T};
    std::vector<VName> Red = BB.bindMulti(
        "adred", RT,
        std::make_unique<ReduceExp>(Width, std::move(AddL),
                                    std::vector<SubExp>{Z},
                                    std::vector<VName>{Cols[Col]},
                                    /*Commutative=*/true));
    know(Red[0], T);
    if (auto Err = addAdj(SW, N, SubExp::var(Red[0]), BB))
      return Err;
    ++Col;
  }
  return MaybeError::success();
}

MaybeError VjpEmitter::reverseMap(const Stm &S, const MapExp &E, Sweep &SW,
                                  BodyBuilder &BB) {
  // Seed arrays: the adjoints of the active outputs.
  std::vector<VName> SeedArrs;
  bool Any = false;
  for (size_t I = 0; I < S.Pat.size(); ++I)
    if (activeType(S.Pat[I].Ty) && hasAdj(SW, S.Pat[I].Name))
      Any = true;
  if (!Any)
    return MaybeError::success();
  for (size_t I = 0; I < S.Pat.size(); ++I) {
    if (!activeType(S.Pat[I].Ty))
      continue;
    auto A = adjOf(SW, S.Pat[I].Name, BB);
    if (!A)
      return A.getError();
    SeedArrs.push_back(A->getVar());
  }
  std::vector<VName> Arrays;
  for (const VName &A : E.Arrays)
    Arrays.push_back(primVar(SW, A));
  return pullbackThroughMap(E.Fn, Arrays, E.Width, SeedArrs, SW, BB);
}

MaybeError VjpEmitter::reverseReduce(const Stm &S, const ReduceExp &E,
                                     Sweep &SW, BodyBuilder &BB) {
  const Type &YT = S.Pat[0].Ty;
  if (!activeType(YT))
    return MaybeError::success();
  if (E.Arrays.size() != 1 || S.Pat.size() != 1)
    return unsupported("cannot differentiate a multi-array reduce");
  auto YB = adjOf(SW, S.Pat[0].Name, BB);
  if (!YB)
    return YB.getError();
  VName Xs = primVar(SW, E.Arrays[0]);
  auto XT = typeOfSub(SubExp::var(Xs));
  if (!XT)
    return XT.getError();

  BinOp Op;
  bool Vectorised = false;
  if (!matchBinOpLambda(E.Fn, Op)) {
    if (matchVectorisedBinOpLambda(E.Fn, Op))
      Vectorised = true;
    else
      return unsupported("cannot differentiate a reduce with a "
                         "non-linearisable operator");
  }

  if (Op == BinOp::Add) {
    // d/dx_i (ne + sum x) = 1: broadcast the seed.
    Type RowT = YT.asNonUnique();
    VName Contrib = BB.bind(
        "adj", RowT.arrayOf(E.Width),
        std::make_unique<ReplicateExp>(E.Width, *YB, RowT));
    know(Contrib, RowT.arrayOf(E.Width));
    if (auto Err = addAdj(SW, E.Arrays[0], SubExp::var(Contrib), BB))
      return Err;
    return addAdjSub(SW, E.Neutral[0], *YB, BB);
  }
  if (Vectorised)
    return unsupported("cannot differentiate a vectorised reduce with a "
                       "non-additive operator");

  ScalarKind K = YT.elemKind();

  if (Op == BinOp::Mul) {
    // Linearise-exchange for products: xbar_i = ybar * ne * pfx_i * sfx_i
    // with exclusive prefix/suffix products, via two sequential host
    // sweeps (the exchange stage; map-level adjoints stay parallel).
    Type ArrT = Type::array(K, {E.Width});
    SubExp PfxZ = zeroOf(ArrT, BB);
    VName Pa = Names.fresh("adpfx");
    VName Acc = Names.fresh("adacc");
    VName Iv = Names.fresh("adi");
    know(Pa, ArrT);
    know(Acc, Type::scalar(K));
    {
      BodyBuilder LB(Names);
      VName PaW = LB.bind("adpfx", ArrT,
                          std::make_unique<UpdateExp>(
                              Pa, std::vector<SubExp>{SubExp::var(Iv)},
                              SubExp::var(Acc)));
      VName Xi = LB.bind("adx", Type::scalar(K),
                         std::make_unique<IndexExp>(
                             Xs, std::vector<SubExp>{SubExp::var(Iv)}));
      SubExp AccN = LB.binOp(BinOp::Mul, SubExp::var(Acc), SubExp::var(Xi), K,
                             "adacc");
      std::vector<Param> MPs{Param(Pa, ArrT), Param(Acc, Type::scalar(K))};
      std::vector<SubExp> MInit{PfxZ, oneConst(K)};
      std::vector<Type> PatT{ArrT, Type::scalar(K)};
      std::vector<VName> Out = BB.bindMulti(
          "adpfxr", PatT,
          std::make_unique<LoopExp>(std::move(MPs), std::move(MInit), Iv,
                                    E.Width,
                                    LB.finish({SubExp::var(PaW), AccN})));
      know(Out[0], ArrT);
      know(Out[1], Type::scalar(K));
      Pa = Out[0];
      Acc = Out[1]; // total product of xs
    }
    // Neutral adjoint: d/dne (ne * prod x) = prod x.
    if (E.Neutral[0].isVar()) {
      SubExp DN = BB.binOp(BinOp::Mul, *YB, SubExp::var(Acc), K, "adj");
      if (auto Err = addAdjSub(SW, E.Neutral[0], DN, BB))
        return Err;
    }
    // Backward sweep: xbar_i = ybar * ne * pfx_i * sfx, sfx *= x_i.
    SubExp Ne = prim(SW, E.Neutral[0]);
    Type XArrT = XT->asNonUnique();
    SubExp XbZ = zeroOf(XArrT, BB);
    auto W32 = boundAsI32(E.Width, BB);
    if (!W32)
      return W32.getError();
    VName Xb = Names.fresh("adxb");
    VName Sfx = Names.fresh("adsfx");
    VName Ir = Names.fresh("adir");
    know(Xb, XArrT);
    know(Sfx, Type::scalar(K));
    {
      BodyBuilder LB(Names);
      SubExp WM1 = LB.binOp(BinOp::Sub, *W32, oneConst(ScalarKind::I32),
                            ScalarKind::I32, "adi");
      SubExp I = LB.binOp(BinOp::Sub, WM1, SubExp::var(Ir), ScalarKind::I32,
                          "adi");
      VName Pi = LB.bind("adp", Type::scalar(K),
                         std::make_unique<IndexExp>(Pa,
                                                    std::vector<SubExp>{I}));
      SubExp T1 = LB.binOp(BinOp::Mul, *YB, Ne, K, "adj");
      SubExp T2 = LB.binOp(BinOp::Mul, T1, SubExp::var(Pi), K, "adj");
      SubExp T3 = LB.binOp(BinOp::Mul, T2, SubExp::var(Sfx), K, "adj");
      VName XbW = LB.bind("adxb", XArrT,
                          std::make_unique<UpdateExp>(
                              Xb, std::vector<SubExp>{I}, T3));
      VName Xi = LB.bind("adx", Type::scalar(K),
                         std::make_unique<IndexExp>(Xs,
                                                    std::vector<SubExp>{I}));
      SubExp SfxN = LB.binOp(BinOp::Mul, SubExp::var(Sfx), SubExp::var(Xi), K,
                             "adsfx");
      std::vector<Param> MPs{Param(Xb, XArrT), Param(Sfx, Type::scalar(K))};
      std::vector<SubExp> MInit{XbZ, oneConst(K)};
      std::vector<Type> PatT{XArrT, Type::scalar(K)};
      std::vector<VName> Out = BB.bindMulti(
          "adxbr", PatT,
          std::make_unique<LoopExp>(std::move(MPs), std::move(MInit), Ir,
                                    *W32,
                                    LB.finish({SubExp::var(XbW), SfxN})));
      know(Out[0], XArrT);
      return addAdj(SW, E.Arrays[0], SubExp::var(Out[0]), BB);
    }
  }

  if (Op == BinOp::Min || Op == BinOp::Max) {
    // Route the seed to the first element attaining the result; when the
    // neutral element wins, the seed goes to it instead.
    SubExp Y = SubExp::var(S.Pat[0].Name);
    Type XArrT = XT->asNonUnique();
    SubExp XbZ = zeroOf(XArrT, BB);
    VName Xb = Names.fresh("adxb");
    VName Best = Names.fresh("adk");
    VName Iv = Names.fresh("adi");
    know(Xb, XArrT);
    know(Best, Type::scalar(ScalarKind::Bool));
    {
      // One sweep: find-first-and-write.  done' = done || (x_i == y);
      // xbar_i = (!done && x_i == y) ? ybar : 0.
      BodyBuilder LB(Names);
      VName Xi = LB.bind("adx", Type::scalar(K),
                         std::make_unique<IndexExp>(
                             Xs, std::vector<SubExp>{SubExp::var(Iv)}));
      SubExp IsY = LB.binOp(BinOp::Eq, SubExp::var(Xi), Y, K, "adc");
      SubExp NotDone = LB.unOp(UnOp::Not, SubExp::var(Best), ScalarKind::Bool,
                               "adc");
      SubExp Take = LB.binOp(BinOp::LogAnd, NotDone, IsY, ScalarKind::Bool,
                             "adc");
      std::vector<Type> CT{Type::scalar(K)};
      Body Then({}, {*YB});
      Body Else({}, {zeroConst(K)});
      std::vector<VName> Val = LB.bindMulti(
          "adj", CT,
          std::make_unique<IfExp>(Take, std::move(Then), std::move(Else), CT));
      VName XbW = LB.bind("adxb", XArrT,
                          std::make_unique<UpdateExp>(
                              Xb, std::vector<SubExp>{SubExp::var(Iv)},
                              SubExp::var(Val[0])));
      SubExp DoneN = LB.binOp(BinOp::LogOr, SubExp::var(Best), IsY,
                              ScalarKind::Bool, "add");
      std::vector<Param> MPs{Param(Xb, XArrT),
                             Param(Best, Type::scalar(ScalarKind::Bool))};
      std::vector<SubExp> MInit{XbZ, boolc(false)};
      std::vector<Type> PatT{XArrT, Type::scalar(ScalarKind::Bool)};
      std::vector<VName> Out = BB.bindMulti(
          "adxbr", PatT,
          std::make_unique<LoopExp>(std::move(MPs), std::move(MInit), Iv,
                                    E.Width,
                                    LB.finish({SubExp::var(XbW), DoneN})));
      know(Out[0], XArrT);
      know(Out[1], Type::scalar(ScalarKind::Bool));
      if (auto Err = addAdj(SW, E.Arrays[0], SubExp::var(Out[0]), BB))
        return Err;
      // Neutral adjoint: the seed when no element attained the result.
      if (E.Neutral[0].isVar()) {
        std::vector<Type> CT{Type::scalar(K)};
        SubExp NotAny = BB.unOp(UnOp::Not, SubExp::var(Out[1]),
                                ScalarKind::Bool, "adc");
        Body Then({}, {*YB});
        Body Else({}, {zeroConst(K)});
        std::vector<VName> NeC = BB.bindMulti(
            "adj", CT,
            std::make_unique<IfExp>(NotAny, std::move(Then), std::move(Else),
                                    CT));
        know(NeC[0], Type::scalar(K));
        return addAdjSub(SW, E.Neutral[0], SubExp::var(NeC[0]), BB);
      }
      return MaybeError::success();
    }
  }
  return unsupported("cannot differentiate reduce (" +
                     std::string(binOpName(Op)) + ")");
}

MaybeError VjpEmitter::reverseScan(const Stm &S, const ScanExp &E, Sweep &SW,
                                   BodyBuilder &BB) {
  const Type &YT = S.Pat[0].Ty;
  if (!activeType(YT))
    return MaybeError::success();
  if (E.Arrays.size() != 1 || S.Pat.size() != 1)
    return unsupported("cannot differentiate a multi-array scan");
  BinOp Op;
  if (!matchBinOpLambda(E.Fn, Op) || Op != BinOp::Add)
    return unsupported("cannot differentiate a scan with a non-(+) operator");
  auto YB = adjOf(SW, S.Pat[0].Name, BB);
  if (!YB)
    return YB.getError();
  ScalarKind K = YT.elemKind();
  auto XT = typeOfSub(SubExp::var(E.Arrays[0]));
  if (!XT)
    return XT.getError();

  // scan(+): xbar_i = sum_{j >= i} ybar_j — the suffix sum, swept
  // backwards sequentially (the exchange stage of the decomposition).
  Type XArrT = XT->asNonUnique();
  SubExp XbZ = zeroOf(XArrT, BB);
  auto W32 = boundAsI32(E.Width, BB);
  if (!W32)
    return W32.getError();
  VName Xb = Names.fresh("adxb");
  VName Run = Names.fresh("adrun");
  VName Ir = Names.fresh("adir");
  know(Xb, XArrT);
  know(Run, Type::scalar(K));
  BodyBuilder LB(Names);
  SubExp WM1 = LB.binOp(BinOp::Sub, *W32, oneConst(ScalarKind::I32),
                        ScalarKind::I32, "adi");
  SubExp I = LB.binOp(BinOp::Sub, WM1, SubExp::var(Ir), ScalarKind::I32,
                      "adi");
  VName Yi = LB.bind("ady", Type::scalar(K),
                     std::make_unique<IndexExp>(YB->getVar(),
                                                std::vector<SubExp>{I}));
  SubExp RunN = LB.binOp(BinOp::Add, SubExp::var(Run), SubExp::var(Yi), K,
                         "adrun");
  VName XbW = LB.bind("adxb", XArrT,
                      std::make_unique<UpdateExp>(Xb, std::vector<SubExp>{I},
                                                  RunN));
  std::vector<Param> MPs{Param(Xb, XArrT), Param(Run, Type::scalar(K))};
  std::vector<SubExp> MInit{XbZ, zeroConst(K)};
  std::vector<Type> PatT{XArrT, Type::scalar(K)};
  std::vector<VName> Out = BB.bindMulti(
      "adxbr", PatT,
      std::make_unique<LoopExp>(std::move(MPs), std::move(MInit), Ir, *W32,
                                LB.finish({SubExp::var(XbW), RunN})));
  know(Out[0], XArrT);
  know(Out[1], Type::scalar(K));
  if (auto Err = addAdj(SW, E.Arrays[0], SubExp::var(Out[0]), BB))
    return Err;
  // Neutral adjoint: ne enters every prefix, so it receives sum ybar.
  if (E.Neutral[0].isVar())
    return addAdjSub(SW, E.Neutral[0], SubExp::var(Out[1]), BB);
  return MaybeError::success();
}

MaybeError VjpEmitter::reverseReduceByIndex(const Stm &S,
                                            const ReduceByIndexExp &E,
                                            Sweep &SW, BodyBuilder &BB) {
  const Type &YT = S.Pat[0].Ty;
  if (!activeType(YT))
    return MaybeError::success();
  BinOp Op;
  if (!matchBinOpLambda(E.CombineFn, Op) || Op != BinOp::Add)
    return unsupported("cannot differentiate reduce_by_index with a "
                       "non-(+) combine function");
  auto YB = adjOf(SW, S.Pat[0].Name, BB);
  if (!YB)
    return YB.getError();
  ScalarKind K = YT.elemKind();

  // dest adjoint: with (+) combine, y = dest + contributions elementwise.
  if (auto Err = addAdj(SW, E.Dest, *YB, BB))
    return Err;

  // Gather-of-contributions: element j receives ybar[is[j]] when its bin
  // was in range, 0 otherwise — a sequential gather sweep (mirroring the
  // forward histogram loop's schedule on the host).
  VName Is = primVar(SW, E.IndexArr);
  auto IsT = typeOfSub(SubExp::var(Is));
  if (!IsT)
    return IsT.getError();
  ScalarKind BK = IsT->elemKind();
  SubExp N = IsT->outerDim();
  Type SeedArrT = Type::array(K, {N});
  SubExp SaZ = zeroOf(SeedArrT, BB);
  VName Sa = Names.fresh("adga");
  VName Jv = Names.fresh("adj_i");
  know(Sa, SeedArrT);
  BodyBuilder LB(Names);
  VName Bj = LB.bind("adb", Type::scalar(BK),
                     std::make_unique<IndexExp>(
                         Is, std::vector<SubExp>{SubExp::var(Jv)}));
  SubExp WAsBK = [&]() -> SubExp {
    auto WT = typeOfSub(E.Width);
    if (WT && WT->elemKind() != BK) {
      SubExp C = LB.convOp(WT->elemKind(), BK, E.Width, "adw");
      know(C.getVar(), Type::scalar(BK));
      return C;
    }
    return E.Width;
  }();
  SubExp Ge = LB.binOp(BinOp::Geq, SubExp::var(Bj), zeroConst(BK), BK, "adc");
  SubExp Lt = LB.binOp(BinOp::Lt, SubExp::var(Bj), WAsBK, BK, "adc");
  SubExp Ok = LB.binOp(BinOp::LogAnd, Ge, Lt, ScalarKind::Bool, "adc");
  // In-range: read the seed at the bin; out of range: 0.
  std::vector<Type> CT{Type::scalar(K)};
  BodyBuilder TB(Names);
  VName Cell = TB.bind("adx", Type::scalar(K),
                       std::make_unique<IndexExp>(
                           YB->getVar(),
                           std::vector<SubExp>{SubExp::var(Bj)}));
  Body Then = TB.finish({SubExp::var(Cell)});
  Body Else({}, {zeroConst(K)});
  std::vector<VName> Val = LB.bindMulti(
      "adj", CT,
      std::make_unique<IfExp>(Ok, std::move(Then), std::move(Else), CT));
  VName SaW = LB.bind("adga", SeedArrT,
                      std::make_unique<UpdateExp>(
                          Sa, std::vector<SubExp>{SubExp::var(Jv)},
                          SubExp::var(Val[0])));
  std::vector<Param> MPs{Param(Sa, SeedArrT)};
  std::vector<SubExp> MInit{SaZ};
  std::vector<Type> PatT{SeedArrT};
  std::vector<VName> Out = BB.bindMulti(
      "adgar", PatT,
      std::make_unique<LoopExp>(std::move(MPs), std::move(MInit), Jv, N,
                                LB.finish({SubExp::var(SaW)})));
  know(Out[0], SeedArrT);

  // Chain through the value function's pullback (identity in the unfused
  // case).
  std::vector<VName> ValArrs;
  for (const VName &V : E.ValueArrs)
    ValArrs.push_back(primVar(SW, V));
  if (matchIdentityLambda(E.ValueFn))
    return addAdj(SW, ValArrs[0], SubExp::var(Out[0]), BB);
  return pullbackThroughMap(E.ValueFn, ValArrs, N, {Out[0]}, SW, BB);
}

MaybeError VjpEmitter::reverseLoop(const Stm &S, const LoopExp &E, Sweep &SW,
                                   BodyBuilder &BB, const LoopTape &Tape) {
  size_t K = E.MergeParams.size();

  // Free-variable targets of the loop body (beyond the merge parameters;
  // merge *inits* receive their adjoint from the final reverse state, not
  // here).
  NameSet BodyFV = freeVarsInBody(E.LoopBody);
  NameSet Exclude;
  for (const Param &MP : E.MergeParams)
    Exclude.insert(MP.Name);
  Exclude.insert(E.IndexVar);
  std::vector<VName> FreeTargets;
  for (const VName &N : BodyFV) {
    if (Exclude.count(N))
      continue;
    auto It = TypeOf.find(N);
    if (It != TypeOf.end() && activeType(It->second))
      FreeTargets.push_back(N);
  }
  std::sort(FreeTargets.begin(), FreeTargets.end());

  // Adjoint merge state: one per active merge param, plus the free-var
  // accumulators.
  std::vector<int> ActiveMerge;
  for (size_t J = 0; J < K; ++J)
    if (activeType(E.MergeParams[J].Ty))
      ActiveMerge.push_back(static_cast<int>(J));
  if (ActiveMerge.empty() && FreeTargets.empty())
    return MaybeError::success();

  std::vector<Param> RevMerge;
  std::vector<SubExp> RevInit;
  std::vector<Type> RevTypes;
  for (int J : ActiveMerge) {
    auto A = adjOf(SW, S.Pat[J].Name, BB);
    if (!A)
      return A.getError();
    Type T = E.MergeParams[J].Ty.asNonUnique();
    VName N = Names.fresh("adm");
    know(N, T);
    RevMerge.emplace_back(N, T);
    RevInit.push_back(*A);
    RevTypes.push_back(T);
  }
  for (const VName &F : FreeTargets) {
    Type T = TypeOf.at(F).asNonUnique();
    VName N = Names.fresh("adf");
    know(N, T);
    RevMerge.emplace_back(N, T);
    RevInit.push_back(zeroOf(T, BB));
    RevTypes.push_back(T);
  }

  auto W32 = boundAsI32(E.Bound, BB);
  if (!W32)
    return W32.getError();
  VName Ir = Names.fresh("adir");
  BodyBuilder LB(Names);
  SubExp WM1 = LB.binOp(BinOp::Sub, *W32, oneConst(ScalarKind::I32),
                        ScalarKind::I32, "adi");
  SubExp Iv = LB.binOp(BinOp::Sub, WM1, SubExp::var(Ir), ScalarKind::I32,
                       "adi");

  // Restore the iterate: every merge parameter's entry value at forward
  // iteration Iv, from its tape (copied, so an in-place body cannot
  // corrupt the tape through the restored alias).
  NameMap<SubExp> Outer;
  for (const auto &KV : SW.Saved)
    Outer[KV.first] = SubExp::var(KV.second);
  Outer[E.IndexVar] = Iv;
  std::vector<VName> Restored;
  for (size_t J = 0; J < K; ++J) {
    Type T = E.MergeParams[J].Ty.asNonUnique();
    VName Row = LB.bind("adrest", T,
                        std::make_unique<IndexExp>(Tape.TapeArrays[J],
                                                   std::vector<SubExp>{Iv}));
    know(Row, T);
    if (T.isArray()) {
      VName C = LB.bind("adrest", T, std::make_unique<CopyExp>(Row));
      know(C, T);
      Row = C;
    }
    Restored.push_back(Row);
    Outer[E.MergeParams[J].Name] = SubExp::var(Row);
  }

  // Seeds: the current adjoint merge state (the adjoint of this
  // iteration's *results* = the next iteration's entry state).
  std::vector<SubExp> Seeds(E.LoopBody.Result.size(), i32(0));
  for (size_t A = 0; A < ActiveMerge.size(); ++A)
    Seeds[ActiveMerge[A]] = SubExp::var(RevMerge[A].Name);

  std::vector<VName> AllTargets;
  for (int J : ActiveMerge)
    AllTargets.push_back(Restored[J]);
  for (const VName &F : FreeTargets)
    AllTargets.push_back(F);

  auto BodyOut = emitBodyVjp(E.LoopBody, Outer, Seeds, AllTargets, LB);
  if (!BodyOut)
    return BodyOut.getError();

  // Results: the merge-entry adjoints replace the adjoint state; free-var
  // contributions accumulate.
  std::vector<SubExp> RevResults;
  size_t Idx = 0;
  for (size_t A = 0; A < ActiveMerge.size(); ++A, ++Idx)
    RevResults.push_back(BodyOut->TargetAdjoints[Idx]);
  for (size_t F = 0; F < FreeTargets.size(); ++F, ++Idx) {
    Type T = RevTypes[ActiveMerge.size() + F];
    SubExp Sum = addValues(SubExp::var(RevMerge[ActiveMerge.size() + F].Name),
                           BodyOut->TargetAdjoints[Idx], T, LB);
    RevResults.push_back(Sum);
  }

  std::vector<VName> Out = BB.bindMulti(
      "adloop", RevTypes,
      std::make_unique<LoopExp>(std::move(RevMerge), std::move(RevInit), Ir,
                                *W32, LB.finish(std::move(RevResults))));
  for (size_t I = 0; I < Out.size(); ++I)
    know(Out[I], RevTypes[I]);

  // The final adjoint state is the adjoint of the merge inits.
  Idx = 0;
  for (int J : ActiveMerge) {
    if (E.MergeInit[J].isVar())
      if (auto Err = addAdjSub(SW, E.MergeInit[J], SubExp::var(Out[Idx]), BB))
        return Err;
    ++Idx;
  }
  for (const VName &F : FreeTargets) {
    if (auto Err = addAdj(SW, F, SubExp::var(Out[Idx]), BB))
      return Err;
    ++Idx;
  }
  return MaybeError::success();
}

MaybeError VjpEmitter::reverseConcat(const Stm &S, const ConcatExp &E,
                                     Sweep &SW, BodyBuilder &BB) {
  const Type &YT = S.Pat[0].Ty;
  if (!activeType(YT))
    return MaybeError::success();
  auto YB = adjOf(SW, S.Pat[0].Name, BB);
  if (!YB)
    return YB.getError();
  // Slices of the seed at the accumulated offsets.
  SubExp Off = i64c(0);
  for (size_t I = 0; I < E.Arrays.size(); ++I) {
    const VName &A = E.Arrays[I];
    auto AT = typeOfSub(SubExp::var(A));
    if (!AT)
      return AT.getError();
    auto Len = intAs(AT->outerDim(), ScalarKind::I64, BB);
    if (!Len)
      return Len.getError();
    VName Piece = BB.bind(
        "adj", AT->asNonUnique(),
        std::make_unique<SliceExp>(YB->getVar(), Off, *Len, i64c(1)));
    know(Piece, AT->asNonUnique());
    if (auto Err = addAdj(SW, A, SubExp::var(Piece), BB))
      return Err;
    if (I + 1 == E.Arrays.size())
      break;
    Off = BB.binOp(BinOp::Add, Off, *Len, ScalarKind::I64, "adoff");
    know(Off.getVar(), Type::scalar(ScalarKind::I64));
  }
  return MaybeError::success();
}

MaybeError VjpEmitter::reverseSlice(const Stm &S, const SliceExp &E, Sweep &SW,
                                    BodyBuilder &BB) {
  const Type &YT = S.Pat[0].Ty;
  if (!activeType(YT))
    return MaybeError::success();
  auto YB = adjOf(SW, S.Pat[0].Name, BB);
  if (!YB)
    return YB.getError();
  auto AT = typeOfSub(SubExp::var(E.Arr));
  if (!AT)
    return AT.getError();
  // Scatter the seed back: xbar[off + j*stride] += ybar[j], sequentially.
  auto XB = adjOf(SW, E.Arr, BB);
  if (!XB)
    return XB.getError();
  auto Copy = copyArray(XB->getVar(), BB);
  if (!Copy)
    return Copy.getError();
  Type XArrT = AT->asNonUnique();
  Type CellT = YT.rowType().asNonUnique();
  auto W32 = boundAsI32(prim(SW, E.Len), BB);
  if (!W32)
    return W32.getError();
  VName Xb = Names.fresh("adxb");
  VName Jv = Names.fresh("adj_i");
  know(Xb, XArrT);
  BodyBuilder LB(Names);
  SubExp J64 = [&]() -> SubExp {
    SubExp C = LB.convOp(ScalarKind::I32, ScalarKind::I64, SubExp::var(Jv),
                         "adi");
    know(C.getVar(), Type::scalar(ScalarKind::I64));
    return C;
  }();
  auto Off = intAs(prim(SW, E.Offset), ScalarKind::I64, LB);
  if (!Off)
    return Off.getError();
  auto Str = intAs(prim(SW, E.Stride), ScalarKind::I64, LB);
  if (!Str)
    return Str.getError();
  SubExp T1 = LB.binOp(BinOp::Mul, J64, *Str, ScalarKind::I64, "adi");
  SubExp Idx = LB.binOp(BinOp::Add, *Off, T1, ScalarKind::I64, "adi");
  VName Yj = LB.bind("ady", CellT,
                     std::make_unique<IndexExp>(
                         YB->getVar(), std::vector<SubExp>{SubExp::var(Jv)}));
  know(Yj, CellT);
  VName Cur = LB.bind("adx", CellT,
                      std::make_unique<IndexExp>(Xb,
                                                 std::vector<SubExp>{Idx}));
  know(Cur, CellT);
  SubExp Sum = addValues(SubExp::var(Cur), SubExp::var(Yj), CellT, LB);
  VName XbW = LB.bind("adxb", XArrT,
                      std::make_unique<UpdateExp>(Xb, std::vector<SubExp>{Idx},
                                                  Sum));
  std::vector<Param> MPs{Param(Xb, XArrT)};
  std::vector<SubExp> MInit{SubExp::var(*Copy)};
  std::vector<Type> PatT{XArrT};
  std::vector<VName> Out = BB.bindMulti(
      "adxbr", PatT,
      std::make_unique<LoopExp>(std::move(MPs), std::move(MInit), Jv, *W32,
                                LB.finish({SubExp::var(XbW)})));
  know(Out[0], XArrT);
  SW.Adj[E.Arr] = SubExp::var(Out[0]);
  return MaybeError::success();
}

MaybeError VjpEmitter::reverseReplicate(const Stm &S, const ReplicateExp &E,
                                        Sweep &SW, BodyBuilder &BB) {
  const Type &YT = S.Pat[0].Ty;
  if (!activeType(YT) || !E.Val.isVar())
    return MaybeError::success();
  auto YB = adjOf(SW, S.Pat[0].Name, BB);
  if (!YB)
    return YB.getError();
  Type VT = E.ValType.asNonUnique();
  Lambda AddL = addLambda(VT);
  SubExp Z = zeroOf(VT, BB);
  std::vector<Type> RT{VT};
  std::vector<VName> Red = BB.bindMulti(
      "adred", RT,
      std::make_unique<ReduceExp>(E.N, std::move(AddL),
                                  std::vector<SubExp>{Z},
                                  std::vector<VName>{YB->getVar()},
                                  /*Commutative=*/true));
  know(Red[0], VT);
  return addAdjSub(SW, E.Val, SubExp::var(Red[0]), BB);
}

} // namespace

ErrorOr<VjpStats> fut::ad::vjpProgram(Program &P, const std::string &Fun,
                                      NameSource &Names) {
  const FunDef *F = P.findFun(Fun);
  if (!F)
    return CompilerError("vjp: no function named '" + Fun + "'");
  VjpEmitter Emitter(Names);
  auto G = Emitter.run(*F);
  if (!G)
    return G.getError();
  // Replace any stale previous derivative.
  std::string GName = G->Name;
  P.Funs.erase(std::remove_if(P.Funs.begin(), P.Funs.end(),
                              [&](const FunDef &D) { return D.Name == GName; }),
               P.Funs.end());
  P.Funs.push_back(G.take());
  trace::counter("ad.vjp_functions");
  return Emitter.stats();
}
