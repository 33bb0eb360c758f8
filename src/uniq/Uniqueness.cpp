//===- Uniqueness.cpp - Alias analysis and in-place update checking ---------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "uniq/Uniqueness.h"

#include "ir/Traversal.h"

using namespace fut;

namespace {

/// The checker's state: Σ (alias sets), which names may legally be
/// consumed, and the set of names already consumed (closed under aliasing).
struct UniqState {
  NameMap<NameSet> Aliases;
  NameMap<bool> Consumable;
  NameSet Consumed;

  NameSet closure(const VName &V) const {
    NameSet S{V};
    auto It = Aliases.find(V);
    if (It != Aliases.end())
      S.insert(It->second.begin(), It->second.end());
    return S;
  }

  void bind(const VName &V, NameSet AliasSet, bool CanConsume) {
    Aliases[V] = std::move(AliasSet);
    Consumable[V] = CanConsume;
  }
};

class UniquenessChecker {
  const Program &P;

public:
  explicit UniquenessChecker(const Program &P) : P(P) {}

  MaybeError checkFunction(const FunDef &F) {
    UniqState St;
    NameSet NonUniqueParams;
    for (const Param &Prm : F.Params) {
      St.bind(Prm.Name, {}, Prm.Ty.isUnique());
      if (Prm.Ty.isArray() && !Prm.Ty.isUnique())
        NonUniqueParams.insert(Prm.Name);
    }
    std::vector<NameSet> ResAliases;
    if (auto Err = checkBody(F.FBody, St, ResAliases))
      return Err;

    // A unique result must not alias a non-unique parameter
    // (ALIAS-APPLY-UNIQUE's contract, checked at the definition site).
    for (size_t I = 0; I < F.RetTypes.size() && I < ResAliases.size(); ++I) {
      if (!F.RetTypes[I].isUnique())
        continue;
      for (const VName &A : ResAliases[I])
        if (NonUniqueParams.count(A))
          return CompilerError(
              "unique result " + std::to_string(I + 1) + " of function " +
              F.Name + " aliases non-unique parameter " + A.str());
    }
    return MaybeError::success();
  }

private:
  //===--------------------------------------------------------------------===//
  // Occurrence bookkeeping
  //===--------------------------------------------------------------------===//

  /// Observing a variable: an error if any alias of it was consumed
  /// (the sequencing judgment's (O₂∪C₂)∩C₁ = ∅ side condition).
  MaybeError observe(const VName &V, const UniqState &St, SrcLoc Loc) {
    for (const VName &A : St.closure(V))
      if (St.Consumed.count(A))
        return CompilerError(Loc, "variable " + V.str() +
                                      " is used after " + A.str() +
                                      " was consumed");
    return MaybeError::success();
  }

  /// Consuming a variable: every alias must be consumable and not yet
  /// consumed; afterwards the whole closure is dead.
  MaybeError consume(const VName &V, UniqState &St, SrcLoc Loc) {
    NameSet Closure = St.closure(V);
    for (const VName &A : Closure) {
      if (St.Consumed.count(A))
        return CompilerError(Loc, "variable " + V.str() +
                                      " is consumed, but its alias " +
                                      A.str() + " was already consumed");
      auto It = St.Consumable.find(A);
      if (It != St.Consumable.end() && !It->second)
        return CompilerError(Loc,
                             "consuming " + V.str() +
                                 " is not allowed: it aliases " + A.str() +
                                 ", which is not consumable (mark the "
                                 "parameter unique with '*')");
    }
    St.Consumed.insert(Closure.begin(), Closure.end());
    return MaybeError::success();
  }

  MaybeError observeOperands(const Exp &E, const UniqState &St) {
    MaybeError Result = MaybeError::success();
    forEachFreeOperand(E, [&](const SubExp &S) {
      if (Result || !S.isVar())
        return;
      if (auto Err = observe(S.getVar(), St, E.Loc))
        Result = Err;
    });
    return Result;
  }

  //===--------------------------------------------------------------------===//
  // Alias rules (Fig 5)
  //===--------------------------------------------------------------------===//

  NameSet aliasesOfSubExp(const SubExp &S, const UniqState &St) {
    if (S.isConst())
      return {};
    NameSet Out = St.closure(S.getVar());
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Lambdas (the △ judgment)
  //===--------------------------------------------------------------------===//

  /// Checks a lambda body.  Parameters are consumable inside the lambda;
  /// \p ParamTargets maps each parameter index to the outer variable that
  /// a consumption propagates to (empty name = consumption is an error,
  /// e.g. reduce operators and scan operators must not consume anything).
  /// Free variables consumed inside the lambda are always an error — the
  /// OBSERVE-NONPARAM case of Fig 6 has no consumption counterpart.
  MaybeError checkLambda(const Lambda &L,
                         const std::vector<VName> &ParamTargets,
                         const std::vector<bool> &MayConsume, UniqState &St,
                         const char *What, SrcLoc Loc) {
    UniqState Inner = St;
    for (const Param &Prm : L.Params)
      Inner.bind(Prm.Name, {}, true);
    std::vector<NameSet> ResAliases;
    NameSet Before = St.Consumed;
    if (auto Err = checkBody(L.B, Inner, ResAliases))
      return Err;
    // Translate consumption of parameters to the outer world.
    for (const VName &C : Inner.Consumed) {
      if (Before.count(C))
        continue;
      bool IsParam = false;
      for (size_t I = 0; I < L.Params.size(); ++I) {
        if (L.Params[I].Name != C)
          continue;
        IsParam = true;
        if (I >= MayConsume.size() || !MayConsume[I])
          return CompilerError(Loc, std::string(What) +
                                        " must not consume its parameter " +
                                        C.str());
        if (I < ParamTargets.size() && ParamTargets[I].Tag >= 0)
          if (auto Err = consume(ParamTargets[I], St, Loc))
            return Err;
        break;
      }
      if (!IsParam && !Inner.Aliases.count(C) && St.Aliases.count(C))
        continue; // Alias-closure member handled via its root below.
      if (!IsParam) {
        // Distinguish lambda-local names (fine: they were bound and
        // consumed inside) from free variables (an error).
        bool LocallyBound =
            Inner.Aliases.count(C) && !St.Aliases.count(C) &&
            !St.Consumable.count(C);
        if (!LocallyBound && St.Consumable.count(C))
          return CompilerError(Loc, std::string(What) +
                                        " consumes free variable " +
                                        C.str() +
                                        ", which is bound outside of it");
      }
    }
    return MaybeError::success();
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  /// Checks \p E, records consumption in \p St, and reports the alias sets
  /// of the produced values in \p Res.
  MaybeError checkExp(const Exp &E, UniqState &St,
                      std::vector<NameSet> &Res) {
    // Every operand is observed (SAFE-VAR); consumption below happens
    // after observation within the same statement, which is the paper's
    // sequencing of the subterms.
    if (auto Err = observeOperands(E, St))
      return Err;

    switch (E.kind()) {
    case ExpKind::SubExpE:
      Res.push_back(aliasesOfSubExp(expCast<SubExpExp>(&E)->Val, St));
      return MaybeError::success();

    case ExpKind::BinOpE:
    case ExpKind::UnOpE:
    case ExpKind::ConvOpE:
    case ExpKind::Apply:
      break; // Handled below / after switch.

    case ExpKind::If: {
      const auto *X = expCast<IfExp>(&E);
      UniqState ThenSt = St, ElseSt = St;
      std::vector<NameSet> ThenRes, ElseRes;
      if (auto Err = checkBody(X->Then, ThenSt, ThenRes))
        return Err;
      if (auto Err = checkBody(X->Else, ElseSt, ElseRes))
        return Err;
      St.Consumed = ThenSt.Consumed;
      St.Consumed.insert(ElseSt.Consumed.begin(), ElseSt.Consumed.end());
      for (size_t I = 0; I < ThenRes.size(); ++I) {
        NameSet S = ThenRes[I];
        if (I < ElseRes.size())
          S.insert(ElseRes[I].begin(), ElseRes[I].end());
        Res.push_back(std::move(S));
      }
      return MaybeError::success();
    }

    case ExpKind::Index: {
      const auto *X = expCast<IndexExp>(&E);
      // ALIAS-INDEXARRAY vs ALIAS-SLICEARRAY: a full read is fresh, a
      // slice aliases the source.
      // We do not know the rank here without a type env; treat any index
      // as potentially a slice only if the value is used as an array,
      // which we approximate by always aliasing (conservative and safe).
      Res.push_back(St.closure(X->Arr));
      return MaybeError::success();
    }

    case ExpKind::Loop: {
      const auto *X = expCast<LoopExp>(&E);
      UniqState Inner = St;
      for (const Param &Prm : X->MergeParams)
        Inner.bind(Prm.Name, {}, true);
      Inner.bind(X->IndexVar, {}, false);
      NameSet Before = St.Consumed;
      std::vector<NameSet> BodyRes;
      if (auto Err = checkBody(X->LoopBody, Inner, BodyRes))
        return Err;
      // Consumption of a merge parameter consumes its initial value; any
      // other free-variable consumption inside a loop would repeat per
      // iteration and is rejected.
      for (const VName &C : Inner.Consumed) {
        if (Before.count(C))
          continue;
        bool IsMerge = false;
        for (size_t I = 0; I < X->MergeParams.size(); ++I) {
          if (X->MergeParams[I].Name != C)
            continue;
          IsMerge = true;
          if (X->MergeInit[I].isVar())
            if (auto Err = consume(X->MergeInit[I].getVar(), St, E.Loc))
              return Err;
          break;
        }
        if (!IsMerge && St.Consumable.count(C))
          return CompilerError(E.Loc,
                               "loop body consumes " + C.str() +
                                   ", which is bound outside the loop");
      }
      // Results alias nothing from outside (the loop's values are merged
      // through parameters whose initial aliases were consumed if needed).
      for (size_t I = 0; I < X->MergeParams.size(); ++I)
        Res.push_back({});
      return MaybeError::success();
    }

    case ExpKind::Update: {
      const auto *X = expCast<UpdateExp>(&E);
      // SAFE-UPDATE: consumes the array, observes the value.  Result
      // aliases Σ(va) — the update lives in va's memory.
      NameSet ResultAliases;
      auto It = St.Aliases.find(X->Arr);
      if (It != St.Aliases.end())
        ResultAliases = It->second;
      if (auto Err = consume(X->Arr, St, E.Loc))
        return Err;
      Res.push_back(std::move(ResultAliases));
      return MaybeError::success();
    }

    case ExpKind::Iota:
    case ExpKind::Replicate:
    case ExpKind::Copy:
      Res.push_back({});
      return MaybeError::success();

    case ExpKind::Rearrange:
      Res.push_back(St.closure(expCast<RearrangeExp>(&E)->Arr));
      return MaybeError::success();

    case ExpKind::Reshape:
      Res.push_back(St.closure(expCast<ReshapeExp>(&E)->Arr));
      return MaybeError::success();

    case ExpKind::Slice:
      Res.push_back(St.closure(expCast<SliceExp>(&E)->Arr));
      return MaybeError::success();

    case ExpKind::Concat: {
      NameSet S;
      for (const VName &A : expCast<ConcatExp>(&E)->Arrays) {
        NameSet C = St.closure(A);
        S.insert(C.begin(), C.end());
      }
      Res.push_back(std::move(S));
      return MaybeError::success();
    }

    case ExpKind::Map: {
      const auto *X = expCast<MapExp>(&E);
      std::vector<VName> Targets = X->Arrays;
      std::vector<bool> MayConsume(X->Arrays.size(), true);
      if (auto Err = checkLambda(X->Fn, Targets, MayConsume, St,
                                 "a map function", E.Loc))
        return Err;
      for (size_t I = 0; I < X->Fn.RetTypes.size(); ++I)
        Res.push_back({});
      return MaybeError::success();
    }

    case ExpKind::Reduce: {
      const auto *X = expCast<ReduceExp>(&E);
      std::vector<VName> Targets;
      std::vector<bool> MayConsume(X->Fn.Params.size(), false);
      if (auto Err = checkLambda(X->Fn, Targets, MayConsume, St,
                                 "a reduction operator", E.Loc))
        return Err;
      for (size_t I = 0; I < X->Neutral.size(); ++I)
        Res.push_back({});
      return MaybeError::success();
    }

    case ExpKind::Scan: {
      const auto *X = expCast<ScanExp>(&E);
      std::vector<VName> Targets;
      std::vector<bool> MayConsume(X->Fn.Params.size(), false);
      if (auto Err = checkLambda(X->Fn, Targets, MayConsume, St,
                                 "a scan operator", E.Loc))
        return Err;
      for (size_t I = 0; I < X->Neutral.size(); ++I)
        Res.push_back({});
      return MaybeError::success();
    }

    case ExpKind::ReduceByIndex: {
      const auto *X = expCast<ReduceByIndexExp>(&E);
      // Neither lambda may consume anything (both run many times per
      // destination bin).
      std::vector<VName> CTargets;
      std::vector<bool> CMay(X->CombineFn.Params.size(), false);
      if (auto Err = checkLambda(X->CombineFn, CTargets, CMay, St,
                                 "a reduce_by_index operator", E.Loc))
        return Err;
      std::vector<VName> VTargets;
      std::vector<bool> VMay(X->ValueFn.Params.size(), false);
      if (auto Err = checkLambda(X->ValueFn, VTargets, VMay, St,
                                 "a reduce_by_index value function", E.Loc))
        return Err;
      // SAFE-UPDATE shape: the destination is consumed and the result
      // lives in its memory.
      NameSet ResultAliases;
      auto It = St.Aliases.find(X->Dest);
      if (It != St.Aliases.end())
        ResultAliases = It->second;
      if (auto Err = consume(X->Dest, St, E.Loc))
        return Err;
      Res.push_back(std::move(ResultAliases));
      return MaybeError::success();
    }

    case ExpKind::Stream: {
      const auto *X = expCast<StreamExp>(&E);
      if (X->Form == StreamExp::FormKind::Red) {
        std::vector<VName> RTargets;
        std::vector<bool> RMay(X->ReduceFn.Params.size(), false);
        if (auto Err = checkLambda(X->ReduceFn, RTargets, RMay, St,
                                   "a stream_red operator", E.Loc))
          return Err;
      }
      // Fold function: params are [chunksize, accs..., chunks...].
      // Accumulators may be consumed (their initial values are consumed);
      // chunk params may be consumed (consuming the input arrays, whose
      // chunks are disjoint, so this is race-free — Section 3's point).
      std::vector<VName> Targets;
      std::vector<bool> MayConsume;
      Targets.emplace_back(); // chunk size: scalar, never consumed
      MayConsume.push_back(false);
      for (int I = 0; I < X->NumAccs; ++I) {
        if (X->AccInit[I].isVar())
          Targets.push_back(X->AccInit[I].getVar());
        else
          Targets.emplace_back();
        MayConsume.push_back(true);
      }
      for (const VName &A : X->Arrays) {
        Targets.push_back(A);
        MayConsume.push_back(true);
      }
      if (auto Err = checkLambda(X->FoldFn, Targets, MayConsume, St,
                                 "a stream fold function", E.Loc))
        return Err;
      for (size_t I = 0; I < X->FoldFn.RetTypes.size(); ++I)
        Res.push_back({});
      return MaybeError::success();
    }

    case ExpKind::Kernel: {
      const auto *X = expCast<KernelExp>(&E);
      UniqState Inner = St;
      for (const VName &T : X->ThreadIndices)
        Inner.bind(T, {}, false);
      if (X->isSegmented())
        Inner.bind(X->SegIndex, {}, false);
      std::vector<NameSet> BodyRes;
      if (auto Err = checkBody(X->ThreadBody, Inner, BodyRes))
        return Err;
      if (X->Op == KernelExp::OpKind::SegHist) {
        // The histogram destination is updated in place on the device.
        NameSet ResultAliases;
        auto It = St.Aliases.find(X->HistDest);
        if (It != St.Aliases.end())
          ResultAliases = It->second;
        if (auto Err = consume(X->HistDest, St, E.Loc))
          return Err;
        Res.push_back(std::move(ResultAliases));
        return MaybeError::success();
      }
      for (size_t I = 0; I < X->RetTypes.size(); ++I)
        Res.push_back({});
      return MaybeError::success();
    }
    }

    // Scalar operators produce fresh scalars.
    if (E.kind() == ExpKind::BinOpE || E.kind() == ExpKind::UnOpE ||
        E.kind() == ExpKind::ConvOpE) {
      Res.push_back({});
      return MaybeError::success();
    }

    // Function application: consume arguments in unique positions
    // (SAFE/ALIAS-APPLY).
    const auto *X = expCast<ApplyExp>(&E);
    const FunDef *Callee = P.findFun(X->Func);
    if (!Callee)
      return CompilerError(E.Loc, "call to unknown function " + X->Func);
    NameSet NonUniqueArgAliases;
    for (size_t I = 0; I < X->Args.size() && I < Callee->Params.size();
         ++I) {
      const Type &PT = Callee->Params[I].Ty;
      if (!X->Args[I].isVar())
        continue;
      if (PT.isUnique()) {
        if (auto Err = consume(X->Args[I].getVar(), St, E.Loc))
          return Err;
      } else if (PT.isArray()) {
        NameSet C = St.closure(X->Args[I].getVar());
        NonUniqueArgAliases.insert(C.begin(), C.end());
      }
    }
    for (const Type &RT : Callee->RetTypes)
      Res.push_back(RT.isUnique() ? NameSet{} : NonUniqueArgAliases);
    return MaybeError::success();
  }

  MaybeError checkBody(const Body &B, UniqState &St,
                       std::vector<NameSet> &ResAliases) {
    for (const Stm &S : B.Stms) {
      std::vector<NameSet> Res;
      if (auto Err = checkExp(*S.E, St, Res))
        return Err;
      for (size_t I = 0; I < S.Pat.size(); ++I) {
        // ALIAS-INDEXARRAY vs ALIAS-SLICEARRAY and friends: a scalar value
        // never aliases an array, whatever expression produced it.
        NameSet A;
        if (!S.Pat[I].Ty.isScalar() && I < Res.size())
          A = Res[I];
        St.bind(S.Pat[I].Name, std::move(A), true);
      }
    }
    for (const SubExp &R : B.Result) {
      if (R.isVar()) {
        if (auto Err = observe(R.getVar(), St, SrcLoc()))
          return Err;
        ResAliases.push_back(St.closure(R.getVar()));
      } else {
        ResAliases.push_back({});
      }
    }
    return MaybeError::success();
  }

public:
  MaybeError checkNonUniqueParamConsumption(const FunDef &F) {
    // Re-run with tracking (already folded into checkFunction via Consumable
    // flags); kept for interface symmetry.
    return MaybeError::success();
  }
};

} // namespace

MaybeError fut::checkFunUniqueness(const Program &P, const FunDef &F) {
  return UniquenessChecker(P).checkFunction(F);
}

MaybeError fut::checkProgramUniqueness(const Program &P) {
  for (const FunDef &F : P.Funs)
    if (auto Err = checkFunUniqueness(P, F))
      return Err;
  return MaybeError::success();
}
