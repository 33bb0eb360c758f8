//===- Fusion.cpp - The fusion engine (Section 4) ----------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "fusion/Fusion.h"

#include "trace/Trace.h"

#include "ir/Builder.h"
#include "ir/Traversal.h"

#include <map>

using namespace fut;

namespace {

class BodyFuser {
  NameSource &NS;
  FusionStats &Stats;

public:
  BodyFuser(NameSource &NS, FusionStats &Stats) : NS(NS), Stats(Stats) {}

  void run(Body &B) {
    // Bottom-up: fuse inside nested bodies first (fusion "at all nesting
    // levels").
    for (Stm &S : B.Stms)
      forEachChildBody(*S.E, [&](Body &Inner) { run(Inner); });
    while (tryFuseOnce(B))
      ;
  }

private:
  //===--------------------------------------------------------------------===//
  // Dependency-graph queries
  //===--------------------------------------------------------------------===//

  /// Where each name is defined: statement index and output position.
  struct DefSite {
    int StmIdx;
    int OutPos;
  };

  NameMap<DefSite> defSites(const Body &B) const {
    NameMap<DefSite> Out;
    for (int I = 0; I < static_cast<int>(B.Stms.size()); ++I)
      for (int J = 0; J < static_cast<int>(B.Stms[I].Pat.size()); ++J)
        Out[B.Stms[I].Pat[J].Name] = {I, J};
    return Out;
  }

  /// All statement indices (other than \p Self) whose expression mentions
  /// \p V, plus whether the body result mentions it.
  void findUsers(const Body &B, const VName &V, int Self,
                 std::vector<int> &Users, bool &UsedInResult) const {
    Users.clear();
    UsedInResult = false;
    for (int I = 0; I < static_cast<int>(B.Stms.size()); ++I) {
      if (I == Self)
        continue;
      NameSet Free = freeVarsInExp(*B.Stms[I].E);
      if (Free.count(V))
        Users.push_back(I);
      for (const Param &P : B.Stms[I].Pat)
        for (const Dim &D : P.Ty.shape())
          if (D.isVar() && D.getVar() == V && Users.empty())
            Users.push_back(I);
    }
    for (const SubExp &R : B.Result)
      if (R.isVar() && R.getVar() == V)
        UsedInResult = true;
  }

  /// True if every output of statement \p P is used only by statement \p T,
  /// and only as a direct SOAC array input there.
  bool outputsFeedOnly(const Body &B, int P, int T,
                       const std::vector<VName> &ConsumerArrays) const {
    for (const Param &Out : B.Stms[P].Pat) {
      std::vector<int> Users;
      bool InResult;
      findUsers(B, Out.Name, P, Users, InResult);
      if (InResult)
        return false;
      for (int U : Users)
        if (U != T)
          return false;
      if (Users.empty())
        continue; // Dead output: fine, it is simply dropped.
      // Within T, the name must occur only as an array input — not free in
      // the lambda, the width, or the neutral elements.  We check that its
      // only occurrences are in ConsumerArrays by subtracting them.
      NameSet Free = freeVarsInExp(*B.Stms[T].E);
      if (!Free.count(Out.Name))
        return false;
      bool IsInput = false;
      for (const VName &A : ConsumerArrays)
        IsInput = IsInput || A == Out.Name;
      if (!IsInput)
        return false;
      // Free occurrences beyond the array list (e.g. explicit indexing
      // inside the lambda) block fusion, per Section 4.2.
      bool FreeInLambda = false;
      forEachLambda(*B.Stms[T].E, [&](const Lambda &L) {
        FreeInLambda = FreeInLambda || freeVarsInLambda(L).count(Out.Name);
      });
      if (FreeInLambda)
        return false;
    }
    return true;
  }

  /// True if some statement in (P, T) consumes a variable the producer
  /// reads — fusing would move the producer past the consumption point.
  bool consumptionBetween(const Body &B, int P, int T) const {
    NameSet ProducerReads = freeVarsInExp(*B.Stms[P].E);
    for (int I = P + 1; I < T; ++I) {
      const Exp &E = *B.Stms[I].E;
      if (const auto *U = expDynCast<UpdateExp>(&E))
        if (ProducerReads.count(U->Arr))
          return true;
      if (E.kind() == ExpKind::Apply)
        return true; // Conservative: calls may consume unique arguments.
    }
    return false;
  }

  //===--------------------------------------------------------------------===//
  // The fusion step
  //===--------------------------------------------------------------------===//

  bool tryFuseOnce(Body &B) {
    NameMap<DefSite> Defs = defSites(B);

    for (int T = 0; T < static_cast<int>(B.Stms.size()); ++T) {
      Exp &TE = *B.Stms[T].E;

      if (auto *TM = expDynCast<MapExp>(&TE)) {
        for (const VName &In : TM->Arrays) {
          auto It = Defs.find(In);
          if (It == Defs.end() || It->second.StmIdx >= T)
            continue;
          int P = It->second.StmIdx;
          auto *PM = expDynCast<MapExp>(B.Stms[P].E.get());
          if (!PM || !(PM->Width == TM->Width))
            continue;
          if (!outputsFeedOnly(B, P, T, TM->Arrays) ||
              consumptionBetween(B, P, T))
            continue;
          fuseMapMap(B, P, T);
          ++Stats.Vertical;
          return true;
        }
      }

      if (auto *TH = expDynCast<ReduceByIndexExp>(&TE)) {
        // map ∘ reduce_by_index: a map feeding only the histogram's value
        // arrays composes into the value function.  The index array and
        // the (consumed) destination must not come from the producer, nor
        // may the producer read the destination — the fused histogram
        // would otherwise read storage it consumes.  Widths need no
        // explicit check: the type rules force the value arrays' outer
        // dimension to equal the index array's, so a well-typed producer
        // map already has the right width.
        int P = producerOfAll(Defs, TH->ValueArrs, T);
        if (P >= 0 && !consumptionBetween(B, P, T)) {
          auto *PM = expDynCast<MapExp>(B.Stms[P].E.get());
          bool ProducesMeta = false;
          if (PM)
            for (const Param &Out : B.Stms[P].Pat)
              if (Out.Name == TH->IndexArr || Out.Name == TH->Dest)
                ProducesMeta = true;
          bool ReadsDest = false;
          if (PM)
            for (const VName &A : PM->Arrays)
              if (A == TH->Dest)
                ReadsDest = true;
          if (PM && !ProducesMeta && !ReadsDest &&
              outputsFeedOnly(B, P, T, TH->ValueArrs)) {
            fuseMapHist(B, P, T);
            ++Stats.HistFusions;
            return true;
          }
        }
      }

      if (auto *TR = expDynCast<ReduceExp>(&TE)) {
        // All inputs from one producer?
        int P = producerOfAll(Defs, TR->Arrays, T);
        if (P >= 0 && !consumptionBetween(B, P, T)) {
          if (auto *PM = expDynCast<MapExp>(B.Stms[P].E.get())) {
            // A reduce with a vectorised (array-valued) operator is not a
            // fusion target: rule G5 turns it into a segmented reduction
            // over the transposed, materialised input instead (this is
            // why Fig 4b does O(n*k) memory traffic without in-place
            // updates).
            bool Vectorised = !TR->Fn.RetTypes.empty() &&
                              TR->Fn.RetTypes[0].isArray();
            if (!Vectorised && PM->Width == TR->Width &&
                outputsFeedOnly(B, P, T, TR->Arrays)) {
              fuseMapReduce(B, P, T);
              ++Stats.Redomap;
              return true;
            }
          }
          if (auto *PS = expDynCast<StreamExp>(B.Stms[P].E.get())) {
            if ((PS->Form == StreamExp::FormKind::Par ||
                 PS->Form == StreamExp::FormKind::Red) &&
                PS->Width == TR->Width &&
                mappedOutputsFeedOnly(B, P, *PS, T, TR->Arrays)) {
              fuseStreamReduce(B, P, T);
              ++Stats.StreamFusions;
              return true;
            }
          }
        }
      }
    }

    // Horizontal fusion: merge independent maps of equal width that share
    // an input.
    for (int T = 1; T < static_cast<int>(B.Stms.size()); ++T) {
      auto *TM = expDynCast<MapExp>(B.Stms[T].E.get());
      if (!TM)
        continue;
      for (int S = T - 1; S >= 0; --S) {
        auto *SM = expDynCast<MapExp>(B.Stms[S].E.get());
        if (!SM || !(SM->Width == TM->Width))
          continue;
        if (!sharesInput(*SM, *TM))
          continue;
        if (!independentForHorizontal(B, S, T))
          continue;
        fuseHorizontal(B, S, T);
        ++Stats.Horizontal;
        return true;
      }
    }
    return false;
  }

  int producerOfAll(const NameMap<DefSite> &Defs,
                    const std::vector<VName> &Arrays, int T) const {
    int P = -1;
    for (const VName &A : Arrays) {
      auto It = Defs.find(A);
      if (It == Defs.end() || It->second.StmIdx >= T)
        return -1;
      if (P < 0)
        P = It->second.StmIdx;
      else if (P != It->second.StmIdx)
        return -1;
    }
    return P;
  }

  static bool sharesInput(const MapExp &A, const MapExp &B) {
    for (const VName &X : A.Arrays)
      for (const VName &Y : B.Arrays)
        if (X == Y)
          return true;
    return false;
  }

  bool independentForHorizontal(const Body &B, int S, int T) const {
    // T must not (transitively through statements in (S,T)) use S's
    // outputs, no statement in (S, T] may use S's outputs, and no
    // consumption may occur in between.
    NameSet SOuts;
    for (const Param &P : B.Stms[S].Pat)
      SOuts.insert(P.Name);
    for (int I = S + 1; I <= T; ++I) {
      NameSet Free = freeVarsInExp(*B.Stms[I].E);
      for (const VName &V : SOuts)
        if (Free.count(V))
          return false;
    }
    return !consumptionBetween(B, S, T + 1);
  }

  //===--------------------------------------------------------------------===//
  // Rewrites
  //===--------------------------------------------------------------------===//

  /// map g (map f x) == map (g ∘ f) x.
  void fuseMapMap(Body &B, int P, int T) {
    auto *PM = expCast<MapExp>(B.Stms[P].E.get());
    auto *TM = expCast<MapExp>(B.Stms[T].E.get());

    Lambda Pl = renameLambda(PM->Fn, NS);
    Lambda Tl = renameLambda(TM->Fn, NS);

    std::vector<VName> NewInputs = PM->Arrays;
    std::vector<Param> NewParams = Pl.Params;
    NameMap<SubExp> Bind; // consumer params -> producer results / params

    for (size_t I = 0; I < TM->Arrays.size(); ++I) {
      const VName &In = TM->Arrays[I];
      int OutPos = -1;
      for (size_t J = 0; J < B.Stms[P].Pat.size(); ++J)
        if (B.Stms[P].Pat[J].Name == In)
          OutPos = static_cast<int>(J);
      if (OutPos >= 0) {
        Bind[Tl.Params[I].Name] = Pl.B.Result[OutPos];
        continue;
      }
      // Shared or new input.
      int Existing = -1;
      for (size_t J = 0; J < NewInputs.size(); ++J)
        if (NewInputs[J] == In)
          Existing = static_cast<int>(J);
      if (Existing >= 0) {
        Bind[Tl.Params[I].Name] = SubExp::var(NewParams[Existing].Name);
      } else {
        NewInputs.push_back(In);
        NewParams.push_back(Tl.Params[I]);
      }
    }
    substituteInBody(Bind, Tl.B);

    Body NewBody = std::move(Pl.B);
    for (Stm &S : Tl.B.Stms)
      NewBody.Stms.push_back(std::move(S));
    NewBody.Result = std::move(Tl.B.Result);

    Lambda Fused(std::move(NewParams), std::move(NewBody),
                 std::move(Tl.RetTypes));
    B.Stms[T].E = std::make_unique<MapExp>(TM->Width, std::move(Fused),
                                           std::move(NewInputs));
    B.Stms.erase(B.Stms.begin() + P);
  }

  /// reduce op e (map f x) == stream_red op (redomap fold) e x — the
  /// paper's redomap construct expressed with streaming SOACs.
  void fuseMapReduce(Body &B, int P, int T) {
    auto *PM = expCast<MapExp>(B.Stms[P].E.get());
    auto *TR = expCast<ReduceExp>(B.Stms[T].E.get());

    size_t K = TR->Neutral.size();
    std::vector<Type> AccTys;
    for (size_t I = 0; I < K; ++I)
      AccTys.push_back(TR->Fn.Params[I].Ty);

    Lambda Pl = renameLambda(PM->Fn, NS);
    VName C = NS.fresh("chunksz");
    std::vector<Param> Params;
    Params.emplace_back(C, Type::scalar(ScalarKind::I32));
    std::vector<Param> Accs;
    for (const Type &Ty : AccTys) {
      Accs.emplace_back(NS.fresh("acc"), Ty);
      Params.push_back(Accs.back());
    }
    std::vector<VName> ChunkNames;
    for (const Param &PP : Pl.Params) {
      Params.emplace_back(NS.fresh("chunk"),
                          PP.Ty.arrayOf(SubExp::var(C)));
      ChunkNames.push_back(Params.back().Name);
    }

    BodyBuilder BB(NS);
    std::vector<Type> MappedTys;
    for (const Type &Ty : Pl.RetTypes)
      MappedTys.push_back(Ty.arrayOf(SubExp::var(C)));
    auto Mapped =
        BB.bindMulti("mapped", MappedTys,
                     std::make_unique<MapExp>(SubExp::var(C), std::move(Pl),
                                              std::move(ChunkNames)));

    // Align the mapped results with the reduce's input order.
    std::vector<VName> RedInputs;
    for (const VName &A : TR->Arrays) {
      int OutPos = -1;
      for (size_t J = 0; J < B.Stms[P].Pat.size(); ++J)
        if (B.Stms[P].Pat[J].Name == A)
          OutPos = static_cast<int>(J);
      assert(OutPos >= 0 && "reduce input is not a producer output");
      RedInputs.push_back(Mapped[OutPos]);
    }

    std::vector<SubExp> AccSE;
    for (const Param &A : Accs)
      AccSE.push_back(SubExp::var(A.Name));
    auto Part = BB.bindMulti(
        "part", AccTys,
        std::make_unique<ReduceExp>(SubExp::var(C),
                                    renameLambda(TR->Fn, NS), AccSE,
                                    std::move(RedInputs),
                                    TR->Commutative));
    std::vector<SubExp> Res;
    for (const VName &N : Part)
      Res.push_back(SubExp::var(N));

    Lambda Fold(std::move(Params), BB.finish(std::move(Res)), AccTys);
    B.Stms[T].E = std::make_unique<StreamExp>(
        StreamExp::FormKind::Red, TR->Width, renameLambda(TR->Fn, NS),
        static_cast<int>(K), TR->Neutral, std::move(Fold), PM->Arrays);
    B.Stms.erase(B.Stms.begin() + P);
  }

  /// reduce_by_index dest op ne is (map f x) ==
  /// reduce_by_index dest op ne is x, with f composed into the value
  /// function — the histogram analogue of map-map fusion.
  void fuseMapHist(Body &B, int P, int T) {
    auto *PM = expCast<MapExp>(B.Stms[P].E.get());
    auto *TH = expCast<ReduceByIndexExp>(B.Stms[T].E.get());

    Lambda Pl = renameLambda(PM->Fn, NS);
    Lambda Vl = renameLambda(TH->ValueFn, NS);

    NameMap<SubExp> Bind; // value-fn params -> producer results
    for (size_t I = 0; I < TH->ValueArrs.size(); ++I) {
      int OutPos = -1;
      for (size_t J = 0; J < B.Stms[P].Pat.size(); ++J)
        if (B.Stms[P].Pat[J].Name == TH->ValueArrs[I])
          OutPos = static_cast<int>(J);
      assert(OutPos >= 0 && "histogram value array is not a map output");
      Bind[Vl.Params[I].Name] = Pl.B.Result[OutPos];
    }
    substituteInBody(Bind, Vl.B);

    Body NewBody = std::move(Pl.B);
    for (Stm &S : Vl.B.Stms)
      NewBody.Stms.push_back(std::move(S));
    NewBody.Result = std::move(Vl.B.Result);

    TH->ValueFn = Lambda(std::move(Pl.Params), std::move(NewBody),
                         std::move(Vl.RetTypes));
    TH->ValueArrs = PM->Arrays;
    B.Stms.erase(B.Stms.begin() + P);
  }

  /// True if all of \p Arrays are mapped (non-accumulator) outputs of the
  /// stream at statement \p P, each used only by statement \p T.
  bool mappedOutputsFeedOnly(const Body &B, int P, const StreamExp &PS,
                             int T, const std::vector<VName> &Arrays) const {
    for (const VName &A : Arrays) {
      bool Found = false;
      for (size_t J = PS.NumAccs; J < B.Stms[P].Pat.size(); ++J)
        Found = Found || B.Stms[P].Pat[J].Name == A;
      if (!Found)
        return false;
    }
    // Each mapped output must feed only T.
    for (size_t J = PS.NumAccs; J < B.Stms[P].Pat.size(); ++J) {
      std::vector<int> Users;
      bool InResult;
      findUsers(B, B.Stms[P].Pat[J].Name, P, Users, InResult);
      if (InResult)
        return false;
      for (int U : Users)
        if (U != T)
          return false;
    }
    return true;
  }

  /// F6: fuse a parallel stream producer with a consuming reduce (Fig 10a
  /// to Fig 10b).  The fused stream keeps the producer's accumulators and
  /// adds the reduce's.
  void fuseStreamReduce(Body &B, int P, int T) {
    auto *PS = expCast<StreamExp>(B.Stms[P].E.get());
    auto *TR = expCast<ReduceExp>(B.Stms[T].E.get());

    size_t K = TR->Neutral.size();
    std::vector<Type> TAccTys;
    for (size_t I = 0; I < K; ++I)
      TAccTys.push_back(TR->Fn.Params[I].Ty);

    // Combined reduction operator: the component-wise product of the
    // producer's operator (if any) and the consumer's.
    Lambda CombRed = productReducer(PS->Form == StreamExp::FormKind::Red
                                        ? &PS->ReduceFn
                                        : nullptr,
                                    PS->NumAccs, TR->Fn, K);

    // Fold function: run the producer's fold, then reduce its mapped chunk
    // results with the consumer's operator.
    Lambda Fl = renameLambda(PS->FoldFn, NS);
    std::vector<Param> Params;
    Params.push_back(Fl.Params[0]); // chunk size
    for (int I = 0; I < PS->NumAccs; ++I)
      Params.push_back(Fl.Params[1 + I]);
    std::vector<Param> TAccs;
    for (const Type &Ty : TAccTys) {
      TAccs.emplace_back(NS.fresh("acc"), Ty);
      Params.push_back(TAccs.back());
    }
    for (size_t I = 1 + PS->NumAccs; I < Fl.Params.size(); ++I)
      Params.push_back(Fl.Params[I]);

    BodyBuilder BB(NS);
    for (Stm &S : Fl.B.Stms)
      BB.append(std::move(S));
    // Bind the producer's mapped results to names if they are not already.
    size_t NumMapped = Fl.B.Result.size() - PS->NumAccs;
    std::vector<VName> MappedNames(NumMapped);
    for (size_t J = 0; J < NumMapped; ++J) {
      const SubExp &R = Fl.B.Result[PS->NumAccs + J];
      assert(R.isVar() && "mapped stream result must be an array variable");
      MappedNames[J] = R.getVar();
    }
    std::vector<VName> RedInputs;
    for (const VName &A : TR->Arrays) {
      int OutPos = -1;
      for (size_t J = PS->NumAccs; J < B.Stms[P].Pat.size(); ++J)
        if (B.Stms[P].Pat[J].Name == A)
          OutPos = static_cast<int>(J - PS->NumAccs);
      assert(OutPos >= 0 && "reduce input is not a stream output");
      RedInputs.push_back(MappedNames[OutPos]);
    }
    std::vector<SubExp> TAccSE;
    for (const Param &A : TAccs)
      TAccSE.push_back(SubExp::var(A.Name));
    auto Part = BB.bindMulti(
        "part", TAccTys,
        std::make_unique<ReduceExp>(SubExp::var(Fl.Params[0].Name),
                                    renameLambda(TR->Fn, NS), TAccSE,
                                    std::move(RedInputs), TR->Commutative));

    std::vector<SubExp> Res(Fl.B.Result.begin(),
                            Fl.B.Result.begin() + PS->NumAccs);
    for (const VName &N : Part)
      Res.push_back(SubExp::var(N));
    std::vector<Type> RetTys;
    for (int I = 0; I < PS->NumAccs; ++I)
      RetTys.push_back(Fl.RetTypes[I]);
    RetTys.insert(RetTys.end(), TAccTys.begin(), TAccTys.end());

    Lambda Fold(std::move(Params), BB.finish(std::move(Res)),
                std::move(RetTys));

    std::vector<SubExp> AccInit = PS->AccInit;
    AccInit.insert(AccInit.end(), TR->Neutral.begin(), TR->Neutral.end());

    // Pattern: the producer's accumulator outputs followed by the reduce's.
    std::vector<Param> Pat(B.Stms[P].Pat.begin(),
                           B.Stms[P].Pat.begin() + PS->NumAccs);
    Pat.insert(Pat.end(), B.Stms[T].Pat.begin(), B.Stms[T].Pat.end());

    ExpPtr Fused = std::make_unique<StreamExp>(
        StreamExp::FormKind::Red, PS->Width, std::move(CombRed),
        PS->NumAccs + static_cast<int>(K), std::move(AccInit),
        std::move(Fold), PS->Arrays);
    B.Stms[T] = Stm(std::move(Pat), std::move(Fused));
    B.Stms.erase(B.Stms.begin() + P);
  }

  /// The component-wise product of two reduction operators (the "banana
  /// split" product of Section 2.1).
  Lambda productReducer(const Lambda *A, int ANum, const Lambda &B,
                        size_t BNum) {
    Lambda Ar = A ? renameLambda(*A, NS) : Lambda();
    Lambda Br = renameLambda(B, NS);
    std::vector<Param> Params;
    // First halves.
    for (int I = 0; I < ANum; ++I)
      Params.push_back(Ar.Params[I]);
    for (size_t I = 0; I < BNum; ++I)
      Params.push_back(Br.Params[I]);
    // Second halves.
    for (int I = 0; I < ANum; ++I)
      Params.push_back(Ar.Params[ANum + I]);
    for (size_t I = 0; I < BNum; ++I)
      Params.push_back(Br.Params[BNum + I]);

    Body NewBody;
    std::vector<SubExp> Res;
    std::vector<Type> RetTys;
    if (A) {
      for (Stm &S : Ar.B.Stms)
        NewBody.Stms.push_back(std::move(S));
      Res.insert(Res.end(), Ar.B.Result.begin(), Ar.B.Result.end());
      RetTys.insert(RetTys.end(), Ar.RetTypes.begin(), Ar.RetTypes.end());
    }
    for (Stm &S : Br.B.Stms)
      NewBody.Stms.push_back(std::move(S));
    Res.insert(Res.end(), Br.B.Result.begin(), Br.B.Result.end());
    RetTys.insert(RetTys.end(), Br.RetTypes.begin(), Br.RetTypes.end());
    NewBody.Result = std::move(Res);
    return Lambda(std::move(Params), std::move(NewBody), std::move(RetTys));
  }

  /// Horizontal fusion: (map f x, map g y) == map (f * g) (x, y).
  void fuseHorizontal(Body &B, int S, int T) {
    auto *SM = expCast<MapExp>(B.Stms[S].E.get());
    auto *TM = expCast<MapExp>(B.Stms[T].E.get());

    Lambda Sl = renameLambda(SM->Fn, NS);
    Lambda Tl = renameLambda(TM->Fn, NS);

    std::vector<VName> NewInputs = SM->Arrays;
    std::vector<Param> NewParams = Sl.Params;
    NameMap<SubExp> Bind;
    for (size_t I = 0; I < TM->Arrays.size(); ++I) {
      const VName &In = TM->Arrays[I];
      int Existing = -1;
      for (size_t J = 0; J < NewInputs.size(); ++J)
        if (NewInputs[J] == In)
          Existing = static_cast<int>(J);
      if (Existing >= 0) {
        Bind[Tl.Params[I].Name] = SubExp::var(NewParams[Existing].Name);
      } else {
        NewInputs.push_back(In);
        NewParams.push_back(Tl.Params[I]);
      }
    }
    substituteInBody(Bind, Tl.B);

    Body NewBody = std::move(Sl.B);
    for (Stm &St : Tl.B.Stms)
      NewBody.Stms.push_back(std::move(St));
    std::vector<SubExp> Res = NewBody.Result;
    Res.insert(Res.end(), Tl.B.Result.begin(), Tl.B.Result.end());
    NewBody.Result = std::move(Res);

    std::vector<Type> RetTys = Sl.RetTypes;
    RetTys.insert(RetTys.end(), Tl.RetTypes.begin(), Tl.RetTypes.end());

    std::vector<Param> Pat = B.Stms[S].Pat;
    Pat.insert(Pat.end(), B.Stms[T].Pat.begin(), B.Stms[T].Pat.end());

    Lambda Fused(std::move(NewParams), std::move(NewBody),
                 std::move(RetTys));
    B.Stms[T] = Stm(std::move(Pat),
                    std::make_unique<MapExp>(TM->Width, std::move(Fused),
                                             std::move(NewInputs)));
    B.Stms.erase(B.Stms.begin() + S);
  }
};

} // namespace

FusionStats fut::fuseBody(Body &B, NameSource &Names) {
  FusionStats Stats;
  BodyFuser(Names, Stats).run(B);
  return Stats;
}

FusionStats fut::fuseProgram(Program &P, NameSource &Names) {
  trace::ScopedSpan Span("pass:fusion", "compiler");
  FusionStats Total;
  for (FunDef &F : P.Funs) {
    FusionStats S = fuseBody(F.FBody, Names);
    Total.Vertical += S.Vertical;
    Total.Redomap += S.Redomap;
    Total.StreamFusions += S.StreamFusions;
    Total.Horizontal += S.Horizontal;
    Total.HistFusions += S.HistFusions;
  }
  trace::counter("fusion.vertical", Total.Vertical);
  trace::counter("fusion.redomap", Total.Redomap);
  trace::counter("fusion.stream", Total.StreamFusions);
  trace::counter("fusion.horizontal", Total.Horizontal);
  trace::counter("fusion.hist", Total.HistFusions);
  Span.arg("vertical", Total.Vertical);
  Span.arg("redomap", Total.Redomap);
  Span.arg("stream", Total.StreamFusions);
  Span.arg("horizontal", Total.Horizontal);
  Span.arg("hist", Total.HistFusions);
  return Total;
}
