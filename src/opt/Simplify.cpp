//===- Simplify.cpp - The simplification engine ------------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "opt/Simplify.h"

#include "ir/Builder.h"
#include "ir/Traversal.h"
#include "trace/Trace.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>

using namespace fut;

namespace {

/// One simplification round over a body: forward rewriting with a
/// definitions table, copy propagation, CSE; then backward dead-code
/// elimination.  Returns true if anything changed.
class BodySimplifier {
  NameSource &NS;
  /// Number of individual rewrites applied (constant folds, copy props,
  /// CSE hits, dead statements removed); 0 means a fixed point.
  int Rewrites = 0;

  /// Definitions visible at the current program point (outer bodies
  /// included); maps a name to the expression that bound it.
  NameMap<const Exp *> Defs;

  /// Names whose array may be consumed somewhere in the body under
  /// simplification (in-place update sources, reduce_by_index / SegHist
  /// destinations, loop merge initialisers, function-call arguments, SOAC
  /// inputs whose lambda consumes the matching parameter), closed over
  /// aliases.  CSE must not merge a binding whose name lands here: sharing
  /// one array between two consumers is exactly the aliasing the
  /// uniqueness rules forbid, and the verifier would reject the output.
  NameSet ConsumedMaybe;

public:
  explicit BodySimplifier(NameSource &NS) : NS(NS) {}

  int run(Body &B) {
    std::vector<std::pair<VName, VName>> AliasEdges;
    collectConsumed(B, ConsumedMaybe, AliasEdges);
    // Close over aliasing both ways: consuming an alias consumes its
    // source, and a consumed source poisons every alias of it.
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (const auto &E : AliasEdges) {
        if (ConsumedMaybe.count(E.first) && !ConsumedMaybe.count(E.second)) {
          ConsumedMaybe.insert(E.second);
          Changed = true;
        }
        if (ConsumedMaybe.count(E.second) && !ConsumedMaybe.count(E.first)) {
          ConsumedMaybe.insert(E.first);
          Changed = true;
        }
      }
    }
    simplify(B);
    return Rewrites;
  }

private:
  const Exp *defOf(const SubExp &S) const {
    if (!S.isVar())
      return nullptr;
    auto It = Defs.find(S.getVar());
    return It == Defs.end() ? nullptr : It->second;
  }
  const Exp *defOf(const VName &V) const { return defOf(SubExp::var(V)); }

  static bool isZero(const SubExp &S) {
    return S.isConst() && S.getConst().asDouble() == 0.0 &&
           !S.getConst().isFloat();
  }
  static bool isIntOne(const SubExp &S) {
    return S.isConst() && !S.getConst().isFloat() &&
           S.getConst().asInt64() == 1;
  }

  /// Attempts to replace \p E by a cheaper expression; returns the
  /// replacement or null.
  ExpPtr rewrite(const Exp &E) {
    switch (E.kind()) {
    case ExpKind::BinOpE: {
      const auto *X = expCast<BinOpExp>(&E);
      if (X->A.isConst() && X->B.isConst()) {
        PrimValue R;
        // Keep failing ops (e.g. div by zero) for runtime semantics.
        if (evalBinOpInto(X->Op, X->A.getConst(), X->B.getConst(), R) ==
            BinOpFault::None)
          return subExpE(SubExp::constant(R));
        return nullptr;
      }
      // Integer algebraic identities (float identities are unsound for
      // NaN/-0.0 and are left alone, except the safe x*1 and x+0-like ones
      // are also skipped for floats for simplicity).
      switch (X->Op) {
      case BinOp::Add:
        if (isZero(X->A))
          return subExpE(X->B);
        if (isZero(X->B))
          return subExpE(X->A);
        break;
      case BinOp::Sub:
        if (isZero(X->B))
          return subExpE(X->A);
        break;
      case BinOp::Mul:
        if (isIntOne(X->A))
          return subExpE(X->B);
        if (isIntOne(X->B))
          return subExpE(X->A);
        if (isZero(X->A))
          return subExpE(X->A);
        if (isZero(X->B))
          return subExpE(X->B);
        break;
      case BinOp::Div:
        if (isIntOne(X->B))
          return subExpE(X->A);
        break;
      default:
        break;
      }
      return nullptr;
    }

    case ExpKind::UnOpE: {
      const auto *X = expCast<UnOpExp>(&E);
      if (X->A.isConst()) {
        auto R = evalUnOp(X->Op, X->A.getConst());
        if (R)
          return subExpE(SubExp::constant(R.take()));
      }
      return nullptr;
    }

    case ExpKind::ConvOpE: {
      const auto *X = expCast<ConvOpExp>(&E);
      if (X->Op.From == X->Op.To)
        return subExpE(X->A);
      if (X->A.isConst())
        return subExpE(SubExp::constant(evalConvOp(X->Op, X->A.getConst())));
      return nullptr;
    }

    case ExpKind::Index: {
      const auto *X = expCast<IndexExp>(&E);
      const Exp *D = defOf(X->Arr);
      if (!D)
        return nullptr;
      // iota-index: (iota n)[i] == i.
      if (const auto *I = expDynCast<IotaExp>(D)) {
        if (X->Indices.size() == 1) {
          const SubExp &Idx = X->Indices[0];
          (void)I;
          return subExpE(Idx);
        }
        return nullptr;
      }
      // replicate-index: (replicate n v)[i, rest...] == v[rest...].
      if (const auto *R = expDynCast<ReplicateExp>(D)) {
        if (X->Indices.size() == 1)
          return subExpE(R->Val);
        if (R->Val.isVar()) {
          std::vector<SubExp> Rest(X->Indices.begin() + 1,
                                   X->Indices.end());
          return std::make_unique<IndexExp>(R->Val.getVar(),
                                            std::move(Rest));
        }
        return nullptr;
      }
      // rearrange-index (full rank): (rearrange p a)[i...] == a[p(i)...].
      if (const auto *RA = expDynCast<RearrangeExp>(D)) {
        if (X->Indices.size() == RA->Perm.size()) {
          std::vector<SubExp> SrcIdx(X->Indices.size());
          for (size_t I = 0; I < RA->Perm.size(); ++I)
            SrcIdx[RA->Perm[I]] = X->Indices[I];
          return std::make_unique<IndexExp>(RA->Arr, std::move(SrcIdx));
        }
        return nullptr;
      }
      return nullptr;
    }

    case ExpKind::Rearrange: {
      const auto *X = expCast<RearrangeExp>(&E);
      if (isIdentityPerm(X->Perm))
        return varE(X->Arr);
      if (const auto *Inner = expDynCast<RearrangeExp>(defOf(X->Arr)))
        return std::make_unique<RearrangeExp>(
            composePerms(Inner->Perm, X->Perm), Inner->Arr);
      return nullptr;
    }

    case ExpKind::Copy: {
      // copy of a fresh (alias-free) array is the array itself, provided
      // the source is not consumed elsewhere; freshness means its defining
      // expression constructs a new array.
      const Exp *D = defOf(expCast<CopyExp>(&E)->Arr);
      if (D && (D->kind() == ExpKind::Iota ||
                D->kind() == ExpKind::Replicate || D->isSOAC() ||
                D->kind() == ExpKind::Copy ||
                D->kind() == ExpKind::Concat))
        return varE(expCast<CopyExp>(&E)->Arr);
      return nullptr;
    }

    default:
      return nullptr;
    }
  }

  /// Gathers every name a body may consume, plus alias edges between
  /// bindings (reshape/rearrange/slice/indexing and plain copies), for
  /// the CSE consumption guard above.  Conservative on purpose: apply
  /// arguments count as consumers without looking at the callee's
  /// uniqueness signature, and a lambda consuming its parameter marks the
  /// whole corresponding input array.
  static void collectConsumed(const Body &B, NameSet &Out,
                              std::vector<std::pair<VName, VName>> &Edges) {
    for (const Stm &S : B.Stms) {
      const Exp &E = *S.E;
      switch (E.kind()) {
      case ExpKind::Update:
        Out.insert(expCast<UpdateExp>(&E)->Arr);
        break;
      case ExpKind::ReduceByIndex:
        Out.insert(expCast<ReduceByIndexExp>(&E)->Dest);
        break;
      case ExpKind::Kernel: {
        const auto *K = expCast<KernelExp>(&E);
        if (K->Op == KernelExp::OpKind::SegHist)
          Out.insert(K->HistDest);
        break;
      }
      case ExpKind::Loop:
        for (const SubExp &I : expCast<LoopExp>(&E)->MergeInit)
          if (I.isVar())
            Out.insert(I.getVar());
        break;
      case ExpKind::Apply:
        for (const SubExp &A : expCast<ApplyExp>(&E)->Args)
          if (A.isVar())
            Out.insert(A.getVar());
        break;
      case ExpKind::Map: {
        // map is the one SOAC whose lambda may consume its parameters
        // (uniqueness: one row per thread); that consumes the input array.
        const auto *M = expCast<MapExp>(&E);
        NameSet Inner;
        collectConsumed(M->Fn.B, Inner, Edges);
        for (size_t I = 0; I < M->Fn.Params.size() && I < M->Arrays.size();
             ++I)
          if (Inner.count(M->Fn.Params[I].Name))
            Out.insert(M->Arrays[I]);
        Out.insert(Inner.begin(), Inner.end());
        continue; // lambda body already walked
      }
      case ExpKind::SubExpE: {
        const auto *SE = expCast<SubExpExp>(&E);
        if (SE->Val.isVar() && S.Pat.size() == 1)
          Edges.push_back({S.Pat[0].Name, SE->Val.getVar()});
        break;
      }
      case ExpKind::Reshape:
      case ExpKind::Rearrange:
      case ExpKind::Slice:
      case ExpKind::Index:
        // Alias-producing forms: link the result to the source array so
        // the closure reaches consumption through views.
        if (S.Pat.size() == 1) {
          NameSet Free = freeVarsInExp(E);
          for (const VName &V : Free)
            Edges.push_back({S.Pat[0].Name, V});
        }
        break;
      default:
        break;
      }
      forEachChildBody(E, [&](const Body &Inner) {
        collectConsumed(Inner, Out, Edges);
      });
    }
  }

  struct CSEKey {
    const Exp *E;
    size_t Hash;
  };
  struct CSEKeyHash {
    size_t operator()(const CSEKey &K) const { return K.Hash; }
  };
  struct CSEKeyEq {
    bool operator()(const CSEKey &A, const CSEKey &B) const {
      return expsStructurallyEqual(*A.E, *B.E);
    }
  };
  using CSETable =
      std::unordered_map<CSEKey, std::vector<Param>, CSEKeyHash, CSEKeyEq>;

  void simplify(Body &B) {
    NameMap<SubExp> Subst;
    CSETable CSE;
    std::vector<Stm> Out;
    Out.reserve(B.Stms.size());

    for (Stm &S : B.Stms) {
      substituteInExp(Subst, *S.E);
      for (Param &P : S.Pat)
        P.Ty = substituteInType(Subst, P.Ty);

      // Recurse into nested bodies first.
      forEachChildBody(*S.E, [&](Body &Inner) { simplify(Inner); });

      // Constant-condition if: splice the taken branch.
      if (auto *If = expDynCast<IfExp>(S.E.get());
          If && If->Cond.isConst()) {
        Body &Taken = If->Cond.getConst().getBool() ? If->Then : If->Else;
        for (Stm &Inner : Taken.Stms)
          Out.push_back(std::move(Inner));
        for (size_t I = 0; I < S.Pat.size(); ++I)
          Subst[S.Pat[I].Name] = Taken.Result[I];
        ++Rewrites;
        continue;
      }

      // Rule-based rewriting to a fixed point on this one expression.
      for (ExpPtr R = rewrite(*S.E); R; R = rewrite(*S.E)) {
        S.E = std::move(R);
        ++Rewrites;
      }

      // Copy propagation.
      if (const auto *SE = expDynCast<SubExpExp>(S.E.get());
          SE && S.Pat.size() == 1) {
        Subst[S.Pat[0].Name] = SE->Val;
        ++Rewrites;
        continue;
      }

      // CSE.  Bindings whose array may be consumed are excluded entirely
      // — neither dropped in favour of an earlier twin nor offered as a
      // merge target — because two consumers must keep distinct arrays.
      bool MayBeConsumed = false;
      for (const Param &P : S.Pat)
        MayBeConsumed = MayBeConsumed || ConsumedMaybe.count(P.Name);
      if (!MayBeConsumed && expIsCSEable(*S.E)) {
        CSEKey Key{S.E.get(), hashExpShallow(*S.E)};
        auto It = CSE.find(Key);
        if (It != CSE.end() && It->second.size() == S.Pat.size()) {
          for (size_t I = 0; I < S.Pat.size(); ++I) {
            const Param &Dropped = S.Pat[I];
            const Param &Kept = It->second[I];
            Subst[Dropped.Name] = SubExp::var(Kept.Name);
            // A dropped pattern may be the sole introduction of an
            // existential dim (e.g. concat's result length); remap it to
            // the surviving pattern's dim or later uses dangle.
            if (Dropped.Ty.rank() == Kept.Ty.rank())
              for (int D = 0; D < Dropped.Ty.rank(); ++D) {
                const Dim &DD = Dropped.Ty.shape()[D];
                const Dim &KD = Kept.Ty.shape()[D];
                if (DD.isVar() && !(DD == KD) && !Subst.count(DD.getVar()))
                  Subst[DD.getVar()] = KD;
              }
          }
          ++Rewrites;
          continue;
        }
        std::vector<Param> Pat = S.Pat;
        // The key references the expression now owned by Out; push first.
        Out.push_back(std::move(S));
        CSE.emplace(CSEKey{Out.back().E.get(),
                           hashExpShallow(*Out.back().E)},
                    std::move(Pat));
        for (const Param &P : Out.back().Pat)
          Defs[P.Name] = Out.back().E.get();
        continue;
      }

      Out.push_back(std::move(S));
      for (const Param &P : Out.back().Pat)
        Defs[P.Name] = Out.back().E.get();
    }

    for (SubExp &R : B.Result)
      if (R.isVar()) {
        auto It = Subst.find(R.getVar());
        if (It != Subst.end())
          R = It->second;
      }
    // Also rewrite any remaining references in the collected statements'
    // nested bodies (substitution was applied eagerly above, so nothing to
    // do here).
    B.Stms = std::move(Out);

    deadCodeElim(B);
  }

  void deadCodeElim(Body &B) {
    NameSet Live;
    for (const SubExp &R : B.Result)
      if (R.isVar())
        Live.insert(R.getVar());

    std::vector<Stm> Kept;
    for (auto It = B.Stms.rbegin(); It != B.Stms.rend(); ++It) {
      bool Needed = false;
      for (const Param &P : It->Pat)
        Needed = Needed || Live.count(P.Name);
      if (!Needed) {
        ++Rewrites;
        continue;
      }
      NameSet Free = freeVarsInExp(*It->E);
      Live.insert(Free.begin(), Free.end());
      for (const Param &P : It->Pat)
        for (const Dim &D : P.Ty.shape())
          if (D.isVar())
            Live.insert(D.getVar());
      Kept.push_back(std::move(*It));
    }
    B.Stms.assign(std::make_move_iterator(Kept.rbegin()),
                  std::make_move_iterator(Kept.rend()));
  }
};

/// Hoists invariant, cheap bindings out of loops and SOAC lambdas
/// (let-floating / hoisting in Fig 3).  Returns true on change.
class Hoister {
  int Rewrites = 0;

public:
  int run(Body &B) {
    hoistInBody(B);
    return Rewrites;
  }

private:
  static bool hoistable(const Exp &E) {
    // Cheap, pure, *total* expressions without nested bodies.  Loops and
    // SOACs stay put.  iota/replicate hoisting is the paper's aggressive
    // allocation hoisting.  Indexing and partial operators (div/mod/pow)
    // are not speculated past a possibly zero-trip binder.
    switch (E.kind()) {
    case ExpKind::SubExpE:
    case ExpKind::UnOpE:
    case ExpKind::ConvOpE:
    case ExpKind::Iota:
    case ExpKind::Replicate:
    case ExpKind::Rearrange:
    case ExpKind::Reshape:
    case ExpKind::Copy:
      return true;
    case ExpKind::BinOpE: {
      BinOp Op = expCast<BinOpExp>(&E)->Op;
      return Op != BinOp::Div && Op != BinOp::Mod && Op != BinOp::Pow;
    }
    default:
      return false;
    }
  }

  void hoistInBody(Body &B) {
    std::vector<Stm> Out;
    for (Stm &S : B.Stms) {
      // First recurse so inner hoists surface to this level in one round.
      forEachChildBody(*S.E, [&](Body &Inner) { hoistInBody(Inner); });

      bool IsBinder = S.E->kind() == ExpKind::Loop || S.E->isSOAC();
      if (IsBinder && S.E->kind() != ExpKind::If) {
        NameSet Bound;
        forEachBoundName(*S.E, [&](const VName &N) { Bound.insert(N); });
        forEachChildBody(*S.E, [&](Body &Inner) {
          std::vector<Stm> Stay;
          for (Stm &IS : Inner.Stms) {
            bool CanHoist = hoistable(*IS.E);
            if (CanHoist) {
              NameSet Free = freeVarsInExp(*IS.E);
              for (const VName &V : Free)
                if (Bound.count(V)) {
                  CanHoist = false;
                  break;
                }
            }
            if (CanHoist) {
              Out.push_back(std::move(IS));
              ++Rewrites;
            } else {
              for (const Param &P : IS.Pat)
                Bound.insert(P.Name);
              Stay.push_back(std::move(IS));
            }
          }
          Inner.Stms = std::move(Stay);
        });
      }
      Out.push_back(std::move(S));
    }
    B.Stms = std::move(Out);
  }
};

} // namespace

int fut::simplifyBody(Body &B, NameSource &Names) {
  // Fixpoint iteration bound per body.
  constexpr int kMaxRounds = 8;
  int Total = 0;
  for (int Round = 0; Round < kMaxRounds; ++Round) {
    int N = BodySimplifier(Names).run(B);
    N += Hoister().run(B);
    if (!N)
      break;
    Total += N;
  }
  trace::counter("simplify.rewrites", Total);
  return Total;
}

int fut::simplifyProgram(Program &P, NameSource &Names) {
  trace::ScopedSpan Span("pass:simplify", "compiler");
  int Total = 0;
  for (FunDef &F : P.Funs)
    Total += simplifyBody(F.FBody, Names);
  Span.arg("rewrites", Total);
  return Total;
}

namespace {

/// Splices calls to callees into the caller's bodies.
class Inliner {
  Program &P;
  NameSource &NS;

public:
  Inliner(Program &P, NameSource &NS) : P(P), NS(NS) {}

  void run() {
    for (FunDef &F : P.Funs)
      inlineInBody(F.FBody, F.Name);
  }

private:
  bool callsSelf(const FunDef &F, const std::string &Name, int Depth = 0) {
    if (Depth > 16)
      return true; // Deep chains: conservatively treat as recursive.
    bool Found = false;
    scanBodyForCalls(F.FBody, [&](const std::string &Callee) {
      if (Callee == Name)
        Found = true;
      else if (const FunDef *C = P.findFun(Callee))
        Found = Found || callsSelf(*C, Name, Depth + 1);
    });
    return Found;
  }

  static void
  scanBodyForCalls(const Body &B,
                   const std::function<void(const std::string &)> &Fn) {
    for (const Stm &S : B.Stms) {
      if (const auto *A = expDynCast<ApplyExp>(S.E.get()))
        Fn(A->Func);
      forEachChildBody(*S.E,
                       [&](const Body &Inner) { scanBodyForCalls(Inner, Fn); });
    }
  }

  void inlineInBody(Body &B, const std::string &Current) {
    std::vector<Stm> Out;
    for (Stm &S : B.Stms) {
      forEachChildBody(*S.E,
                       [&](Body &Inner) { inlineInBody(Inner, Current); });
      auto *A = expDynCast<ApplyExp>(S.E.get());
      const FunDef *Callee = A ? P.findFun(A->Func) : nullptr;
      if (!A || !Callee || A->Func == Current ||
          callsSelf(*Callee, A->Func)) {
        Out.push_back(std::move(S));
        continue;
      }
      // Bind arguments to parameters, then alpha-rename the callee body.
      NameMap<SubExp> Map;
      for (size_t I = 0; I < Callee->Params.size(); ++I)
        Map[Callee->Params[I].Name] = A->Args[I];
      Body Spliced = renameBody(Callee->FBody, NS, Map);
      // Recursively inline in the freshly spliced code too.
      inlineInBody(Spliced, Current);
      for (Stm &IS : Spliced.Stms)
        Out.push_back(std::move(IS));
      for (size_t I = 0; I < S.Pat.size(); ++I)
        Out.emplace_back(std::vector<Param>{S.Pat[I]},
                         subExpE(Spliced.Result[I]));
    }
    B.Stms = std::move(Out);
  }
};

} // namespace

void fut::inlineFunctions(Program &P, NameSource &Names) {
  Inliner(P, Names).run();
}

void fut::removeDeadFunctions(Program &P,
                              const std::vector<std::string> &ExtraRoots) {
  std::vector<FunDef> Kept;
  // Reachability from main.  A set, not a defaulting bool map: membership
  // queries must never insert the queried name.
  std::unordered_set<std::string> Reachable;
  std::vector<std::string> Work{"main"};
  Work.insert(Work.end(), ExtraRoots.begin(), ExtraRoots.end());
  while (!Work.empty()) {
    std::string Name = Work.back();
    Work.pop_back();
    if (!Reachable.insert(Name).second)
      continue;
    const FunDef *F = P.findFun(Name);
    if (!F)
      continue;
    std::function<void(const Body &)> Scan = [&](const Body &B) {
      for (const Stm &S : B.Stms) {
        if (const auto *A = expDynCast<ApplyExp>(S.E.get()))
          Work.push_back(A->Func);
        forEachChildBody(std::as_const(*S.E), Scan);
      }
    };
    Scan(F->FBody);
  }
  for (FunDef &F : P.Funs)
    if (Reachable.count(F.Name))
      Kept.push_back(std::move(F));
  P.Funs = std::move(Kept);
}
