//===- MemPlan.cpp - Static device-memory planning ------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "mem/MemPlan.h"

#include "ir/Traversal.h"

#include <algorithm>
#include <climits>
#include <sstream>

using namespace fut;
using namespace fut::mem;

namespace {

/// Byte size of \p Ty when every dimension is constant; -1 otherwise.
int64_t staticBytes(const Type &Ty) {
  if (!Ty.isArray())
    return -1;
  int64_t N = 1;
  for (const Dim &D : Ty.shape()) {
    if (!D.isConst())
      return -1;
    N *= D.getConst().asInt64();
  }
  return N * elemBytes(Ty.elemKind());
}

//===----------------------------------------------------------------------===//
// The statement walk: intervals, alias edges, consumption candidates
//===----------------------------------------------------------------------===//

/// Walks a function body in execution order, numbering every host-level
/// statement (loop and branch bodies recursively; kernel thread bodies
/// are leaves charged to the kernel's own index).  Collects the live
/// interval of every array-typed binding, alias edges, and candidate
/// in-kernel consumptions (validated against the finished intervals by
/// analyseFun, since "no use after the kernel" needs the whole walk).
struct Walker {
  LiveIntervals LI;
  std::vector<AliasEdge> Edges;
  NameSet KernelIO; ///< Kernel inputs and outputs: device-storage names.
  NameSet ParamSet;
  int Counter = 0;

  struct ConsumeCand {
    VName Out, In;
    int T;
  };
  std::vector<ConsumeCand> ConsumeCands;

  void define(const VName &N, const Type &Ty, int T, bool Merge = false) {
    if (!Ty.isArray() || LI.Index.count(N))
      return;
    LiveInterval I;
    I.Name = N;
    I.Ty = Ty;
    I.Start = T;
    I.End = T;
    I.MergeParam = Merge;
    I.Bytes = staticBytes(Ty);
    LI.Index[N] = static_cast<int>(LI.Intervals.size());
    LI.Intervals.push_back(std::move(I));
  }

  void use(const VName &N, int T) {
    auto It = LI.Index.find(N);
    if (It != LI.Index.end())
      LI.Intervals[It->second].End =
          std::max(LI.Intervals[It->second].End, T);
  }

  void extendTo(const VName &N, int L0, int L1, bool Carried) {
    auto It = LI.Index.find(N);
    if (It == LI.Index.end())
      return;
    LiveInterval &I = LI.Intervals[It->second];
    I.Start = std::min(I.Start, L0);
    I.End = std::max(I.End, L1);
    if (Carried)
      I.LoopCarried = true;
  }

  void walkBody(const Body &B) {
    for (const Stm &S : B.Stms) {
      int T = ++Counter;
      if (const auto *L = expDynCast<LoopExp>(S.E.get())) {
        walkLoop(S, *L, T);
        continue;
      }
      if (const auto *IE = expDynCast<IfExp>(S.E.get())) {
        // Branch bodies execute once; their statements get their own
        // indices.  The If's pattern names are host-materialised at
        // runtime (never device-bound), so no definition is recorded.
        if (IE->Cond.isVar())
          use(IE->Cond.getVar(), T);
        walkBody(IE->Then);
        walkBody(IE->Else);
        continue;
      }

      // Leaf statement: every free name (including ones read inside
      // kernel thread bodies and lambdas) is used at this index.
      for (const VName &N : freeVarsInExp(*S.E))
        use(N, T);

      if (const auto *K = expDynCast<KernelExp>(S.E.get())) {
        for (const KernelExp::KInput &In : K->Inputs)
          KernelIO.insert(In.Arr);
        for (const Param &Prm : S.Pat)
          if (Prm.Ty.isArray()) {
            define(Prm.Name, Prm.Ty, T);
            KernelIO.insert(Prm.Name);
          }
        findKernelConsumption(*K, S, T);
      } else if (const auto *SE = expDynCast<SubExpExp>(S.E.get())) {
        if (SE->Val.isVar() && S.Pat.size() == 1 &&
            S.Pat[0].Ty.isArray()) {
          define(S.Pat[0].Name, S.Pat[0].Ty, T);
          Edges.push_back({S.Pat[0].Name, SE->Val.getVar(), AliasKind::Let});
        }
      } else if (const auto *U = expDynCast<UpdateExp>(S.E.get())) {
        // Host-level in-place update: the result owns the consumed
        // source's block (Section 3's uniqueness semantics).
        if (S.Pat.size() == 1 && S.Pat[0].Ty.isArray()) {
          define(S.Pat[0].Name, S.Pat[0].Ty, T);
          Edges.push_back({S.Pat[0].Name, U->Arr, AliasKind::Consume});
        }
      } else {
        // Other host-level producers (iota, concat, copy, slices...):
        // plain host values, relevant only as later kernel inputs.
        for (const Param &Prm : S.Pat)
          define(Prm.Name, Prm.Ty, T);
      }
    }
    // Body results stay live through the body's last statement.
    for (const SubExp &R : B.Result)
      if (R.isVar())
        use(R.getVar(), Counter);
  }

  void walkLoop(const Stm &S, const LoopExp &L, int T) {
    for (const SubExp &SE : L.MergeInit)
      if (SE.isVar())
        use(SE.getVar(), T);
    if (L.Bound.isVar())
      use(L.Bound.getVar(), T);

    int L0 = T;
    for (const Param &MP : L.MergeParams)
      define(MP.Name, MP.Ty, L0, /*Merge=*/true);
    walkBody(L.LoopBody);
    int L1 = Counter;

    // Anything defined before the loop and read inside it must survive
    // every iteration: extend to the loop's end.
    for (const VName &N : freeVarsInBody(L.LoopBody)) {
      auto It = LI.Index.find(N);
      if (It != LI.Index.end() && LI.Intervals[It->second].Start < L0)
        LI.Intervals[It->second].End =
            std::max(LI.Intervals[It->second].End, L1);
    }

    // Loop-carried storage: a body-result array defined inside the loop
    // feeds the next iteration's merge parameter, so its storage (and the
    // merge parameter's, the other double-buffer half) is live across the
    // whole loop.  A result that merely passes outer storage through is
    // not carried storage.
    const Body &LB = L.LoopBody;
    size_t NRes = std::min(
        {S.Pat.size(), LB.Result.size(), L.MergeParams.size()});
    for (size_t I = 0; I < NRes; ++I) {
      if (!LB.Result[I].isVar())
        continue;
      const VName &R = LB.Result[I].getVar();
      auto It = LI.Index.find(R);
      if (It == LI.Index.end() || LI.Intervals[It->second].Start <= L0)
        continue;
      extendTo(R, L0, L1, /*Carried=*/true);
      if (S.Pat[I].Ty.isArray()) {
        define(S.Pat[I].Name, S.Pat[I].Ty, L0);
        extendTo(S.Pat[I].Name, L0, L1, /*Carried=*/true);
        Edges.push_back({S.Pat[I].Name, R, AliasKind::LoopResult});
      }
      if (L.MergeParams[I].Ty.isArray()) {
        extendTo(L.MergeParams[I].Name, L0, L1, /*Carried=*/true);
        Edges.push_back({L.MergeParams[I].Name, R, AliasKind::LoopResult});
      }
    }
    // Merge parameters that never become carried storage (scalar results,
    // pass-throughs) still cover the loop span.
    for (const Param &MP : L.MergeParams)
      if (MP.Ty.isArray())
        extendTo(MP.Name, L0, L1, /*Carried=*/false);
  }

  /// A ThreadBody kernel output that is an in-place update of one of the
  /// kernel's own inputs (thread body: row = input[tid...]; out = row
  /// with [...] <- v) is a consumption candidate: if the input has no use
  /// after this kernel and is not a function parameter, the output may
  /// own the input's block.
  void findKernelConsumption(const KernelExp &K, const Stm &S, int T) {
    // A histogram kernel consumes its destination outright (Section 3's
    // uniqueness semantics, enforced by the verifier): the result is the
    // same width and element kind, so it owns the destination's slab —
    // the subhistogram accumulator is a planned allocation, not a fresh
    // runtime buffer next to a dead destination.
    if (K.Op == KernelExp::OpKind::SegHist) {
      if (S.Pat.size() == 1 && S.Pat[0].Ty.isArray())
        for (const KernelExp::KInput &KI : K.Inputs)
          if (KI.Arr == K.HistDest && KI.Ty == S.Pat[0].Ty)
            ConsumeCands.push_back({S.Pat[0].Name, K.HistDest, T});
      return;
    }
    if (K.Op != KernelExp::OpKind::ThreadBody)
      return;
    const Body &TB = K.ThreadBody;
    NameMap<const Exp *> Defs;
    for (const Stm &TS : TB.Stms)
      if (TS.Pat.size() == 1)
        Defs[TS.Pat[0].Name] = TS.E.get();

    auto Resolve = [&](VName N) -> const Exp * {
      for (int Hops = 0; Hops < 16; ++Hops) {
        auto It = Defs.find(N);
        if (It == Defs.end())
          return nullptr;
        if (const auto *A = expDynCast<SubExpExp>(It->second)) {
          if (A->Val.isVar()) {
            N = A->Val.getVar();
            continue;
          }
          return nullptr;
        }
        return It->second;
      }
      return nullptr;
    };

    for (size_t J = 0; J < TB.Result.size() && J < S.Pat.size(); ++J) {
      if (!TB.Result[J].isVar() || !S.Pat[J].Ty.isArray())
        continue;
      const Exp *RD = Resolve(TB.Result[J].getVar());
      const auto *Upd = RD ? expDynCast<UpdateExp>(RD) : nullptr;
      if (!Upd)
        continue;
      const Exp *AD = Resolve(Upd->Arr);
      const auto *Idx = AD ? expDynCast<IndexExp>(AD) : nullptr;
      if (!Idx)
        continue;
      const KernelExp::KInput *In = nullptr;
      for (const KernelExp::KInput &KI : K.Inputs)
        if (KI.Arr == Idx->Arr) {
          In = &KI;
          break;
        }
      // Only an update of the whole input, row by row, keeps the output
      // congruent with the input's block: same element kind and shape.
      if (!In || !(In->Ty == S.Pat[J].Ty))
        continue;
      ConsumeCands.push_back({S.Pat[J].Name, In->Arr, T});
    }
  }
};

} // namespace

FunMemAnalysis mem::analyseFun(const FunDef &F) {
  Walker W;
  for (const Param &Prm : F.Params) {
    W.define(Prm.Name, Prm.Ty, 0);
    W.ParamSet.insert(Prm.Name);
  }
  W.walkBody(F.FBody);

  // Consumption candidates become alias edges only when the consumed
  // input's storage genuinely dies at the kernel: no later use, not a
  // function parameter (host-owned), not a merge parameter (the other
  // half of a double buffer must stay intact while the new half is
  // written).
  for (const Walker::ConsumeCand &C : W.ConsumeCands) {
    const LiveInterval *In = W.LI.lookup(C.In);
    if (!In || In->End > C.T || In->MergeParam || W.ParamSet.count(C.In))
      continue;
    W.Edges.push_back({C.Out, C.In, AliasKind::Consume});
  }

  FunMemAnalysis A;
  A.Intervals = std::move(W.LI);
  A.Aliases = std::move(W.Edges);
  return A;
}

LiveIntervals mem::computeDeviceIntervals(const FunDef &F) {
  return analyseFun(F).Intervals;
}

std::vector<AliasEdge> mem::computeAliasEdges(const FunDef &F) {
  return analyseFun(F).Aliases;
}

//===----------------------------------------------------------------------===//
// Slab assignment
//===----------------------------------------------------------------------===//

namespace {

/// Collects every kernel input/output name of \p B (the names whose
/// storage the plan must place).
void collectKernelIO(const Body &B, NameSet &IO) {
  for (const Stm &S : B.Stms) {
    if (const auto *K = expDynCast<KernelExp>(S.E.get())) {
      for (const KernelExp::KInput &In : K->Inputs)
        IO.insert(In.Arr);
      for (const Param &Prm : S.Pat)
        if (Prm.Ty.isArray())
          IO.insert(Prm.Name);
      continue;
    }
    forEachChildBody(*S.E, [&](const Body &Inner) {
      collectKernelIO(Inner, IO);
    });
  }
}

struct UnionFind {
  NameMap<VName> Parent;

  VName find(VName N) {
    std::vector<VName> Path;
    for (;;) {
      auto It = Parent.find(N);
      if (It == Parent.end() || It->second == N)
        break;
      Path.push_back(N);
      N = It->second;
    }
    for (const VName &P : Path)
      Parent[P] = N;
    return N;
  }

  void unite(const VName &A, const VName &B) {
    VName RA = find(A), RB = find(B);
    if (!(RA == RB))
      Parent[RA] = RB;
  }
};

/// Accounts the AD tape: every loop-result binding named adtape* is one
/// stack-of-iterates array (the VJP pass binds exactly one per taped loop
/// and merge parameter; the in-loop adtape versions alias its storage).
void countTape(const Body &B, FunPlan &FP) {
  for (const Stm &S : B.Stms) {
    if (expDynCast<LoopExp>(S.E.get()))
      for (const Param &P : S.Pat)
        if (P.Name.Base.rfind("adtape", 0) == 0) {
          ++FP.TapeArrays;
          int64_t Sz = staticBytes(P.Ty);
          if (Sz < 0)
            ++FP.TapeSymbolic;
          else
            FP.TapeBytes += Sz;
        }
    forEachChildBody(*S.E,
                     [&](const Body &Inner) { countTape(Inner, FP); });
  }
}

FunPlan planFun(const FunDef &F) {
  FunMemAnalysis A = analyseFun(F);
  NameSet KernelIO;
  collectKernelIO(F.FBody, KernelIO);

  UnionFind UF;
  for (const AliasEdge &E : A.Aliases)
    if (A.Intervals.lookup(E.Dst) && A.Intervals.lookup(E.Src))
      UF.unite(E.Dst, E.Src);

  // One storage class per union-find root, members in definition order.
  struct Class {
    std::vector<int> Members; ///< Indices into A.Intervals.Intervals.
    int Start = INT_MAX, End = 0;
    bool Hoisted = false, Device = false;
    int64_t Bytes = -1; ///< Static per-buffer size; -1 when symbolic.
    std::string SizeExpr;
  };
  std::vector<Class> Classes;
  NameMap<int> ClassOf;
  const auto &Ivs = A.Intervals.Intervals;
  for (size_t I = 0; I < Ivs.size(); ++I) {
    VName Rep = UF.find(Ivs[I].Name);
    auto It = ClassOf.find(Rep);
    int CI;
    if (It == ClassOf.end()) {
      CI = static_cast<int>(Classes.size());
      ClassOf[Rep] = CI;
      Classes.emplace_back();
    } else {
      CI = It->second;
    }
    Class &C = Classes[CI];
    C.Members.push_back(static_cast<int>(I));
    C.Start = std::min(C.Start, Ivs[I].Start);
    C.End = std::max(C.End, Ivs[I].End);
    C.Hoisted = C.Hoisted || Ivs[I].LoopCarried;
    C.Device = C.Device || KernelIO.count(Ivs[I].Name);
    if (C.Members.size() == 1) {
      C.Bytes = Ivs[I].Bytes;
      C.SizeExpr = Ivs[I].Ty.str();
    } else if (C.Bytes >= 0) {
      // All-static classes take the widest member; any symbolic member
      // makes the whole class symbolic (the executor charges actual
      // bytes regardless).
      C.Bytes = Ivs[I].Bytes < 0 ? -1 : std::max(C.Bytes, Ivs[I].Bytes);
    }
  }

  // Linear-scan best-fit colouring over classes ordered by first
  // definition.  Hoisted (loop-carried) classes get a dedicated
  // double-buffered slab; other classes reuse any compatible slab whose
  // previous tenant's lifetime has ended.
  std::vector<int> Order;
  for (size_t I = 0; I < Classes.size(); ++I)
    if (Classes[I].Device)
      Order.push_back(static_cast<int>(I));
  std::stable_sort(Order.begin(), Order.end(), [&](int X, int Y) {
    if (Classes[X].Start != Classes[Y].Start)
      return Classes[X].Start < Classes[Y].Start;
    return Classes[X].Members.front() < Classes[Y].Members.front();
  });

  FunPlan FP;
  FP.Fun = F.Name;
  struct SlabState {
    int LastEnd = -1;
    int64_t PerBuf = -1;
    std::string SizeExpr;
    bool Hoisted = false;
  };
  std::vector<SlabState> SlabStates;

  NameMap<int> FirstEdge; // Dst -> index into A.Aliases, for entry labels.
  for (size_t I = 0; I < A.Aliases.size(); ++I)
    if (!FirstEdge.count(A.Aliases[I].Dst))
      FirstEdge[A.Aliases[I].Dst] = static_cast<int>(I);

  for (int CI : Order) {
    Class &C = Classes[CI];
    int Slab = -1;
    bool Reused = false;
    if (!C.Hoisted) {
      // Best fit: the compatible free slab wasting the fewest bytes
      // (static classes), or the first free slab of structurally equal
      // symbolic size.
      int64_t BestWaste = -1;
      for (size_t SI = 0; SI < SlabStates.size(); ++SI) {
        SlabState &SS = SlabStates[SI];
        if (SS.Hoisted || SS.LastEnd >= C.Start)
          continue;
        if (C.Bytes >= 0) {
          if (SS.PerBuf < C.Bytes)
            continue;
          int64_t Waste = SS.PerBuf - C.Bytes;
          if (BestWaste < 0 || Waste < BestWaste) {
            BestWaste = Waste;
            Slab = static_cast<int>(SI);
          }
        } else if (SS.PerBuf < 0 && SS.SizeExpr == C.SizeExpr) {
          Slab = static_cast<int>(SI);
          break;
        }
      }
      if (Slab >= 0) {
        Reused = true;
        ++FP.ReuseLinks;
      }
    }
    if (Slab < 0) {
      Slab = static_cast<int>(SlabStates.size());
      SlabState SS;
      SS.PerBuf = C.Bytes;
      SS.SizeExpr = C.SizeExpr;
      SS.Hoisted = C.Hoisted;
      SlabStates.push_back(SS);
      SlabInfo Info;
      Info.Id = Slab;
      Info.Bytes = C.Bytes < 0 ? -1 : (C.Hoisted ? 2 * C.Bytes : C.Bytes);
      Info.SizeExpr = C.SizeExpr;
      Info.Hoisted = C.Hoisted;
      FP.Slabs.push_back(Info);
      if (C.Hoisted)
        ++FP.HoistedSlabs;
    }
    SlabStates[Slab].LastEnd = std::max(SlabStates[Slab].LastEnd, C.End);

    for (int MI : C.Members) {
      const LiveInterval &Iv = Ivs[MI];
      PlanEntry E;
      E.Name = Iv.Name;
      E.Slab = Slab;
      E.Bytes = Iv.Bytes;
      E.SizeExpr = Iv.Ty.str();
      E.Hoisted = C.Hoisted;
      E.BufferIndex = (C.Hoisted && Iv.MergeParam) ? 1 : 0;
      E.Offset =
          (E.BufferIndex == 1 && C.Bytes >= 0) ? C.Bytes : 0;
      E.Reused = Reused;
      E.Start = Iv.Start;
      E.End = Iv.End;
      auto EI = FirstEdge.find(Iv.Name);
      if (EI != FirstEdge.end()) {
        E.HasAlias = true;
        E.AliasOf = A.Aliases[EI->second].Src;
        E.Alias = A.Aliases[EI->second].Kind;
      }
      FP.EntryIndex[E.Name] = static_cast<int>(FP.Entries.size());
      FP.Entries.push_back(std::move(E));
    }
  }

  for (const SlabInfo &SI : FP.Slabs)
    if (SI.Bytes >= 0)
      FP.StaticArenaBytes += SI.Bytes;
  countTape(F.FBody, FP);
  return FP;
}

const char *aliasKindStr(AliasKind K) {
  switch (K) {
  case AliasKind::Let:
    return "let";
  case AliasKind::Consume:
    return "consume";
  case AliasKind::LoopResult:
    return "loop";
  }
  return "?";
}

} // namespace

MemoryPlan mem::planMemory(const Program &P) {
  MemoryPlan MP;
  for (const FunDef &F : P.Funs)
    MP.Funs.push_back(planFun(F));
  return MP;
}

std::string MemoryPlan::str() const {
  std::ostringstream OS;
  OS << "memory plan\n";
  for (const FunPlan &FP : Funs) {
    OS << "fun " << FP.Fun << ": " << FP.Slabs.size() << " slabs, arena "
       << FP.StaticArenaBytes << " bytes, " << FP.HoistedSlabs
       << " hoisted, " << FP.ReuseLinks << " reused\n";
    if (FP.TapeArrays) {
      OS << "  tape: " << FP.TapeBytes << " bytes in " << FP.TapeArrays
         << " stack-of-iterates array(s)";
      if (FP.TapeSymbolic)
        OS << ", " << FP.TapeSymbolic << " runtime-sized";
      OS << "\n";
    }
    for (const SlabInfo &SI : FP.Slabs) {
      OS << "  slab " << SI.Id << ": ";
      if (SI.Hoisted) {
        if (SI.Bytes >= 0)
          OS << "2x " << (SI.Bytes / 2) << " bytes";
        else
          OS << "2x dyn " << SI.SizeExpr;
        OS << ", hoisted double-buffer";
      } else if (SI.Bytes >= 0) {
        OS << SI.Bytes << " bytes";
      } else {
        OS << "dyn " << SI.SizeExpr;
      }
      OS << "\n";
      for (const PlanEntry &E : FP.Entries) {
        if (E.Slab != SI.Id)
          continue;
        OS << "    " << E.Name.str() << ": ";
        if (SI.Hoisted)
          OS << "half " << E.BufferIndex;
        else
          OS << "offset " << E.Offset;
        if (E.Bytes >= 0)
          OS << ", " << E.Bytes << " bytes";
        else
          OS << ", dyn " << E.SizeExpr;
        if (E.HasAlias)
          OS << ", alias of " << E.AliasOf.str() << " ("
             << aliasKindStr(E.Alias) << ")";
        if (E.Hoisted && !E.HasAlias)
          OS << ", loop-carried";
        if (E.Reused)
          OS << ", reuse";
        OS << ", live [" << E.Start << "," << E.End << "]\n";
      }
    }
  }
  return OS.str();
}
