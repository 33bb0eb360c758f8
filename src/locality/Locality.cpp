//===- Locality.cpp - Coalescing and tiling (Section 5.2) ---------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "locality/Locality.h"

#include "trace/Trace.h"

#include "ir/Builder.h"
#include "ir/Traversal.h"

#include <algorithm>

using namespace fut;

namespace {

/// How an index expression varies across the threads of a warp.
enum class IdxClass : uint8_t {
  Seq,  // invariant across the warp (loop counters, computed values)
  Tid,  // varies with a slow (outer) thread dimension
  Fast, // varies with the warp-fast thread dimension
};

IdxClass maxClass(IdxClass A, IdxClass B) {
  return static_cast<IdxClass>(
      std::max(static_cast<int>(A), static_cast<int>(B)));
}

/// The access patterns observed for one kernel input: one entry per
/// completed access chain, each a per-dimension classification.
struct InputAccesses {
  std::vector<std::vector<IdxClass>> Patterns;
};

/// Walks a kernel's thread body, classifying how each input array is
/// indexed.  View-producing bindings (partial indexing, slices) are
/// followed; when an array value is consumed wholesale (as a SOAC input or
/// similar), the remaining dimensions are treated as sequential reads.
class AccessAnalysis {
  const KernelExp &K;
  NameMap<IdxClass> ScalarClass;

  /// In-flight view chains: name -> (input index, classes so far).
  struct ViewState {
    int InputIdx;
    std::vector<IdxClass> Classes;
  };
  NameMap<ViewState> Views;

public:
  std::vector<InputAccesses> PerInput;

  explicit AccessAnalysis(const KernelExp &K) : K(K) {
    PerInput.resize(K.Inputs.size());
    // Mirror the device's thread mapping: segmented kernels with a grid
    // run one thread per segment (the segment position is sequential);
    // a gridless segmented kernel parallelises within the segment.
    for (size_t I = 0; I + 1 < K.ThreadIndices.size(); ++I)
      ScalarClass[K.ThreadIndices[I]] = IdxClass::Tid;
    if (!K.ThreadIndices.empty())
      ScalarClass[K.ThreadIndices.back()] = IdxClass::Fast;
    if (K.isSegmented())
      ScalarClass[K.SegIndex] =
          K.ThreadIndices.empty() ? IdxClass::Fast : IdxClass::Seq;
    for (size_t I = 0; I < K.Inputs.size(); ++I)
      Views[K.Inputs[I].Arr] = ViewState{static_cast<int>(I), {}};
    analyseBody(K.ThreadBody);
  }

private:
  IdxClass classify(const SubExp &S) const {
    if (S.isConst())
      return IdxClass::Seq;
    auto It = ScalarClass.find(S.getVar());
    return It == ScalarClass.end() ? IdxClass::Seq : It->second;
  }

  int rankOfInput(int Idx) const { return K.Inputs[Idx].Ty.rank(); }

  void complete(const ViewState &V) {
    std::vector<IdxClass> P = V.Classes;
    while (static_cast<int>(P.size()) < rankOfInput(V.InputIdx))
      P.push_back(IdxClass::Seq);
    PerInput[V.InputIdx].Patterns.push_back(std::move(P));
  }

  /// Consumption of a view as a whole array: remaining dims read
  /// sequentially.
  void consumeWhole(const VName &N) {
    auto It = Views.find(N);
    if (It == Views.end())
      return;
    complete(It->second);
  }

  void analyseExp(const Stm &S, const Exp &E) {
    switch (E.kind()) {
    case ExpKind::BinOpE: {
      const auto *X = expCast<BinOpExp>(&E);
      if (S.Pat.size() == 1)
        ScalarClass[S.Pat[0].Name] =
            maxClass(classify(X->A), classify(X->B));
      return;
    }
    case ExpKind::UnOpE:
      if (S.Pat.size() == 1)
        ScalarClass[S.Pat[0].Name] = classify(expCast<UnOpExp>(&E)->A);
      return;
    case ExpKind::ConvOpE:
      if (S.Pat.size() == 1)
        ScalarClass[S.Pat[0].Name] = classify(expCast<ConvOpExp>(&E)->A);
      return;
    case ExpKind::SubExpE: {
      const auto *X = expCast<SubExpExp>(&E);
      if (S.Pat.size() == 1) {
        if (X->Val.isVar()) {
          auto It = Views.find(X->Val.getVar());
          if (It != Views.end()) {
            Views[S.Pat[0].Name] = It->second;
            return;
          }
        }
        ScalarClass[S.Pat[0].Name] = classify(X->Val);
      }
      return;
    }

    case ExpKind::Index: {
      const auto *X = expCast<IndexExp>(&E);
      auto It = Views.find(X->Arr);
      if (It == Views.end())
        return;
      ViewState V = It->second;
      for (const SubExp &I : X->Indices)
        V.Classes.push_back(classify(I));
      if (static_cast<int>(V.Classes.size()) >= rankOfInput(V.InputIdx)) {
        complete(V);
        if (S.Pat.size() == 1)
          ScalarClass[S.Pat[0].Name] = IdxClass::Seq;
      } else if (S.Pat.size() == 1) {
        Views[S.Pat[0].Name] = std::move(V);
      }
      return;
    }

    case ExpKind::Slice: {
      const auto *X = expCast<SliceExp>(&E);
      auto It = Views.find(X->Arr);
      if (It == Views.end())
        return;
      ViewState V = It->second;
      // The slice dimension: elements are later read per position; the
      // warp-variation comes from the offset.
      V.Classes.push_back(classify(X->Offset));
      // Remaining inner dims default to Seq when consumed; track the view
      // so that consumption completes it (the slice's first dim class was
      // just pushed; subsequent element reads vary it sequentially too,
      // which the offset class conservatively dominates).
      if (S.Pat.size() == 1)
        Views[S.Pat[0].Name] = std::move(V);
      return;
    }

    default:
      break;
    }

    // Anything else consuming a view wholesale: the remaining dims are
    // sequential reads (SOAC inputs, copies, updates, rearranges...).
    forEachFreeOperand(E, [&](const SubExp &Op) {
      if (Op.isVar())
        consumeWhole(Op.getVar());
    });
    // Also look inside nested bodies for direct reads of views.
    forEachChildBody(E, [&](const Body &Inner) { analyseBody(Inner); });
  }

  void analyseBody(const Body &B) {
    for (const Stm &S : B.Stms)
      analyseExp(S, *S.E);
    for (const SubExp &R : B.Result)
      if (R.isVar())
        consumeWhole(R.getVar());
  }
};

class LocalityPass {
  const LocalityOptions &Opts;
  LocalityStats Stats;

public:
  explicit LocalityPass(const LocalityOptions &Opts) : Opts(Opts) {}

  LocalityStats run(Program &P) {
    for (FunDef &F : P.Funs)
      visitBody(F.FBody);
    return Stats;
  }

private:
  void visitBody(Body &B) {
    for (Stm &S : B.Stms) {
      if (auto *K = expDynCast<KernelExp>(S.E.get()))
        optimiseKernel(*K);
      forEachChildBody(*S.E, [&](Body &Inner) { visitBody(Inner); });
    }
  }

  void optimiseKernel(KernelExp &K) {
    // Per-thread array results are stored with the thread index innermost
    // so the writes coalesce (the paper transposes results and
    // temporaries, not just inputs).
    if (Opts.EnableCoalescing && K.Op == KernelExp::OpKind::ThreadBody) {
      for (const Type &T : K.RetTypes)
        if (T.rank() > static_cast<int>(K.GridDims.size())) {
          K.TransposedOutputs = true;
          ++Stats.CoalescedInputs;
          break;
        }
    }
    if (K.Inputs.empty())
      return;
    AccessAnalysis AA(K);

    for (size_t I = 0; I < K.Inputs.size(); ++I) {
      KernelExp::KInput &In = K.Inputs[I];
      const auto &Patterns = AA.PerInput[I].Patterns;
      if (Patterns.empty())
        continue;
      int Rank = In.Ty.rank();

      // Tiling: some access reads the array wholesale with thread-
      // invariant indices — every thread of the workgroup streams the
      // same elements (the N-body/MRI-Q/LavaMD pattern).
      bool AnySeqOnly = false;
      for (const auto &P : Patterns) {
        bool AllSeq = true;
        for (IdxClass C : P)
          AllSeq = AllSeq && C == IdxClass::Seq;
        AnySeqOnly = AnySeqOnly || AllSeq;
      }
      if (AnySeqOnly) {
        if (Opts.EnableTiling && !In.Tiled) {
          // Arrays smaller than this many elements are not worth tiling;
          // only constant sizes are checked, symbolic sizes tile.
          constexpr int64_t kMinTileElems = 32;
          bool BigEnough = true;
          if (In.Ty.outerDim().isConst())
            BigEnough =
                In.Ty.outerDim().getConst().asInt64() >= kMinTileElems;
          if (BigEnough) {
            In.Tiled = true;
            ++Stats.TiledInputs;
          }
        }
        continue;
      }

      if (!Opts.EnableCoalescing || Rank < 2)
        continue;

      // Coalescing: find the unique dimension that carries the warp-fast
      // index in every pattern; if it is not the innermost dimension and
      // the dims after it are sequential, rotate it innermost.
      int FastDim = -1;
      bool Consistent = true;
      for (const auto &P : Patterns) {
        int ThisFast = -1;
        for (int D = 0; D < static_cast<int>(P.size()); ++D)
          if (P[D] == IdxClass::Fast)
            ThisFast = D; // last Fast position
        if (ThisFast < 0) {
          continue; // a pure-sequential access doesn't constrain layout
        }
        if (FastDim < 0)
          FastDim = ThisFast;
        else if (FastDim != ThisFast)
          Consistent = false;
        // Dims after the fast one must be warp-constant (sequential or
        // outer-thread-indexed) for the rotation to help.
        for (int D = ThisFast + 1; D < static_cast<int>(P.size()); ++D)
          if (P[D] == IdxClass::Fast)
            Consistent = false;
      }
      if (!Consistent || FastDim < 0 || FastDim == Rank - 1)
        continue;

      // Storage order: all other dims first, the fast dim last.
      std::vector<int> Perm;
      for (int D = 0; D < Rank; ++D)
        if (D != FastDim)
          Perm.push_back(D);
      Perm.push_back(FastDim);
      if (In.LayoutPerm == Perm)
        continue;
      In.LayoutPerm = std::move(Perm);
      ++Stats.CoalescedInputs;
    }
  }
};

} // namespace

LocalityStats fut::optimiseLocality(Program &P, const LocalityOptions &Opts) {
  trace::ScopedSpan Span("pass:locality", "compiler");
  LocalityStats S = LocalityPass(Opts).run(P);
  trace::counter("locality.coalesced", S.CoalescedInputs);
  trace::counter("locality.tiled", S.TiledInputs);
  Span.arg("coalesced", S.CoalescedInputs);
  Span.arg("tiled", S.TiledInputs);
  return S;
}
