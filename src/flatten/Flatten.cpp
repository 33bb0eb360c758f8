//===- Flatten.cpp - Kernel extraction (Section 5) ----------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "flatten/Flatten.h"

#include "trace/Trace.h"

#include "ir/Builder.h"
#include "ir/Traversal.h"
#include "opt/Simplify.h"

#include <deque>

using namespace fut;

namespace {

/// One level of the map-nest context Σ: "M x y" of Fig 12 — the bound
/// lambda parameters x over the arrays y, plus the width and the thread
/// index standing for this level in extracted kernels.
struct MapCtx {
  SubExp Width;
  VName Tid;
  std::vector<Param> Params;
  std::vector<VName> Arrays;
  /// Per input: the array is a host-level iota, so the parameter is just
  /// the thread index.
  std::vector<bool> FromIota;
};

/// How an inner name was expanded to a host-level array by distribution
/// (G4): Arr has Depth leading context dimensions; indexing it by the
/// first Depth thread indices recovers the inner value of type InnerTy.
struct Expansion {
  VName Arr;
  int Depth = 0;
  Type InnerTy;
};

class KernelExtractor {
  NameSource &NS;
  const FlattenOptions &Opts;
  FlattenStats Stats;

  /// Types of names in host scope (function parameters, emitted bindings,
  /// host-loop merge parameters).  Used to decide what is "available" at
  /// top level — the irregularity guard of G4 — and which kernel free
  /// variables are array inputs.
  NameMap<Type> TopTypes;

  /// Host-level replicate definitions, for extracting the scalar neutral
  /// element in rule G5 (reduce (f) (replicate k n) z).
  NameMap<std::pair<SubExp, SubExp>> HostReplicates;

  /// Host-level iota definitions: a map over "iota n" binds its parameter
  /// directly to the thread index instead of reading an index array.
  NameSet HostIotas;

public:
  KernelExtractor(NameSource &NS, const FlattenOptions &Opts)
      : NS(NS), Opts(Opts) {}

  FlattenStats run(Program &P) {
    for (FunDef &F : P.Funs) {
      TopTypes.clear();
      HostReplicates.clear();
      HostIotas.clear();
      for (const Param &Prm : F.Params)
        noteHost(Prm.Name, Prm.Ty);
      F.FBody = transformHostBody(std::move(F.FBody));
    }
    return Stats;
  }

private:
  bool hostAvail(const SubExp &S) const {
    return S.isConst() || TopTypes.count(S.getVar());
  }

  std::vector<bool> iotaFlags(const std::vector<VName> &Arrays) const {
    std::vector<bool> Out;
    for (const VName &A : Arrays)
      Out.push_back(HostIotas.count(A) > 0);
    return Out;
  }

  /// Replaces dimensions that are not host-available with fresh
  /// existential size variables, so kernel return types never dangle.
  Type sanitizeType(const Type &T) {
    std::vector<Dim> Dims;
    for (const Dim &D : T.shape())
      Dims.push_back(hostAvail(D) ? D : SubExp::var(NS.fresh("exist")));
    return Type(T.elemKind(), std::move(Dims));
  }

  //===--------------------------------------------------------------------===//
  // Host-level emission helpers
  //===--------------------------------------------------------------------===//

  /// Registers a host-scope binding, including its symbolic dimensions
  /// (which are bound dynamically and are thus host-available sizes).
  void noteHost(const VName &N, const Type &Ty) {
    TopTypes[N] = Ty;
    for (const Dim &D : Ty.shape())
      if (D.isVar() && !TopTypes.count(D.getVar()))
        TopTypes[D.getVar()] = Type::scalar(ScalarKind::I32);
  }

  void emit(BodyBuilder &Host, Stm S) {
    for (const Param &P : S.Pat)
      noteHost(P.Name, P.Ty);
    if (const auto *R = expDynCast<ReplicateExp>(S.E.get()))
      if (S.Pat.size() == 1)
        HostReplicates[S.Pat[0].Name] = {R->N, R->Val};
    if (S.E->kind() == ExpKind::Iota && S.Pat.size() == 1)
      HostIotas.insert(S.Pat[0].Name);
    Host.append(std::move(S));
  }

  std::vector<VName> emitMulti(BodyBuilder &Host, const std::string &Base,
                               const std::vector<Type> &Tys, ExpPtr E) {
    std::vector<VName> Names = Host.bindMulti(Base, Tys, std::move(E));
    for (size_t I = 0; I < Names.size(); ++I)
      noteHost(Names[I], Tys[I]);
    return Names;
  }

  VName emitOne(BodyBuilder &Host, const std::string &Base, Type Ty,
                ExpPtr E) {
    VName N = Host.bind(Base, Ty, std::move(E));
    noteHost(N, Ty);
    return N;
  }

  //===--------------------------------------------------------------------===//
  // Host body traversal
  //===--------------------------------------------------------------------===//

  Body transformHostBody(Body B) {
    BodyBuilder Host(NS);
    std::deque<Stm> Work;
    for (Stm &S : B.Stms)
      Work.push_back(std::move(S));

    while (!Work.empty()) {
      Stm S = std::move(Work.front());
      Work.pop_front();
      Exp &E = *S.E;

      switch (E.kind()) {
      case ExpKind::Map: {
        auto *M = expCast<MapExp>(&E);
        MapCtx Ctx{M->Width, NS.fresh("gtid"), M->Fn.Params, M->Arrays,
                   iotaFlags(M->Arrays)};
        NameMap<Expansion> Avail;
        std::vector<VName> Rets =
            flattenNest({Ctx}, std::move(M->Fn.B), Avail, Host);
        aliasResults(Host, S.Pat, Rets);
        continue;
      }
      case ExpKind::Reduce: {
        if (!Opts.KernelizeReduce) {
          // Left sequential on the host (reference-implementation mode).
          ++Stats.SequentialisedSOACs;
          emit(Host, std::move(S));
          continue;
        }
        NameMap<Expansion> Avail;
        kernelizeReduce({}, S, Avail, Host);
        continue;
      }
      case ExpKind::Scan: {
        auto *Sc = expCast<ScanExp>(&E);
        bool Scalar = true;
        for (const Type &T : Sc->Fn.RetTypes)
          Scalar = Scalar && T.isScalar();
        if (!Scalar) {
          // Vector-valued scan: keep on the host (sequential).
          ++Stats.SequentialisedSOACs;
          emit(Host, std::move(S));
          continue;
        }
        NameMap<Expansion> Avail;
        kernelizeScan({}, S, Avail, Host);
        continue;
      }
      case ExpKind::ReduceByIndex:
        kernelizeReduceByIndex(S, Host);
        continue;
      case ExpKind::Stream:
        lowerHostStream(std::move(S), Work, Host);
        continue;
      case ExpKind::Loop: {
        auto *L = expCast<LoopExp>(&E);
        for (const Param &P : L->MergeParams)
          noteHost(P.Name, P.Ty);
        TopTypes[L->IndexVar] = Type::scalar(ScalarKind::I32);
        L->LoopBody = transformHostBody(std::move(L->LoopBody));
        emit(Host, std::move(S));
        continue;
      }
      case ExpKind::If: {
        auto *I = expCast<IfExp>(&E);
        I->Then = transformHostBody(std::move(I->Then));
        I->Else = transformHostBody(std::move(I->Else));
        emit(Host, std::move(S));
        continue;
      }
      default:
        emit(Host, std::move(S));
        continue;
      }
    }
    return Host.finish(std::move(B.Result));
  }

  void aliasResults(BodyBuilder &Host, const std::vector<Param> &Pat,
                    const std::vector<VName> &Rets) {
    assert(Pat.size() == Rets.size() && "result arity mismatch");
    for (size_t I = 0; I < Pat.size(); ++I) {
      noteHost(Pat[I].Name, Pat[I].Ty);
      Host.append({Pat[I]}, varE(Rets[I]));
    }
  }

  //===--------------------------------------------------------------------===//
  // Host-level streams
  //===--------------------------------------------------------------------===//

  void lowerHostStream(Stm S, std::deque<Stm> &Work, BodyBuilder &Host) {
    auto *St = expCast<StreamExp>(S.E.get());
    switch (St->Form) {
    case StreamExp::FormKind::Seq: {
      // stream_seq f a  ==  f a with one maximal chunk (Section 4.1):
      // splice the fold body with m := width and chunks := whole arrays,
      // then reprocess the spliced code (its inner SOACs get kernels).
      NameMap<SubExp> Map;
      Lambda Fold = St->FoldFn;
      Map[Fold.Params[0].Name] = St->Width;
      for (int I = 0; I < St->NumAccs; ++I)
        Map[Fold.Params[1 + I].Name] = St->AccInit[I];
      for (size_t I = 0; I < St->Arrays.size(); ++I)
        Map[Fold.Params[1 + St->NumAccs + I].Name] =
            SubExp::var(St->Arrays[I]);
      Body Spliced = renameBody(Fold.B, NS, Map);
      std::vector<Stm> Repro = std::move(Spliced.Stms);
      for (size_t I = 0; I < S.Pat.size(); ++I)
        Repro.emplace_back(std::vector<Param>{S.Pat[I]},
                           subExpE(Spliced.Result[I]));
      for (auto It = Repro.rbegin(); It != Repro.rend(); ++It)
        Work.push_front(std::move(*It));
      return;
    }

    case StreamExp::FormKind::Par: {
      // Maximal parallelism: chunk size one, i.e. an ordinary map whose
      // body runs the fold on a singleton chunk.
      size_t NumMapped = St->FoldFn.RetTypes.size() - St->NumAccs;
      Lambda Fold = renameLambda(St->FoldFn, NS);
      std::vector<Param> ElemParams;
      NameMap<SubExp> Map;
      Map[Fold.Params[0].Name] = SubExp::constant(PrimValue::makeI32(1));
      BodyBuilder BB(NS);
      for (size_t I = 0; I < St->Arrays.size(); ++I) {
        const Param &ChunkP = Fold.Params[1 + I];
        Type RowTy = ChunkP.Ty.rowType();
        VName ElemN = NS.fresh("elem");
        ElemParams.emplace_back(ElemN, RowTy);
        VName Single =
            BB.bind("single", ChunkP.Ty,
                    std::make_unique<ReplicateExp>(
                        SubExp::constant(PrimValue::makeI32(1)),
                        SubExp::var(ElemN), RowTy));
        Map[ChunkP.Name] = SubExp::var(Single);
      }
      Body FoldB = std::move(Fold.B);
      substituteInBody(Map, FoldB);
      for (Stm &FS : FoldB.Stms)
        BB.append(std::move(FS));
      std::vector<SubExp> Res;
      std::vector<Type> RetTys;
      for (size_t I = 0; I < NumMapped; ++I) {
        const SubExp &R = FoldB.Result[St->NumAccs + I];
        Type InnerTy = Fold.RetTypes[St->NumAccs + I].rowType();
        assert(R.isVar() && "mapped stream result must be a variable");
        SubExp V = BB.index(R.getVar(),
                            {SubExp::constant(PrimValue::makeI32(0))},
                            InnerTy);
        Res.push_back(V);
        RetTys.push_back(InnerTy);
      }
      Lambda ElemFn(std::move(ElemParams), BB.finish(std::move(Res)),
                    std::move(RetTys));
      Stm NewStm(S.Pat, std::make_unique<MapExp>(St->Width,
                                                 std::move(ElemFn),
                                                 St->Arrays));
      Work.push_front(std::move(NewStm));
      return;
    }

    case StreamExp::FormKind::Red: {
      size_t NumMapped = St->FoldFn.RetTypes.size() - St->NumAccs;
      if (NumMapped != 0) {
        // Rare mixed form: keep on the host.
        ++Stats.SequentialisedSOACs;
        emit(Host, std::move(S));
        return;
      }
      lowerHostStreamRed(std::move(S), Work, Host);
      return;
    }
    }
  }

  /// Chunks a host-level stream_red across the device: one ThreadBody
  /// kernel runs the fold per chunk; the per-chunk accumulators are then
  /// combined by an ordinary reduce, which is re-processed (usually into a
  /// segmented reduction by G5).
  void lowerHostStreamRed(Stm S, std::deque<Stm> &Work, BodyBuilder &Host) {
    auto *St = expCast<StreamExp>(S.E.get());
    SubExp W = St->Width;

    // numChunks = min(w, kStreamChunks), the "degree of hardware
    // parallelism" of Section 2.4; the chunks are interleaved (chunk g
    // holds elements g, g+P, g+2P, ...), so that simultaneous accesses
    // from consecutive chunk threads coalesce.
    constexpr int32_t kStreamChunks = 4096;
    SubExp MaxChunks =
        SubExp::constant(PrimValue::makeI32(kStreamChunks));
    Type I32T = Type::scalar(ScalarKind::I32);
    VName NumChunks = emitOne(Host, "numchunks", I32T,
                              std::make_unique<BinOpExp>(BinOp::Min, W,
                                                         MaxChunks));

    // The per-chunk fold kernel; chunk length is ceil((w - g) / P).
    VName Tid = NS.fresh("chunkid");
    Lambda Fold = renameLambda(St->FoldFn, NS);
    BodyBuilder TB(NS);
    VName Rem = TB.bind("rem", I32T,
                        std::make_unique<BinOpExp>(BinOp::Sub, W,
                                                   SubExp::var(Tid)));
    VName RemP = TB.bind("remp", I32T,
                         std::make_unique<BinOpExp>(
                             BinOp::Add, SubExp::var(Rem),
                             SubExp::var(NumChunks)));
    VName RemPm1 = TB.bind("rempm1", I32T,
                           std::make_unique<BinOpExp>(
                               BinOp::Sub, SubExp::var(RemP),
                               SubExp::constant(PrimValue::makeI32(1))));
    VName Len = TB.bind("len", I32T,
                        std::make_unique<BinOpExp>(
                            BinOp::Div, SubExp::var(RemPm1),
                            SubExp::var(NumChunks)));
    NameMap<SubExp> Map;
    Map[Fold.Params[0].Name] = SubExp::var(Len);
    for (int I = 0; I < St->NumAccs; ++I)
      Map[Fold.Params[1 + I].Name] = St->AccInit[I];
    for (size_t I = 0; I < St->Arrays.size(); ++I) {
      const Param &ChunkP = Fold.Params[1 + St->NumAccs + I];
      Type ChunkTy = ChunkP.Ty.rowType().arrayOf(SubExp::var(Len));
      VName Chunk = TB.bind("chunk", ChunkTy,
                            std::make_unique<SliceExp>(
                                St->Arrays[I], SubExp::var(Tid),
                                SubExp::var(Len),
                                SubExp::var(NumChunks)));
      Map[ChunkP.Name] = SubExp::var(Chunk);
    }
    Body FoldB = std::move(Fold.B);
    substituteInBody(Map, FoldB);
    for (Stm &FS : FoldB.Stms)
      TB.append(std::move(FS));
    std::vector<SubExp> AccRes(FoldB.Result.begin(),
                               FoldB.Result.begin() + St->NumAccs);

    auto K = std::make_unique<KernelExp>();
    K->Op = KernelExp::OpKind::ThreadBody;
    K->GridDims = {SubExp::var(NumChunks)};
    K->ThreadIndices = {Tid};
    K->ThreadBody = TB.finish(std::move(AccRes));
    simplifyBody(K->ThreadBody, NS);
    std::vector<Type> PartTys;
    for (int I = 0; I < St->NumAccs; ++I) {
      Type AccTy = sanitizeType(Fold.RetTypes[I]);
      K->RetTypes.push_back(AccTy.arrayOf(SubExp::var(NumChunks)));
      PartTys.push_back(K->RetTypes.back());
    }
    freshenKernel(*K);
    fillKernelInputs(*K);
    ++Stats.ThreadKernels;
    std::vector<VName> Parts =
        emitMulti(Host, "partials", PartTys, std::move(K));

    // Combine the partial accumulators: reprocess as an ordinary reduce.
    Stm RedStm(S.Pat, std::make_unique<ReduceExp>(
                          SubExp::var(NumChunks), St->ReduceFn, St->AccInit,
                          Parts, /*Commutative=*/false));
    Work.push_front(std::move(RedStm));
  }

  /// Alpha-renames a kernel's bound names (thread indices, segment index,
  /// thread-body bindings) so that kernels sharing a map-nest context do
  /// not bind the same names twice in one function.
  void freshenKernel(KernelExp &K) {
    NameMap<SubExp> M;
    for (VName &T : K.ThreadIndices) {
      VName Fresh = NS.freshFrom(T);
      M[T] = SubExp::var(Fresh);
      T = Fresh;
    }
    if (K.isSegmented()) {
      VName Fresh = NS.freshFrom(K.SegIndex);
      M[K.SegIndex] = SubExp::var(Fresh);
      K.SegIndex = Fresh;
    }
    K.ThreadBody = renameBody(K.ThreadBody, NS, M);
    if (K.usesReduceFn())
      K.ReduceFn = renameLambda(K.ReduceFn, NS, M);
  }

  /// Computes the Inputs list of a kernel: every free array variable (per
  /// the host type table).
  void fillKernelInputs(KernelExp &K) {
    NameSet Free = freeVarsInExp(K);
    for (const VName &V : Free) {
      auto It = TopTypes.find(V);
      if (It == TopTypes.end() || !It->second.isArray())
        continue;
      KernelExp::KInput In;
      In.Arr = V;
      In.Ty = It->second;
      In.LayoutPerm = identityPerm(It->second.rank());
      K.Inputs.push_back(std::move(In));
    }
  }

  //===--------------------------------------------------------------------===//
  // The map-nest distributor
  //===--------------------------------------------------------------------===//

  struct NestState {
    std::vector<MapCtx> Sigma;
    NameMap<Expansion> &Avail;
    NameMap<Type> InnerTypes;
    std::vector<Stm> Work;
    std::vector<SubExp> Result;
    size_t Pos = 0;
    std::vector<Stm> Segment;

    NestState(std::vector<MapCtx> Sigma, Body B, NameMap<Expansion> &Avail)
        : Sigma(std::move(Sigma)), Avail(Avail), Work(std::move(B.Stms)),
          Result(std::move(B.Result)) {
      for (const MapCtx &Ctx : this->Sigma)
        for (const Param &P : Ctx.Params)
          InnerTypes[P.Name] = P.Ty;
      for (const auto &[Name, Exp] : Avail)
        InnerTypes[Name] = Exp.InnerTy;
    }

    std::vector<SubExp> gridDims() const {
      std::vector<SubExp> Out;
      for (const MapCtx &Ctx : Sigma)
        Out.push_back(Ctx.Width);
      return Out;
    }
    std::vector<VName> tids() const {
      std::vector<VName> Out;
      for (const MapCtx &Ctx : Sigma)
        Out.push_back(Ctx.Tid);
      return Out;
    }
    int depth() const { return static_cast<int>(Sigma.size()); }
  };

  /// Does any remaining statement (from Work[Pos]) or the body result use
  /// \p V?
  bool usedLater(const NestState &St, const VName &V) const {
    for (size_t I = St.Pos; I < St.Work.size(); ++I) {
      NameSet Free = freeVarsInExp(*St.Work[I].E);
      if (Free.count(V))
        return true;
      for (const Param &P : St.Work[I].Pat)
        for (const Dim &D : P.Ty.shape())
          if (D.isVar() && D.getVar() == V)
            return true;
    }
    for (const SubExp &R : St.Result)
      if (R.isVar() && R.getVar() == V)
        return true;
    return false;
  }

  /// Emits the context/expansion prelude into \p Stms: bindings that
  /// reconstruct the inner-scope names a thread needs.
  void emitPrelude(NestState &St, std::vector<Stm> &Stms,
                   const NameSet &Free) {
    NameSet Emitted;
    auto EnsureAvail = [&](const VName &V) {
      auto It = St.Avail.find(V);
      if (It == St.Avail.end() || Emitted.count(V))
        return;
      Emitted.insert(V);
      const Expansion &E = It->second;
      std::vector<SubExp> Idx;
      for (int I = 0; I < E.Depth; ++I)
        Idx.push_back(SubExp::var(St.Sigma[I].Tid));
      ExpPtr Read =
          Idx.empty() ? varE(E.Arr)
                      : ExpPtr(std::make_unique<IndexExp>(E.Arr,
                                                          std::move(Idx)));
      Stms.emplace_back(std::vector<Param>{Param(V, E.InnerTy)},
                        std::move(Read));
    };

    // Context bindings level by level; each level's arrays may themselves
    // be expansions or outer parameters.
    for (size_t J = 0; J < St.Sigma.size(); ++J) {
      const MapCtx &Ctx = St.Sigma[J];
      for (const VName &A : Ctx.Arrays)
        EnsureAvail(A);
      for (size_t K = 0; K < Ctx.Params.size(); ++K) {
        if (K < Ctx.FromIota.size() && Ctx.FromIota[K]) {
          Stms.emplace_back(std::vector<Param>{Ctx.Params[K]},
                            varE(Ctx.Tid));
          continue;
        }
        Stms.emplace_back(
            std::vector<Param>{Ctx.Params[K]},
            std::make_unique<IndexExp>(
                Ctx.Arrays[K],
                std::vector<SubExp>{SubExp::var(Ctx.Tid)}));
      }
    }
    for (const VName &V : Free)
      EnsureAvail(V);
  }

  /// G1/G4: manifests the context over the accumulated scalar segment,
  /// emitting one ThreadBody kernel whose results are the segment outputs
  /// still needed.
  void flushSegment(NestState &St, BodyBuilder &Host,
                    std::vector<Param> ExtraNeeded = {}) {
    if (St.Segment.empty() && ExtraNeeded.empty())
      return;
    for (Stm &S : St.Segment)
      for (const Param &P : S.Pat)
        St.InnerTypes[P.Name] = P.Ty;

    std::vector<Param> Needed = std::move(ExtraNeeded);
    NameSet NeededSet;
    for (const Param &P : Needed)
      NeededSet.insert(P.Name);
    for (const Stm &S : St.Segment)
      for (const Param &P : S.Pat)
        if (!NeededSet.count(P.Name) && usedLater(St, P.Name)) {
          Needed.push_back(P);
          NeededSet.insert(P.Name);
        }
    if (Needed.empty()) {
      St.Segment.clear();
      return;
    }

    NameSet Free;
    for (const Stm &S : St.Segment) {
      NameSet F = freeVarsInExp(*S.E);
      Free.insert(F.begin(), F.end());
    }

    std::vector<Stm> TStms;
    emitPrelude(St, TStms, Free);
    for (Stm &S : St.Segment)
      TStms.push_back(std::move(S));
    St.Segment.clear();

    std::vector<SubExp> Res;
    for (const Param &P : Needed)
      Res.push_back(SubExp::var(P.Name));

    auto K = std::make_unique<KernelExp>();
    K->Op = KernelExp::OpKind::ThreadBody;
    K->GridDims = St.gridDims();
    K->ThreadIndices = St.tids();
    K->ThreadBody = Body(std::move(TStms), std::move(Res));
    simplifyBody(K->ThreadBody, NS);

    std::vector<Type> RetTys;
    for (const Param &P : Needed) {
      Type Full = sanitizeType(P.Ty).arrayOfShape(K->GridDims);
      K->RetTypes.push_back(Full);
      RetTys.push_back(Full);
    }
    freshenKernel(*K);
    fillKernelInputs(*K);
    ++Stats.ThreadKernels;

    std::vector<VName> Exp = emitMulti(Host, "dist", RetTys, std::move(K));
    for (size_t I = 0; I < Needed.size(); ++I)
      St.Avail[Needed[I].Name] =
          Expansion{Exp[I], St.depth(), Needed[I].Ty};
  }

  /// The main distribution loop over one body under a map-nest context.
  /// Returns host names of the fully expanded body results.
  std::vector<VName> flattenNest(std::vector<MapCtx> Sigma, Body B,
                                 NameMap<Expansion> AvailIn,
                                 BodyBuilder &Host) {
    NameMap<Expansion> Avail = std::move(AvailIn);
    NestState St(std::move(Sigma), std::move(B), Avail);

    for (St.Pos = 0; St.Pos < St.Work.size(); ++St.Pos) {
      Stm &S = St.Work[St.Pos];
      Exp &E = *S.E;

      if (auto *M = expDynCast<MapExp>(&E)) {
        if (hostAvail(M->Width) && inputsAvailable(St, M->Arrays)) {
          flushSegment(St, Host);
          // G2: capture the nested map in the context.
          MapCtx Ctx{M->Width, NS.fresh("gtid"), M->Fn.Params, M->Arrays,
                     iotaFlags(M->Arrays)};
          std::vector<MapCtx> Deeper = St.Sigma;
          Deeper.push_back(std::move(Ctx));
          std::vector<VName> Rets =
              flattenNest(std::move(Deeper), std::move(M->Fn.B), Avail,
                          Host);
          for (size_t I = 0; I < S.Pat.size(); ++I) {
            Avail[S.Pat[I].Name] =
                Expansion{Rets[I], St.depth(), S.Pat[I].Ty};
            St.InnerTypes[S.Pat[I].Name] = S.Pat[I].Ty;
          }
          continue;
        }
        ++Stats.SequentialisedSOACs;
        sequentialiseIntoSegment(St, S);
        continue;
      }

      if (auto *R = expDynCast<ReduceExp>(&E)) {
        if (hostAvail(R->Width) && inputsAvailable(St, R->Arrays) &&
            neutralsAvailable(St, R->Neutral)) {
          flushSegment(St, Host);
          kernelizeReduce(St.Sigma, S, Avail, Host, &St);
          continue;
        }
        ++Stats.SequentialisedSOACs;
        sequentialiseIntoSegment(St, S);
        continue;
      }

      if (auto *Sc = expDynCast<ScanExp>(&E)) {
        bool Scalar = true;
        for (const Type &T : Sc->Fn.RetTypes)
          Scalar = Scalar && T.isScalar();
        if (Scalar && hostAvail(Sc->Width) &&
            inputsAvailable(St, Sc->Arrays) &&
            neutralsAvailable(St, Sc->Neutral)) {
          flushSegment(St, Host);
          kernelizeScan(St.Sigma, S, Avail, Host, &St);
          continue;
        }
        ++Stats.SequentialisedSOACs;
        sequentialiseIntoSegment(St, S);
        continue;
      }

      if (expDynCast<ReduceByIndexExp>(&E)) {
        // A histogram nested inside a map: sequentialised into the
        // surrounding thread (its own parallelism is the inner dimension,
        // which the thread-per-outer-element decomposition already uses).
        ++Stats.SequentialisedSOACs;
        sequentialiseIntoSegment(St, S);
        continue;
      }

      if (auto *L = expDynCast<LoopExp>(&E)) {
        if (Opts.EnableInterchange && hostAvail(L->Bound) &&
            containsParallelism(L->LoopBody)) {
          interchangeMapLoop(St, S, Host);
          continue;
        }
        sequentialiseIntoSegment(St, S);
        continue;
      }

      if (E.kind() == ExpKind::Stream)
        ++Stats.SequentialisedSOACs;
      sequentialiseIntoSegment(St, S);
    }
    St.Pos = St.Work.size();
    flushSegment(St, Host);

    // Deliver the body results as fully expanded arrays.  Results that are
    // not yet expansions at full depth (constants, context parameters,
    // values expanded at a shallower depth) are materialised by a final
    // copy kernel — the double-buffering copies the paper mentions.
    std::vector<VName> SegName(St.Result.size());
    std::vector<Param> Extra;
    for (size_t I = 0; I < St.Result.size(); ++I) {
      const SubExp &R = St.Result[I];
      if (R.isVar()) {
        auto It = Avail.find(R.getVar());
        if (It != Avail.end() && It->second.Depth == St.depth())
          continue;
      }
      Type Ty = R.isConst() ? Type::scalar(R.getConst().kind())
                            : (St.InnerTypes.count(R.getVar())
                                   ? St.InnerTypes.at(R.getVar())
                                   : Type::scalar(ScalarKind::I32));
      VName N = NS.fresh("res");
      St.Segment.emplace_back(std::vector<Param>{Param(N, Ty)}, subExpE(R));
      Extra.emplace_back(N, Ty);
      SegName[I] = N;
    }
    if (!Extra.empty()) {
      St.Pos = St.Work.size();
      flushSegment(St, Host, Extra);
    }

    std::vector<VName> Out;
    for (size_t I = 0; I < St.Result.size(); ++I) {
      const VName Key =
          SegName[I].Tag >= 0 ? SegName[I] : St.Result[I].getVar();
      assert(Avail.count(Key) && "body result was not expanded");
      Out.push_back(Avail.at(Key).Arr);
    }
    return Out;
  }

  /// True if every input array name is resolvable inside a kernel at this
  /// context: a context parameter, an expansion, or a host-level array.
  bool inputsAvailable(const NestState &St,
                       const std::vector<VName> &Arrays) const {
    for (const VName &A : Arrays) {
      bool Ok = St.Avail.count(A) || TopTypes.count(A);
      for (const MapCtx &Ctx : St.Sigma)
        for (const Param &P : Ctx.Params)
          Ok = Ok || P.Name == A;
      if (!Ok)
        return false;
    }
    return true;
  }

  bool neutralsAvailable(const NestState &St,
                         const std::vector<SubExp> &Neutral) const {
    for (const SubExp &N : Neutral)
      if (N.isVar() && !TopTypes.count(N.getVar()))
        return false;
    return true;
  }

  static bool containsParallelism(const Body &B) {
    for (const Stm &S : B.Stms) {
      switch (S.E->kind()) {
      case ExpKind::Map:
      case ExpKind::Reduce:
      case ExpKind::Scan:
        return true;
      default:
        break;
      }
      bool Found = false;
      forEachChildBody(*S.E, [&](const Body &Inner) {
        Found = Found || containsParallelism(Inner);
      });
      if (Found)
        return true;
    }
    return false;
  }

  void sequentialiseIntoSegment(NestState &St, Stm &S) {
    for (const Param &P : S.Pat)
      St.InnerTypes[P.Name] = P.Ty;
    St.Segment.push_back(std::move(S));
  }

  //===--------------------------------------------------------------------===//
  // Segmented reductions and scans
  //===--------------------------------------------------------------------===//

  /// Resolves an input array name to something readable in a thread body;
  /// prelude bindings make context params and expansions available, so
  /// this is just the name itself.
  void kernelizeReduce(const std::vector<MapCtx> &Sigma, Stm &S,
                       NameMap<Expansion> &Avail, BodyBuilder &Host,
                       NestState *NestOpt = nullptr) {
    auto *R = expCast<ReduceExp>(S.E.get());

    // G5 detection: a vectorised operator "map op" over [k]-rows with a
    // host-level "replicate k n" neutral.
    Lambda InnerOp;
    SubExp VecDim;
    std::vector<SubExp> ScalarNeutral;
    bool G5 = Opts.EnableSegReduce &&
              extractVectorisedOp(*R, InnerOp, VecDim, ScalarNeutral);

    NestState LocalSt({}, Body{}, Avail);
    NestState &St = NestOpt ? *NestOpt : LocalSt;
    if (NestOpt == nullptr)
      St.Sigma = Sigma;

    VName SegIdx = NS.fresh("segi");
    std::vector<Stm> TStms;
    NameSet Free;
    for (const VName &A : R->Arrays)
      Free.insert(A);
    emitPrelude(St, TStms, Free);

    auto K = std::make_unique<KernelExp>();
    K->GridDims = St.gridDims();
    K->ThreadIndices = St.tids();
    K->SegIndex = SegIdx;
    K->SegSize = R->Width;

    std::vector<SubExp> Elems;
    if (G5) {
      VName Vk = NS.fresh("vtid");
      K->GridDims.push_back(VecDim);
      K->ThreadIndices.push_back(Vk);
      for (size_t I = 0; I < R->Arrays.size(); ++I) {
        Type RowTy = R->Fn.Params[R->Neutral.size() + I].Ty; // [k]elem
        VName Row = NS.fresh("row");
        TStms.emplace_back(
            std::vector<Param>{Param(Row, RowTy)},
            std::make_unique<IndexExp>(
                R->Arrays[I], std::vector<SubExp>{SubExp::var(SegIdx)}));
        VName Elem = NS.fresh("elem");
        TStms.emplace_back(
            std::vector<Param>{Param(Elem,
                                     Type::scalar(RowTy.elemKind()))},
            std::make_unique<IndexExp>(Row, std::vector<SubExp>{
                                                SubExp::var(Vk)}));
        Elems.push_back(SubExp::var(Elem));
      }
      K->Op = KernelExp::OpKind::SegReduce;
      K->ReduceFn = std::move(InnerOp);
      K->Neutral = ScalarNeutral;
      ++Stats.VectorisedReduceInterchanges;
    } else {
      for (size_t I = 0; I < R->Arrays.size(); ++I) {
        Type ElemTy = R->Fn.Params[R->Neutral.size() + I].Ty;
        VName Elem = NS.fresh("elem");
        if (HostIotas.count(R->Arrays[I])) {
          TStms.emplace_back(std::vector<Param>{Param(Elem, ElemTy)},
                             varE(SegIdx));
        } else {
          TStms.emplace_back(
              std::vector<Param>{Param(Elem, ElemTy)},
              std::make_unique<IndexExp>(
                  R->Arrays[I],
                  std::vector<SubExp>{SubExp::var(SegIdx)}));
        }
        Elems.push_back(SubExp::var(Elem));
      }
      K->Op = KernelExp::OpKind::SegReduce;
      K->ReduceFn = cloneLambda(R->Fn);
      K->Neutral = R->Neutral;
    }
    K->ThreadBody = Body(std::move(TStms), std::move(Elems));
    simplifyBody(K->ThreadBody, NS);

    std::vector<Type> RetTys;
    for (size_t I = 0; I < S.Pat.size(); ++I) {
      Type Inner = G5 ? Type::scalar(S.Pat[I].Ty.elemKind())
                      : sanitizeType(S.Pat[I].Ty);
      Type Full = Inner.arrayOfShape(K->GridDims);
      K->RetTypes.push_back(Full);
      RetTys.push_back(Full);
    }
    freshenKernel(*K);
    fillKernelInputs(*K);
    ++Stats.SegReduces;

    std::vector<VName> Outs =
        emitMulti(Host, "red", RetTys, std::move(K));
    if (St.depth() == 0) {
      // Host level: bind the original pattern directly.
      aliasResults(Host, S.Pat, Outs);
    } else {
      for (size_t I = 0; I < S.Pat.size(); ++I) {
        Avail[S.Pat[I].Name] =
            Expansion{Outs[I], St.depth(), S.Pat[I].Ty};
        St.InnerTypes[S.Pat[I].Name] = S.Pat[I].Ty;
      }
    }
  }

  void kernelizeScan(const std::vector<MapCtx> &Sigma, Stm &S,
                     NameMap<Expansion> &Avail, BodyBuilder &Host,
                     NestState *NestOpt = nullptr) {
    auto *Sc = expCast<ScanExp>(S.E.get());
    NestState LocalSt({}, Body{}, Avail);
    NestState &St = NestOpt ? *NestOpt : LocalSt;
    if (NestOpt == nullptr)
      St.Sigma = Sigma;

    VName SegIdx = NS.fresh("segi");
    std::vector<Stm> TStms;
    NameSet Free;
    for (const VName &A : Sc->Arrays)
      Free.insert(A);
    emitPrelude(St, TStms, Free);

    std::vector<SubExp> Elems;
    for (size_t I = 0; I < Sc->Arrays.size(); ++I) {
      Type ElemTy = Sc->Fn.Params[Sc->Neutral.size() + I].Ty;
      VName Elem = NS.fresh("elem");
      if (HostIotas.count(Sc->Arrays[I])) {
        TStms.emplace_back(std::vector<Param>{Param(Elem, ElemTy)},
                           varE(SegIdx));
      } else {
        TStms.emplace_back(
            std::vector<Param>{Param(Elem, ElemTy)},
            std::make_unique<IndexExp>(
                Sc->Arrays[I], std::vector<SubExp>{SubExp::var(SegIdx)}));
      }
      Elems.push_back(SubExp::var(Elem));
    }

    auto K = std::make_unique<KernelExp>();
    K->Op = KernelExp::OpKind::SegScan;
    K->GridDims = St.gridDims();
    K->ThreadIndices = St.tids();
    K->SegIndex = SegIdx;
    K->SegSize = Sc->Width;
    K->ReduceFn = cloneLambda(Sc->Fn);
    K->Neutral = Sc->Neutral;
    K->ThreadBody = Body(std::move(TStms), std::move(Elems));
    simplifyBody(K->ThreadBody, NS);

    std::vector<Type> RetTys;
    for (size_t I = 0; I < S.Pat.size(); ++I) {
      Type Full = sanitizeType(S.Pat[I].Ty).arrayOfShape(K->GridDims);
      K->RetTypes.push_back(Full);
      RetTys.push_back(Full);
    }
    freshenKernel(*K);
    fillKernelInputs(*K);
    ++Stats.SegScans;

    std::vector<VName> Outs =
        emitMulti(Host, "scanr", RetTys, std::move(K));
    if (St.depth() == 0) {
      aliasResults(Host, S.Pat, Outs);
    } else {
      for (size_t I = 0; I < S.Pat.size(); ++I) {
        Avail[S.Pat[I].Name] =
            Expansion{Outs[I], St.depth(), S.Pat[I].Ty};
        St.InnerTypes[S.Pat[I].Name] = S.Pat[I].Ty;
      }
    }
  }

  /// Lowers a host-level reduce_by_index into a SegHist kernel: one thread
  /// per input element, whose body reads the element's bin and value rows,
  /// applies the (possibly fused) value function, and yields (bin, value).
  /// The runtime folds the (bin, value) pairs into the consumed destination
  /// with the combine operator, choosing between local-memory subhistograms
  /// and global atomics by histogram width.
  void kernelizeReduceByIndex(Stm &S, BodyBuilder &Host) {
    auto *R = expCast<ReduceByIndexExp>(S.E.get());
    assert(TopTypes.count(R->IndexArr) &&
           "reduce_by_index index array must be host-available");
    Type IdxTy = TopTypes.at(R->IndexArr);
    SubExp N = IdxTy.outerDim();

    VName Tid = NS.fresh("htid");
    std::vector<Stm> TStms;

    // bin = is[tid] (or just tid when the index array is a host iota).
    VName Bin = NS.fresh("bin");
    Type BinTy = Type::scalar(IdxTy.elemKind());
    if (HostIotas.count(R->IndexArr)) {
      TStms.emplace_back(std::vector<Param>{Param(Bin, BinTy)}, varE(Tid));
    } else {
      TStms.emplace_back(
          std::vector<Param>{Param(Bin, BinTy)},
          std::make_unique<IndexExp>(R->IndexArr,
                                     std::vector<SubExp>{SubExp::var(Tid)}));
    }

    // Value rows, spliced through the value function.
    Lambda VF = cloneLambda(R->ValueFn);
    NameMap<SubExp> Map;
    for (size_t I = 0; I < R->ValueArrs.size(); ++I) {
      Type RowTy = VF.Params[I].Ty;
      VName Elem = NS.fresh("velem");
      if (HostIotas.count(R->ValueArrs[I])) {
        TStms.emplace_back(std::vector<Param>{Param(Elem, RowTy)},
                           varE(Tid));
      } else {
        TStms.emplace_back(
            std::vector<Param>{Param(Elem, RowTy)},
            std::make_unique<IndexExp>(
                R->ValueArrs[I], std::vector<SubExp>{SubExp::var(Tid)}));
      }
      Map[VF.Params[I].Name] = SubExp::var(Elem);
    }
    Body VB = renameBody(VF.B, NS, Map);
    for (Stm &VS : VB.Stms)
      TStms.push_back(std::move(VS));

    auto K = std::make_unique<KernelExp>();
    K->Op = KernelExp::OpKind::SegHist;
    K->GridDims = {N};
    K->ThreadIndices = {Tid};
    K->ReduceFn = cloneLambda(R->CombineFn);
    K->Neutral = {R->Neutral};
    K->HistDest = R->Dest;
    K->HistWidth = R->Width;
    K->ThreadBody =
        Body(std::move(TStms), {SubExp::var(Bin), VB.Result[0]});
    simplifyBody(K->ThreadBody, NS);

    Type DestTy = sanitizeType(S.Pat[0].Ty);
    K->RetTypes = {DestTy};
    freshenKernel(*K);
    fillKernelInputs(*K);
    ++Stats.SegHists;

    std::vector<VName> Outs =
        emitMulti(Host, "hist", {DestTy}, std::move(K));
    aliasResults(Host, S.Pat, Outs);
  }

  /// Detects "reduce (map op) (replicate k n) z" and extracts the scalar
  /// operator, the row width k, and the scalar neutrals.
  bool extractVectorisedOp(const ReduceExp &R, Lambda &InnerOp,
                           SubExp &VecDim, std::vector<SubExp> &Neutral) {
    if (R.Fn.RetTypes.empty() || !R.Fn.RetTypes[0].isArray())
      return false;
    if (R.Fn.B.Stms.size() != 1)
      return false;
    const auto *M = expDynCast<MapExp>(R.Fn.B.Stms[0].E.get());
    if (!M)
      return false;
    for (const Type &T : M->Fn.RetTypes)
      if (!T.isScalar())
        return false;
    VecDim = R.Fn.RetTypes[0].outerDim();
    if (!hostAvail(VecDim))
      return false;
    // The scalar neutrals come from host-level replicates.
    for (const SubExp &N : R.Neutral) {
      if (!N.isVar())
        return false;
      auto It = HostReplicates.find(N.getVar());
      if (It == HostReplicates.end())
        return false;
      Neutral.push_back(It->second.second);
    }
    InnerOp = cloneLambda(M->Fn);
    return true;
  }

  //===--------------------------------------------------------------------===//
  // G7: map-loop interchange
  //===--------------------------------------------------------------------===//

  void interchangeMapLoop(NestState &St, Stm &S, BodyBuilder &Host) {
    auto *L = expCast<LoopExp>(S.E.get());
    ++Stats.Interchanges;

    // Materialise the initial merge values as fully expanded arrays.
    std::vector<Param> InitNames;
    for (size_t I = 0; I < L->MergeParams.size(); ++I) {
      VName N = NS.fresh(L->MergeParams[I].Name.Base + "_init");
      St.Segment.emplace_back(
          std::vector<Param>{Param(N, L->MergeParams[I].Ty)},
          subExpE(L->MergeInit[I]));
      InitNames.emplace_back(N, L->MergeParams[I].Ty);
    }
    flushSegment(St, Host, InitNames);

    // Expanded top-level merge parameters.
    std::vector<SubExp> Grid = St.gridDims();
    std::vector<Param> TopMerge;
    std::vector<SubExp> TopInit;
    for (size_t I = 0; I < L->MergeParams.size(); ++I) {
      Type Full =
          sanitizeType(L->MergeParams[I].Ty).arrayOfShape(Grid);
      VName Zs = NS.fresh(L->MergeParams[I].Name.Base + "s");
      TopMerge.emplace_back(Zs, Full);
      noteHost(Zs, Full);
      TopInit.push_back(SubExp::var(St.Avail.at(InitNames[I].Name).Arr));
    }
    TopTypes[L->IndexVar] = Type::scalar(ScalarKind::I32);

    // The loop body: the context distributes over the original body, with
    // the merge parameters available as expanded arrays.
    NameMap<Expansion> InnerAvail = St.Avail;
    for (size_t I = 0; I < L->MergeParams.size(); ++I)
      InnerAvail[L->MergeParams[I].Name] =
          Expansion{TopMerge[I].Name, St.depth(), L->MergeParams[I].Ty};

    BodyBuilder LoopBB(NS);
    std::vector<VName> Rets = flattenNest(St.Sigma, std::move(L->LoopBody),
                                          std::move(InnerAvail), LoopBB);
    std::vector<SubExp> LoopRes;
    for (const VName &N : Rets)
      LoopRes.push_back(SubExp::var(N));

    std::vector<Type> OutTys;
    for (const Param &P : TopMerge)
      OutTys.push_back(P.Ty);
    std::vector<VName> Outs = emitMulti(
        Host, "loopout", OutTys,
        std::make_unique<LoopExp>(TopMerge, std::move(TopInit),
                                  L->IndexVar, L->Bound,
                                  LoopBB.finish(std::move(LoopRes))));

    for (size_t I = 0; I < S.Pat.size(); ++I) {
      St.Avail[S.Pat[I].Name] =
          Expansion{Outs[I], St.depth(), S.Pat[I].Ty};
      St.InnerTypes[S.Pat[I].Name] = S.Pat[I].Ty;
    }
  }
};

} // namespace

FlattenStats fut::extractKernels(Program &P, NameSource &Names,
                                 const FlattenOptions &Opts) {
  trace::ScopedSpan Span("pass:flatten", "compiler");
  FlattenStats S = KernelExtractor(Names, Opts).run(P);
  trace::counter("flatten.kernels", S.kernels());
  trace::counter("flatten.thread_kernels", S.ThreadKernels);
  trace::counter("flatten.segreduces", S.SegReduces);
  trace::counter("flatten.segscans", S.SegScans);
  trace::counter("flatten.seghists", S.SegHists);
  trace::counter("flatten.interchanges", S.Interchanges);
  trace::counter("flatten.sequentialised", S.SequentialisedSOACs);
  Span.arg("kernels", S.kernels());
  Span.arg("interchanges", S.Interchanges);
  Span.arg("sequentialised", S.SequentialisedSOACs);
  return S;
}
