//===- ArtifactStore.cpp - On-disk compiled-artifact persistence ----------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
//
// The binary format is deliberately dumb: a magic/version header, the
// saved fingerprint, then a field-by-field encoding of CompileResult in
// declaration order.  Expressions are encoded from their field lists
// (ir/Fields.h): the kind, the source location, then every field in list
// order, so a new IR field is persisted without an edit here.  There is
// no forward/backward compatibility — the version bump *is* the migration
// story (an old file fails the header check and the server recompiles).
// Robustness comes from the decoder never trusting the input: every read
// is bounds-checked, every count is sanity-capped, and the decoded
// artifact must reproduce the recorded fingerprint before anyone gets to
// run it.
//
//===----------------------------------------------------------------------===//

#include "serve/ArtifactStore.h"

#include "ir/Fields.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace fut;
using namespace fut::serve;

namespace {

constexpr char kMagic[4] = {'F', 'U', 'T', 'A'};
constexpr uint32_t kVersion = 3;
/// Upper bound on any single decoded count (functions, statements,
/// dimensions, ...).  Real artifacts are far below it; a corrupt length
/// field fails fast instead of attempting a multi-gigabyte reserve.
constexpr uint64_t kMaxCount = 1u << 24;

//===----------------------------------------------------------------------===//
// Encoder
//===----------------------------------------------------------------------===//

struct Writer {
  std::string Out;

  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) { raw(&V, sizeof V); }
  void u64(uint64_t V) { raw(&V, sizeof V); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    u64(Bits);
  }
  void boolean(bool V) { u8(V ? 1 : 0); }
  void str(const std::string &S) {
    u64(S.size());
    Out.append(S);
  }
  void raw(const void *P, size_t N) {
    Out.append(static_cast<const char *>(P), N);
  }

  void name(const VName &N) {
    str(N.Base);
    i32(N.Tag);
  }
  void prim(const PrimValue &V) {
    u8(static_cast<uint8_t>(V.kind()));
    switch (V.kind()) {
    case ScalarKind::Bool:
      u8(V.getBool() ? 1 : 0);
      break;
    case ScalarKind::I32:
    case ScalarKind::I64:
      i64(V.getInt());
      break;
    case ScalarKind::F32:
    case ScalarKind::F64:
      f64(V.getFloat());
      break;
    }
  }
  void sub(const SubExp &S) {
    boolean(S.isConst());
    if (S.isConst())
      prim(S.getConst());
    else
      name(S.getVar());
  }

  // One put per IR field type; expressions are encoded field by field from
  // their field lists (ir/Fields.h), after the kind and source location.
  void put(const SubExp &S) { sub(S); }
  void put(const VName &N) { name(N); }
  void put(const std::string &S) { str(S); }
  void put(bool V) { boolean(V); }
  void put(int V) { i32(V); }
  template <class T> std::enable_if_t<std::is_enum_v<T>> put(T V) {
    u8(static_cast<uint8_t>(V));
  }
  void put(const ConvOp &Op) {
    put(Op.From);
    put(Op.To);
  }
  void put(const Type &T) {
    put(T.elemKind());
    put(T.isUnique());
    put(T.shape());
  }
  void put(const Param &P) {
    put(P.Name);
    put(P.Ty);
  }
  template <class T> void put(const std::vector<T> &V) {
    u64(V.size());
    for (const T &X : V)
      put(X);
  }
  void put(const Lambda &L) {
    put(L.Params);
    put(L.B);
    put(L.RetTypes);
  }
  void put(const Body &B) {
    u64(B.Stms.size());
    for (const Stm &S : B.Stms) {
      put(S.Pat);
      put(*S.E);
    }
    put(B.Result);
  }
  void put(const KernelExp::KInput &In) {
    forEachField(In, [&](auto, const auto &F, bool) { put(F); });
  }
  void put(const Exp &E) {
    put(E.kind());
    put(E.Loc.Line);
    put(E.Loc.Col);
    forEachField(E, [&](auto, const auto &F, bool) { put(F); });
  }
};

//===----------------------------------------------------------------------===//
// Decoder
//===----------------------------------------------------------------------===//

/// The last valid value of each enum the decoder reads.
constexpr ExpKind lastOf(ExpKind) { return ExpKind::Kernel; }
constexpr ScalarKind lastOf(ScalarKind) { return ScalarKind::F64; }
constexpr BinOp lastOf(BinOp) { return BinOp::Geq; }
constexpr UnOp lastOf(UnOp) { return UnOp::Floor; }
constexpr StreamExp::FormKind lastOf(StreamExp::FormKind) {
  return StreamExp::FormKind::Seq;
}
constexpr KernelExp::OpKind lastOf(KernelExp::OpKind) {
  return KernelExp::OpKind::SegHist;
}

struct Reader {
  const std::string &In;
  size_t Pos = 0;
  bool Fail = false;

  explicit Reader(const std::string &In) : In(In) {}

  bool take(void *P, size_t N) {
    if (Fail || In.size() - Pos < N) {
      Fail = true;
      return false;
    }
    std::memcpy(P, In.data() + Pos, N);
    Pos += N;
    return true;
  }
  uint8_t u8() {
    uint8_t V = 0;
    take(&V, sizeof V);
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    take(&V, sizeof V);
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    take(&V, sizeof V);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof V);
    return V;
  }
  bool boolean() { return u8() != 0; }
  /// A decoded collection size, capped so corrupt lengths fail instead of
  /// allocating.
  size_t count() {
    uint64_t N = u64();
    if (N > kMaxCount) {
      Fail = true;
      return 0;
    }
    return static_cast<size_t>(N);
  }
  std::string str() {
    size_t N = count();
    if (Fail || In.size() - Pos < N) {
      Fail = true;
      return {};
    }
    std::string S(In, Pos, N);
    Pos += N;
    return S;
  }
  /// An enum discriminator with an inclusive upper bound.
  uint8_t tag(uint8_t Max) {
    uint8_t V = u8();
    if (V > Max)
      Fail = true;
    return Fail ? 0 : V;
  }

  VName name() {
    std::string Base = str();
    int Tag = i32();
    return VName(std::move(Base), Tag);
  }
  PrimValue prim() {
    ScalarKind K{};
    get(K);
    switch (K) {
    case ScalarKind::Bool:
      return PrimValue::makeBool(u8() != 0);
    case ScalarKind::I32:
      return PrimValue::makeI32(static_cast<int32_t>(i64()));
    case ScalarKind::I64:
      return PrimValue::makeI64(i64());
    case ScalarKind::F32:
      return PrimValue::makeF32(static_cast<float>(f64()));
    case ScalarKind::F64:
      return PrimValue::makeF64(f64());
    }
    Fail = true;
    return PrimValue();
  }
  SubExp sub() {
    if (boolean())
      return SubExp::constant(prim());
    return SubExp::var(name());
  }

  // The inverse of Writer::put, one get per IR field type.
  void get(SubExp &S) { S = sub(); }
  void get(VName &N) { N = name(); }
  void get(std::string &S) { S = str(); }
  void get(bool &V) { V = boolean(); }
  void get(int &V) { V = i32(); }
  template <class T> std::enable_if_t<std::is_enum_v<T>> get(T &V) {
    V = static_cast<T>(tag(static_cast<uint8_t>(lastOf(V))));
  }
  void get(ConvOp &Op) {
    get(Op.From);
    get(Op.To);
  }
  void get(Type &T) {
    ScalarKind K{};
    get(K);
    bool Unique = boolean();
    std::vector<Dim> Shape;
    get(Shape);
    T = Type(K, std::move(Shape), Unique);
  }
  void get(Param &P) {
    get(P.Name);
    get(P.Ty);
  }
  template <class T> void get(std::vector<T> &V) {
    size_t N = count();
    V.clear();
    for (size_t I = 0; I < N && !Fail; ++I)
      get(V.emplace_back());
  }
  void get(Lambda &L) {
    get(L.Params);
    get(L.B);
    get(L.RetTypes);
  }
  void get(Body &B) {
    size_t N = count();
    for (size_t I = 0; I < N && !Fail; ++I) {
      std::vector<Param> Pat;
      get(Pat);
      ExpPtr E = exp();
      if (Fail || !E)
        break;
      B.Stms.emplace_back(std::move(Pat), std::move(E));
    }
    get(B.Result);
  }
  void get(KernelExp::KInput &In) {
    forEachField(In, [&](auto, auto &F, bool) { get(F); });
  }
  ExpPtr exp() {
    ExpKind K{};
    get(K);
    if (Fail)
      return nullptr;
    ExpPtr E = withExpClass(K, [](auto Class) -> ExpPtr {
      return std::make_unique<typename decltype(Class)::type>();
    });
    get(E->Loc.Line);
    get(E->Loc.Col);
    forEachField(*E, [&](auto, auto &F, bool) { get(F); });
    return E;
  }
};

//===----------------------------------------------------------------------===//
// The plans and statistics
//===----------------------------------------------------------------------===//

void putMemPlan(Writer &W, const mem::MemoryPlan &MP) {
  W.u64(MP.Funs.size());
  for (const mem::FunPlan &FP : MP.Funs) {
    W.str(FP.Fun);
    W.u64(FP.Entries.size());
    for (const mem::PlanEntry &E : FP.Entries) {
      W.name(E.Name);
      W.i32(E.Slab);
      W.i64(E.Offset);
      W.i64(E.Bytes);
      W.str(E.SizeExpr);
      W.boolean(E.HasAlias);
      W.name(E.AliasOf);
      W.u8(static_cast<uint8_t>(E.Alias));
      W.boolean(E.Hoisted);
      W.i32(E.BufferIndex);
      W.boolean(E.Reused);
      W.i32(E.Start);
      W.i32(E.End);
    }
    W.u64(FP.Slabs.size());
    for (const mem::SlabInfo &SI : FP.Slabs) {
      W.i32(SI.Id);
      W.i64(SI.Bytes);
      W.str(SI.SizeExpr);
      W.boolean(SI.Hoisted);
    }
    W.i64(FP.StaticArenaBytes);
    W.i32(FP.HoistedSlabs);
    W.i32(FP.ReuseLinks);
    W.i64(FP.TapeBytes);
    W.i32(FP.TapeArrays);
    W.i32(FP.TapeSymbolic);
  }
}

mem::MemoryPlan getMemPlan(Reader &R) {
  mem::MemoryPlan MP;
  size_t NF = R.count();
  for (size_t I = 0; I < NF && !R.Fail; ++I) {
    mem::FunPlan FP;
    FP.Fun = R.str();
    size_t NE = R.count();
    for (size_t J = 0; J < NE && !R.Fail; ++J) {
      mem::PlanEntry E;
      E.Name = R.name();
      E.Slab = R.i32();
      E.Offset = R.i64();
      E.Bytes = R.i64();
      E.SizeExpr = R.str();
      E.HasAlias = R.boolean();
      E.AliasOf = R.name();
      E.Alias = static_cast<mem::AliasKind>(
          R.tag(static_cast<uint8_t>(mem::AliasKind::LoopResult)));
      E.Hoisted = R.boolean();
      E.BufferIndex = R.i32();
      E.Reused = R.boolean();
      E.Start = R.i32();
      E.End = R.i32();
      FP.EntryIndex[E.Name] = static_cast<int>(FP.Entries.size());
      FP.Entries.push_back(std::move(E));
    }
    size_t NS = R.count();
    for (size_t J = 0; J < NS && !R.Fail; ++J) {
      mem::SlabInfo SI;
      SI.Id = R.i32();
      SI.Bytes = R.i64();
      SI.SizeExpr = R.str();
      SI.Hoisted = R.boolean();
      FP.Slabs.push_back(std::move(SI));
    }
    FP.StaticArenaBytes = R.i64();
    FP.HoistedSlabs = R.i32();
    FP.ReuseLinks = R.i32();
    FP.TapeBytes = R.i64();
    FP.TapeArrays = R.i32();
    FP.TapeSymbolic = R.i32();
    MP.Funs.push_back(std::move(FP));
  }
  return MP;
}

void putShardPlan(Writer &W, const shard::ShardPlan &SP) {
  W.u64(SP.Funs.size());
  for (const shard::FunShardPlan &FP : SP.Funs) {
    W.str(FP.Fun);
    W.u64(FP.Kernels.size());
    for (const shard::KernelShard &K : FP.Kernels) {
      W.i32(K.KernelId);
      W.boolean(K.Sharded);
      W.str(K.WhyNot);
      W.boolean(K.HistMerge);
      W.sub(K.Width);
      W.i64(K.ConstWidth);
      W.u64(K.Inputs.size());
      for (const shard::ShardInput &In : K.Inputs) {
        W.name(In.Arr);
        W.u8(static_cast<uint8_t>(In.Class));
      }
      W.put(K.Outputs);
    }
    W.u64(FP.Transfers.size());
    for (const shard::TransferEdge &T : FP.Transfers) {
      W.name(T.Arr);
      W.i32(T.ProducerKernel);
      W.i32(T.ConsumerKernel);
      W.i64(T.Bytes);
    }
  }
}

shard::ShardPlan getShardPlan(Reader &R) {
  shard::ShardPlan SP;
  size_t NF = R.count();
  for (size_t I = 0; I < NF && !R.Fail; ++I) {
    shard::FunShardPlan FP;
    FP.Fun = R.str();
    size_t NK = R.count();
    for (size_t J = 0; J < NK && !R.Fail; ++J) {
      shard::KernelShard K;
      K.KernelId = R.i32();
      K.Sharded = R.boolean();
      K.WhyNot = R.str();
      K.HistMerge = R.boolean();
      K.Width = R.sub();
      K.ConstWidth = R.i64();
      size_t NI = R.count();
      for (size_t L = 0; L < NI && !R.Fail; ++L) {
        shard::ShardInput In;
        In.Arr = R.name();
        In.Class = static_cast<shard::InputClass>(
            R.tag(static_cast<uint8_t>(shard::InputClass::Broadcast)));
        K.Inputs.push_back(std::move(In));
      }
      R.get(K.Outputs);
      FP.Kernels.push_back(std::move(K));
    }
    size_t NT = R.count();
    for (size_t J = 0; J < NT && !R.Fail; ++J) {
      shard::TransferEdge T;
      T.Arr = R.name();
      T.ProducerKernel = R.i32();
      T.ConsumerKernel = R.i32();
      T.Bytes = R.i64();
      FP.Transfers.push_back(std::move(T));
    }
    SP.Funs.push_back(std::move(FP));
  }
  return SP;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

std::string serve::serializeArtifact(const CompileResult &C) {
  Writer W;
  W.raw(kMagic, sizeof kMagic);
  W.u32(kVersion);
  W.u64(C.fingerprint());

  W.u64(C.P.Funs.size());
  for (const FunDef &F : C.P.Funs) {
    W.str(F.Name);
    W.put(F.Params);
    W.put(F.RetTypes);
    W.put(F.FBody);
  }

  W.i32(C.Fusion.Vertical);
  W.i32(C.Fusion.Redomap);
  W.i32(C.Fusion.StreamFusions);
  W.i32(C.Fusion.Horizontal);
  W.i32(C.Fusion.HistFusions);

  W.i32(C.Flatten.ThreadKernels);
  W.i32(C.Flatten.SegReduces);
  W.i32(C.Flatten.SegScans);
  W.i32(C.Flatten.SegHists);
  W.i32(C.Flatten.Interchanges);
  W.i32(C.Flatten.VectorisedReduceInterchanges);
  W.i32(C.Flatten.SequentialisedSOACs);

  W.i32(C.Locality.CoalescedInputs);
  W.i32(C.Locality.TiledInputs);

  putMemPlan(W, C.MemPlan);
  putShardPlan(W, C.Shards);
  return std::move(W.Out);
}

ErrorOr<CompileResult> serve::deserializeArtifact(const std::string &Bytes) {
  Reader R(Bytes);
  char Magic[4];
  if (!R.take(Magic, sizeof Magic) || std::memcmp(Magic, kMagic, 4) != 0)
    return CompilerError::runtime("artifact: bad magic");
  if (R.u32() != kVersion)
    return CompilerError::runtime("artifact: version mismatch");
  uint64_t SavedFp = R.u64();

  CompileResult C;
  Program P;
  size_t NF = R.count();
  for (size_t I = 0; I < NF && !R.Fail; ++I) {
    FunDef F;
    F.Name = R.str();
    R.get(F.Params);
    R.get(F.RetTypes);
    R.get(F.FBody);
    P.Funs.push_back(std::move(F));
  }
  C.P = DeviceProgram(std::move(P));

  C.Fusion.Vertical = R.i32();
  C.Fusion.Redomap = R.i32();
  C.Fusion.StreamFusions = R.i32();
  C.Fusion.Horizontal = R.i32();
  C.Fusion.HistFusions = R.i32();

  C.Flatten.ThreadKernels = R.i32();
  C.Flatten.SegReduces = R.i32();
  C.Flatten.SegScans = R.i32();
  C.Flatten.SegHists = R.i32();
  C.Flatten.Interchanges = R.i32();
  C.Flatten.VectorisedReduceInterchanges = R.i32();
  C.Flatten.SequentialisedSOACs = R.i32();

  C.Locality.CoalescedInputs = R.i32();
  C.Locality.TiledInputs = R.i32();

  C.MemPlan = getMemPlan(R);
  C.Shards = getShardPlan(R);

  if (R.Fail)
    return CompilerError::runtime("artifact: truncated or corrupt");
  if (R.Pos != Bytes.size())
    return CompilerError::runtime("artifact: trailing garbage");
  // The content-hash check: the decoded artifact must reproduce the hash
  // recorded at save time, or the file is not the artifact it claims.
  if (C.fingerprint() != SavedFp)
    return CompilerError::runtime(
        "artifact: fingerprint mismatch (corrupt store)");
  return C;
}

std::string ArtifactStore::pathFor(uint64_t Key) const {
  char Hex[17];
  std::snprintf(Hex, sizeof Hex, "%016llx",
                static_cast<unsigned long long>(Key));
  return Dir + "/" + Hex + ".futa";
}

bool ArtifactStore::exists(uint64_t Key) const {
  std::error_code EC;
  return std::filesystem::exists(pathFor(Key), EC);
}

bool ArtifactStore::save(uint64_t Key, const CompileResult &C) const {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::string Bytes = serializeArtifact(C);
  std::string Path = pathFor(Key);
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return false;
    OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!OS)
      return false;
  }
  std::filesystem::rename(Tmp, Path, EC);
  if (EC) {
    std::filesystem::remove(Tmp, EC);
    return false;
  }
  return true;
}

ErrorOr<CompileResult> ArtifactStore::load(uint64_t Key) const {
  std::ifstream IS(pathFor(Key), std::ios::binary);
  if (!IS)
    return CompilerError::runtime("artifact: not stored");
  std::ostringstream OS;
  OS << IS.rdbuf();
  return deserializeArtifact(OS.str());
}
