//===- Traversal.cpp - IR walking, free variables, renaming ---------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
//
// Every walk here is derived from the expression field lists (ir/Fields.h):
// a field's role decides what each walk does with it.  An absent field
// (presence condition false) adds no free variable and binds nothing, but
// substitution and renaming still rewrite its operands and lambdas.
//
//===----------------------------------------------------------------------===//

#include "ir/Traversal.h"

using namespace fut;

namespace {

template <class T>
inline constexpr bool IsParamsV = std::is_same_v<std::decay_t<T>,
                                                 std::vector<Param>>;

} // namespace

//===----------------------------------------------------------------------===//
// Free variables
//===----------------------------------------------------------------------===//

namespace {

struct FreeVarScan {
  NameSet Free;
  NameSet Bound;

  void use(const VName &N) {
    if (!Bound.count(N))
      Free.insert(N);
  }
  void use(const SubExp &S) {
    if (S.isVar())
      use(S.getVar());
  }
  void use(const Type &T) {
    for (const Dim &D : T.shape())
      use(D);
  }
  void bindParams(const std::vector<Param> &Ps) {
    for (const Param &P : Ps)
      Bound.insert(P.Name);
    for (const Param &P : Ps)
      use(P.Ty);
  }

  void scanExp(const Exp &E) {
    forEachField(E, [&](auto R, const auto &F, bool Present) {
      if (!Present)
        return;
      if constexpr (R == Role::Binder) {
        if constexpr (IsParamsV<decltype(F)>)
          bindParams(F);
        else
          forEachElem(F, [&](const VName &N) { Bound.insert(N); });
      } else if constexpr (R == Role::Lambda) {
        scanLambda(F);
      } else if constexpr (R == Role::Body) {
        scanBody(F);
      } else {
        forEachOperandSlot(R, F, [&](const auto &Slot) { use(Slot); });
      }
    });
  }

  void scanBody(const Body &B) {
    for (const Stm &S : B.Stms) {
      scanExp(*S.E);
      bindParams(S.Pat);
    }
    for (const SubExp &S : B.Result)
      use(S);
  }

  void scanLambda(const Lambda &L) {
    bindParams(L.Params);
    for (const Type &T : L.RetTypes)
      use(T);
    scanBody(L.B);
  }
};

} // namespace

NameSet fut::freeVarsInExp(const Exp &E) {
  FreeVarScan Scan;
  Scan.scanExp(E);
  return std::move(Scan.Free);
}

NameSet fut::freeVarsInBody(const Body &B) {
  FreeVarScan Scan;
  Scan.scanBody(B);
  return std::move(Scan.Free);
}

NameSet fut::freeVarsInLambda(const Lambda &L) {
  FreeVarScan Scan;
  Scan.scanLambda(L);
  return std::move(Scan.Free);
}

//===----------------------------------------------------------------------===//
// Substitution
//===----------------------------------------------------------------------===//

namespace {

struct Subst {
  const NameMap<SubExp> &M;

  SubExp sub(const SubExp &S) const {
    if (S.isVar()) {
      auto It = M.find(S.getVar());
      if (It != M.end())
        return It->second;
    }
    return S;
  }

  VName subV(const VName &N) const {
    auto It = M.find(N);
    if (It == M.end())
      return N;
    assert(It->second.isVar() &&
           "variable-only position substituted by a constant");
    return It->second.getVar();
  }

  Type subT(const Type &T) const {
    std::vector<Dim> Shape;
    Shape.reserve(T.shape().size());
    for (const Dim &D : T.shape())
      Shape.push_back(sub(D));
    Type R(T.elemKind(), std::move(Shape));
    return T.isUnique() ? R.asUnique() : R;
  }

  /// Rewrites one operand slot (see forEachOperandSlot).
  void apply(SubExp &S) const { S = sub(S); }
  void apply(VName &N) const { N = subV(N); }
  void apply(Type &T) const { T = subT(T); }

  void params(std::vector<Param> &Ps) const {
    for (Param &P : Ps)
      P.Ty = subT(P.Ty);
  }

  void exp(Exp &E) const {
    forEachField(E, [&](auto R, auto &F, bool) {
      if constexpr (R == Role::Binder) {
        if constexpr (IsParamsV<decltype(F)>)
          params(F);
      } else if constexpr (R == Role::Lambda) {
        lambda(F);
      } else if constexpr (R == Role::Body) {
        body(F);
      } else {
        forEachOperandSlot(R, F, [&](auto &Slot) { apply(Slot); });
      }
    });
  }

  void body(Body &B) const {
    for (Stm &S : B.Stms) {
      exp(*S.E);
      params(S.Pat);
    }
    for (SubExp &S : B.Result)
      S = sub(S);
  }

  void lambda(Lambda &L) const {
    params(L.Params);
    for (Type &T : L.RetTypes)
      T = subT(T);
    body(L.B);
  }
};

} // namespace

void fut::substituteInBody(const NameMap<SubExp> &M, Body &B) {
  if (M.empty())
    return;
  Subst{M}.body(B);
}

void fut::substituteInExp(const NameMap<SubExp> &M, Exp &E) {
  if (M.empty())
    return;
  Subst{M}.exp(E);
}

void fut::substituteInLambda(const NameMap<SubExp> &M, Lambda &L) {
  if (M.empty())
    return;
  Subst{M}.lambda(L);
}

Type fut::substituteInType(const NameMap<SubExp> &M, const Type &T) {
  return Subst{M}.subT(T);
}

//===----------------------------------------------------------------------===//
// Alpha-renaming
//===----------------------------------------------------------------------===//

namespace {

/// Renames in one pass over the fields: operands are rewritten through the
/// names bound so far, binders get fresh names that the later fields see.
struct Renamer {
  NameSource &Names;

  void freshen(VName &N, NameMap<SubExp> &Map) {
    VName Fresh = Names.freshFrom(N);
    Map[N] = SubExp::var(Fresh);
    N = Fresh;
  }
  void freshen(std::vector<VName> &Ns, NameMap<SubExp> &Map) {
    for (VName &N : Ns)
      freshen(N, Map);
  }
  void freshen(std::vector<Param> &Ps, NameMap<SubExp> &Map) {
    for (Param &P : Ps)
      freshen(P.Name, Map);
    Subst{Map}.params(Ps);
  }

  void renameExp(Exp &E, NameMap<SubExp> Map) {
    forEachField(E, [&](auto R, auto &F, bool Present) {
      if constexpr (R == Role::Binder) {
        if (Present)
          freshen(F, Map);
      } else if constexpr (R == Role::Lambda) {
        renameLambdaIn(F, Map);
      } else if constexpr (R == Role::Body) {
        renameBodyIn(F, Map);
      } else {
        forEachOperandSlot(R, F, [&](auto &Slot) { Subst{Map}.apply(Slot); });
      }
    });
  }

  void renameBodyIn(Body &B, NameMap<SubExp> Map) {
    for (Stm &S : B.Stms) {
      renameExp(*S.E, Map);
      freshen(S.Pat, Map);
    }
    for (SubExp &S : B.Result)
      S = Subst{Map}.sub(S);
  }

  void renameLambdaIn(Lambda &L, NameMap<SubExp> Map) {
    freshen(L.Params, Map);
    for (Type &T : L.RetTypes)
      T = Subst{Map}.subT(T);
    renameBodyIn(L.B, Map);
  }
};

} // namespace

Body fut::renameBody(const Body &B, NameSource &Names,
                     const NameMap<SubExp> &Outer) {
  Body Out = cloneBody(B);
  Renamer{Names}.renameBodyIn(Out, Outer);
  return Out;
}

Lambda fut::renameLambda(const Lambda &L, NameSource &Names,
                         const NameMap<SubExp> &Outer) {
  Lambda Out = cloneLambda(L);
  Renamer{Names}.renameLambdaIn(Out, Outer);
  return Out;
}

void fut::uniquifyProgram(Program &P, NameSource &Names) {
  for (FunDef &F : P.Funs) {
    NameMap<SubExp> Map;
    Renamer R{Names};
    R.freshen(F.Params, Map);
    for (Type &T : F.RetTypes)
      T = Subst{Map}.subT(T);
    R.renameBodyIn(F.FBody, Map);
  }
}

//===----------------------------------------------------------------------===//
// Structural hashing for CSE
//===----------------------------------------------------------------------===//

namespace {

/// Calls Fn on the payload fields of \p E as integers, lengths included.
template <class F> void forEachPayloadWord(const Exp &E, F &&Fn) {
  forEachField(E, [&](auto R, const auto &Field, bool) {
    if constexpr (R == Role::Payload) {
      using T = std::decay_t<decltype(Field)>;
      if constexpr (std::is_same_v<T, ConvOp>) {
        Fn(static_cast<int64_t>(Field.From));
        Fn(static_cast<int64_t>(Field.To));
      } else if constexpr (IsVectorV<T> || std::is_same_v<T, std::string>) {
        Fn(static_cast<int64_t>(Field.size()));
        for (auto X : Field)
          Fn(static_cast<int64_t>(X));
      } else {
        Fn(static_cast<int64_t>(Field));
      }
    }
  });
}

} // namespace

bool fut::expIsCSEable(const Exp &E) {
  ExpKind K = E.kind();
  if (K == ExpKind::Apply || K == ExpKind::Update || K == ExpKind::Copy)
    return false;
  bool Shallow = true;
  forEachField(E, [&](auto R, const auto &, bool) {
    Shallow = Shallow && (R == Role::Operand || R == Role::Array ||
                          R == Role::Type || R == Role::Payload);
  });
  return Shallow;
}

size_t fut::hashExpShallow(const Exp &E) {
  size_t Seed = std::hash<int>()(static_cast<int>(E.kind()));
  forEachFreeOperand(E, [&](const SubExp &S) { hashCombine(Seed, S.hash()); });
  forEachPayloadWord(E, [&](int64_t W) {
    hashCombine(Seed, std::hash<int64_t>()(W));
  });
  return Seed;
}

bool fut::expsStructurallyEqual(const Exp &A, const Exp &B) {
  if (A.kind() != B.kind() || !expIsCSEable(A))
    return false;
  std::vector<SubExp> OpsA, OpsB;
  forEachFreeOperand(A, [&](const SubExp &S) { OpsA.push_back(S); });
  forEachFreeOperand(B, [&](const SubExp &S) { OpsB.push_back(S); });
  std::vector<int64_t> WordsA, WordsB;
  forEachPayloadWord(A, [&](int64_t W) { WordsA.push_back(W); });
  forEachPayloadWord(B, [&](int64_t W) { WordsB.push_back(W); });
  return OpsA == OpsB && WordsA == WordsB;
}
