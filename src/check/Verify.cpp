//===- Verify.cpp - Type-rederiving IR verifier ---------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "check/Verify.h"

#include "ir/Traversal.h"

#include <algorithm>

using namespace fut;

namespace {

/// A dimension whose value the verifier cannot re-derive (existential
/// sizes, concat sums over symbolic operands).  Any symbolic dimension is
/// treated as a wildcard by dimsAgree, so one shared sentinel suffices.
Dim unknownDim() { return SubExp::var(VName("?", -2)); }

/// Two dimensions agree unless both are constants with different values;
/// symbolic dimensions are wildcards (passes rename and substitute them
/// freely, so name identity is not an invariant).
bool dimsAgree(const Dim &A, const Dim &B) {
  if (A.isConst() && B.isConst())
    return A.getConst().asInt64() == B.getConst().asInt64();
  return true;
}

/// Element kind and rank exactly, constant dimensions exactly.
bool typesAgree(const Type &A, const Type &B) {
  if (A.elemKind() != B.elemKind() || A.rank() != B.rank())
    return false;
  for (int I = 0; I < A.rank(); ++I)
    if (!dimsAgree(A.shape()[I], B.shape()[I]))
      return false;
  return true;
}

bool allAgree(const std::vector<Type> &A, const std::vector<Type> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!typesAgree(A[I], B[I]))
      return false;
  return true;
}

std::string typeListStr(const std::vector<Type> &Ts) {
  std::string S = "(";
  for (size_t I = 0; I < Ts.size(); ++I)
    S += (I ? ", " : "") + Ts[I].str();
  return S + ")";
}

class Verifier {
  const Program &Prog;
  const VerifyOptions &Opts;
  const std::string &Pass;
  std::string FunName;

  NameMap<Type> Scope;
  NameSet EverBound;
  /// > 0 while inside a kernel thread body (kernels must not nest).
  int KernelDepth = 0;

public:
  Verifier(const Program &Prog, const VerifyOptions &Opts,
           const std::string &Pass)
      : Prog(Prog), Opts(Opts), Pass(Pass) {}

  MaybeError verifyFunDef(const FunDef &F) {
    FunName = F.Name;
    Scope.clear();
    EverBound.clear();
    KernelDepth = 0;
    for (const Param &P : F.Params)
      if (auto Err = bind(P, "parameter " + P.Name.str()))
        return Err;
    auto RTs = checkBody(F.FBody, "result of " + F.Name);
    if (!RTs)
      return RTs.getError();
    if (RTs->size() != F.RetTypes.size())
      return err("result of " + F.Name,
                 "returns " + std::to_string(RTs->size()) +
                     " values but declares " +
                     std::to_string(F.RetTypes.size()));
    for (size_t I = 0; I < RTs->size(); ++I)
      if (!typesAgree((*RTs)[I], F.RetTypes[I].asNonUnique()))
        return err("result of " + F.Name,
                   "result " + std::to_string(I) + " has type " +
                       (*RTs)[I].str() + " but the function declares " +
                       F.RetTypes[I].str());
    return MaybeError::success();
  }

private:
  CompilerError err(const std::string &Binding, const std::string &Msg) {
    return CompilerError(ErrorKind::Verify,
                         "after pass '" + Pass + "': in function '" +
                             FunName + "': " + Binding + ": " + Msg);
  }

  MaybeError bind(const Param &P, const std::string &Where) {
    if (EverBound.count(P.Name))
      return err(Where, "name " + P.Name.str() + " bound twice");
    EverBound.insert(P.Name);
    // Symbolic dimensions must be in scope or are registered as fresh
    // existential sizes at their first appearance.
    for (const Dim &D : P.Ty.shape())
      if (D.isVar() && !Scope.count(D.getVar())) {
        Scope[D.getVar()] = Type::scalar(ScalarKind::I32);
        EverBound.insert(D.getVar());
      }
    Scope[P.Name] = P.Ty;
    return MaybeError::success();
  }

  ErrorOr<Type> typeOfSub(const SubExp &S, const std::string &Where) {
    if (S.isConst())
      return Type::scalar(S.getConst().kind());
    auto It = Scope.find(S.getVar());
    if (It == Scope.end())
      return err(Where, "use of unbound name " + S.getVar().str());
    return It->second;
  }

  MaybeError wantIntScalar(const SubExp &S, const std::string &What,
                           const std::string &Where) {
    auto T = typeOfSub(S, Where);
    if (!T)
      return T.getError();
    if (!T->isScalar() || !isIntKind(T->elemKind()))
      return err(Where, What + " has type " + T->str() +
                            "; expected an integer scalar");
    return MaybeError::success();
  }

  ErrorOr<Type> arrayType(const VName &V, const std::string &Where) {
    auto T = typeOfSub(SubExp::var(V), Where);
    if (!T)
      return T.getError();
    if (!T->isArray())
      return err(Where, V.str() + " used as an array but has scalar type " +
                            T->str());
    return *T;
  }

  /// Statically checks a constant index against a constant dimension.
  MaybeError boundsCheck(const SubExp &Idx, const Dim &D,
                         const std::string &Where) {
    if (!Idx.isConst())
      return MaybeError::success();
    int64_t I = Idx.getConst().asInt64();
    if (I < 0)
      return err(Where, "constant index " + std::to_string(I) +
                            " is negative");
    if (D.isConst() && I >= D.getConst().asInt64())
      return err(Where, "constant index " + std::to_string(I) +
                            " out of bounds for dimension of size " +
                            D.getConst().str());
    return MaybeError::success();
  }

  /// Verifies a lambda: binds parameters, verifies the body, and demands
  /// the derived result types agree with the declared return types.
  /// \p ArgTypes, when non-null, are the types the call site feeds the
  /// parameters (checked element-kind/rank/const-dim compatible).
  MaybeError checkLambda(const Lambda &L, const std::vector<Type> *ArgTypes,
                         const std::string &Where) {
    if (ArgTypes && L.Params.size() != ArgTypes->size())
      return err(Where, "lambda takes " + std::to_string(L.Params.size()) +
                            " parameters but is applied to " +
                            std::to_string(ArgTypes->size()) + " values");
    NameMap<Type> Saved = Scope;
    for (size_t I = 0; I < L.Params.size(); ++I) {
      if (ArgTypes && !typesAgree(L.Params[I].Ty.asNonUnique(),
                                  (*ArgTypes)[I].asNonUnique()))
        return err(Where, "lambda parameter " + L.Params[I].Name.str() +
                              " has type " + L.Params[I].Ty.str() +
                              " but is applied to a value of type " +
                              (*ArgTypes)[I].str());
      if (auto Err = bind(L.Params[I], Where))
        return Err;
    }
    auto RTs = checkBody(L.B, Where);
    if (!RTs)
      return RTs.getError();
    Scope = std::move(Saved);
    if (!allAgree(*RTs, L.RetTypes))
      return err(Where, "lambda body produces " + typeListStr(*RTs) +
                            " but declares " + typeListStr(L.RetTypes));
    return MaybeError::success();
  }

  //===-- Expression type derivation --------------------------------------===//

  ErrorOr<std::vector<Type>> checkExp(const Exp &E, const std::string &Where) {
    // Every free operand must be in scope, whatever the construct.
    MaybeError OperandErr = MaybeError::success();
    forEachFreeOperand(E, [&](const SubExp &S) {
      if (!OperandErr && S.isVar() && !Scope.count(S.getVar()))
        OperandErr = err(Where, "use of unbound name " + S.getVar().str());
    });
    if (OperandErr)
      return OperandErr.getError();

    if (Opts.Flattened && KernelDepth == 0 && !Opts.AllowHostSOACs &&
        E.isSOAC())
      return err(Where, std::string("host-level ") + expKindName(E.kind()) +
                            " after flattening (nested parallelism must "
                            "have been extracted into kernels)");

    switch (E.kind()) {
    case ExpKind::SubExpE: {
      auto T = typeOfSub(expCast<SubExpExp>(&E)->Val, Where);
      if (!T)
        return T.getError();
      return std::vector<Type>{*T};
    }

    case ExpKind::BinOpE: {
      const auto *X = expCast<BinOpExp>(&E);
      auto TA = typeOfSub(X->A, Where);
      if (!TA)
        return TA.getError();
      auto TB = typeOfSub(X->B, Where);
      if (!TB)
        return TB.getError();
      if (!TA->isScalar() || !TB->isScalar())
        return err(Where, std::string("operator ") + binOpName(X->Op) +
                              " applied to non-scalar operands " +
                              TA->str() + ", " + TB->str());
      if (TA->elemKind() != TB->elemKind())
        return err(Where, std::string("operator ") + binOpName(X->Op) +
                              " applied to mismatched kinds " + TA->str() +
                              " and " + TB->str());
      if (!binOpDefinedOn(X->Op, TA->elemKind()))
        return err(Where, std::string("operator ") + binOpName(X->Op) +
                              " undefined on " +
                              scalarKindName(TA->elemKind()));
      return std::vector<Type>{
          Type::scalar(binOpResultKind(X->Op, TA->elemKind()))};
    }

    case ExpKind::UnOpE: {
      const auto *X = expCast<UnOpExp>(&E);
      auto TA = typeOfSub(X->A, Where);
      if (!TA)
        return TA.getError();
      if (!TA->isScalar())
        return err(Where, std::string("operator ") + unOpName(X->Op) +
                              " applied to non-scalar operand " + TA->str());
      if (!unOpDefinedOn(X->Op, TA->elemKind()))
        return err(Where, std::string("operator ") + unOpName(X->Op) +
                              " undefined on " +
                              scalarKindName(TA->elemKind()));
      return std::vector<Type>{
          Type::scalar(unOpResultKind(X->Op, TA->elemKind()))};
    }

    case ExpKind::ConvOpE: {
      const auto *X = expCast<ConvOpExp>(&E);
      auto TA = typeOfSub(X->A, Where);
      if (!TA)
        return TA.getError();
      if (!TA->isScalar() || TA->elemKind() != X->Op.From)
        return err(Where, std::string("conversion from ") +
                              scalarKindName(X->Op.From) +
                              " applied to operand of type " + TA->str());
      return std::vector<Type>{Type::scalar(X->Op.To)};
    }

    case ExpKind::If: {
      const auto *X = expCast<IfExp>(&E);
      auto TC = typeOfSub(X->Cond, Where);
      if (!TC)
        return TC.getError();
      if (!TC->isScalar() || TC->elemKind() != ScalarKind::Bool)
        return err(Where, "if condition has type " + TC->str() +
                              "; expected bool");
      NameMap<Type> Saved = Scope;
      auto TT = checkBody(X->Then, Where + " (then)");
      if (!TT)
        return TT.getError();
      Scope = Saved;
      auto TE = checkBody(X->Else, Where + " (else)");
      if (!TE)
        return TE.getError();
      Scope = std::move(Saved);
      if (!allAgree(*TT, X->RetTypes))
        return err(Where, "then-branch produces " + typeListStr(*TT) +
                              " but the if declares " +
                              typeListStr(X->RetTypes));
      if (!allAgree(*TE, X->RetTypes))
        return err(Where, "else-branch produces " + typeListStr(*TE) +
                              " but the if declares " +
                              typeListStr(X->RetTypes));
      return X->RetTypes;
    }

    case ExpKind::Index: {
      const auto *X = expCast<IndexExp>(&E);
      auto TA = arrayType(X->Arr, Where);
      if (!TA)
        return TA.getError();
      if (static_cast<int>(X->Indices.size()) > TA->rank())
        return err(Where, "indexing " + X->Arr.str() + " of rank " +
                              std::to_string(TA->rank()) + " with " +
                              std::to_string(X->Indices.size()) +
                              " indices");
      for (size_t I = 0; I < X->Indices.size(); ++I) {
        if (auto Err = wantIntScalar(X->Indices[I],
                                     "index " + std::to_string(I), Where))
          return Err;
        if (auto Err = boundsCheck(X->Indices[I], TA->shape()[I], Where))
          return Err;
      }
      return std::vector<Type>{
          TA->peel(static_cast<int>(X->Indices.size()))};
    }

    case ExpKind::Apply: {
      const auto *X = expCast<ApplyExp>(&E);
      const FunDef *Callee = Prog.findFun(X->Func);
      if (!Callee)
        return err(Where, "call of unknown function " + X->Func);
      if (X->Args.size() != Callee->Params.size())
        return err(Where, "call of " + X->Func + " with " +
                              std::to_string(X->Args.size()) +
                              " arguments; expected " +
                              std::to_string(Callee->Params.size()));
      for (size_t I = 0; I < X->Args.size(); ++I) {
        auto TA = typeOfSub(X->Args[I], Where);
        if (!TA)
          return TA.getError();
        if (!typesAgree(TA->asNonUnique(), Callee->Params[I].Ty.asNonUnique()))
          return err(Where, "argument " + std::to_string(I) + " of " +
                                X->Func + " has type " + TA->str() +
                                "; expected " + Callee->Params[I].Ty.str());
      }
      // Callee return shapes may reference callee-local names; export
      // their ranks and element kinds with wildcard dimensions.
      std::vector<Type> Out;
      for (const Type &T : Callee->RetTypes)
        Out.push_back(Type(T.elemKind(),
                           std::vector<Dim>(T.rank(), unknownDim())));
      return Out;
    }

    case ExpKind::Loop: {
      const auto *X = expCast<LoopExp>(&E);
      if (X->MergeInit.size() != X->MergeParams.size())
        return err(Where, "loop has " + std::to_string(X->MergeInit.size()) +
                              " initial merge values for " +
                              std::to_string(X->MergeParams.size()) +
                              " merge parameters");
      if (auto Err = wantIntScalar(X->Bound, "loop bound", Where))
        return Err;
      for (size_t I = 0; I < X->MergeInit.size(); ++I) {
        auto TI = typeOfSub(X->MergeInit[I], Where);
        if (!TI)
          return TI.getError();
        if (!typesAgree(TI->asNonUnique(),
                        X->MergeParams[I].Ty.asNonUnique()))
          return err(Where, "loop merge parameter " +
                                X->MergeParams[I].Name.str() +
                                " has type " + X->MergeParams[I].Ty.str() +
                                " but is initialised with a value of type " +
                                TI->str());
      }
      NameMap<Type> Saved = Scope;
      if (auto Err = bind(Param(X->IndexVar, Type::scalar(ScalarKind::I32)),
                          Where))
        return Err;
      for (const Param &P : X->MergeParams)
        if (auto Err = bind(P, Where))
          return Err;
      auto TB = checkBody(X->LoopBody, Where + " (loop body)");
      if (!TB)
        return TB.getError();
      Scope = std::move(Saved);
      std::vector<Type> MergeTys;
      for (const Param &P : X->MergeParams)
        MergeTys.push_back(P.Ty.asNonUnique());
      std::vector<Type> BodyTys;
      for (const Type &T : *TB)
        BodyTys.push_back(T.asNonUnique());
      if (!allAgree(BodyTys, MergeTys))
        return err(Where, "loop body produces " + typeListStr(*TB) +
                              " but the merge parameters have types " +
                              typeListStr(MergeTys));
      return MergeTys;
    }

    case ExpKind::Update: {
      const auto *X = expCast<UpdateExp>(&E);
      auto TA = arrayType(X->Arr, Where);
      if (!TA)
        return TA.getError();
      if (static_cast<int>(X->Indices.size()) > TA->rank())
        return err(Where, "in-place update of " + X->Arr.str() +
                              " of rank " + std::to_string(TA->rank()) +
                              " with " + std::to_string(X->Indices.size()) +
                              " indices");
      for (size_t I = 0; I < X->Indices.size(); ++I) {
        if (auto Err = wantIntScalar(X->Indices[I],
                                     "index " + std::to_string(I), Where))
          return Err;
        if (auto Err = boundsCheck(X->Indices[I], TA->shape()[I], Where))
          return Err;
      }
      auto TV = typeOfSub(X->Value, Where);
      if (!TV)
        return TV.getError();
      Type Want = TA->peel(static_cast<int>(X->Indices.size()));
      if (!typesAgree(TV->asNonUnique(), Want.asNonUnique()))
        return err(Where, "in-place update writes a value of type " +
                              TV->str() + " into an element slot of type " +
                              Want.str());
      return std::vector<Type>{TA->asNonUnique()};
    }

    case ExpKind::Iota: {
      const auto *X = expCast<IotaExp>(&E);
      if (auto Err = wantIntScalar(X->N, "iota length", Where))
        return Err;
      if (!isIntKind(X->Elem))
        return err(Where, "iota of non-integer element kind");
      return std::vector<Type>{Type::array(X->Elem, {X->N})};
    }

    case ExpKind::Replicate: {
      const auto *X = expCast<ReplicateExp>(&E);
      if (auto Err = wantIntScalar(X->N, "replicate count", Where))
        return Err;
      auto TV = typeOfSub(X->Val, Where);
      if (!TV)
        return TV.getError();
      if (!typesAgree(TV->asNonUnique(), X->ValType.asNonUnique()))
        return err(Where, "replicate declares element type " +
                              X->ValType.str() +
                              " but replicates a value of type " +
                              TV->str());
      return std::vector<Type>{X->ValType.asNonUnique().arrayOf(X->N)};
    }

    case ExpKind::Rearrange: {
      const auto *X = expCast<RearrangeExp>(&E);
      auto TA = arrayType(X->Arr, Where);
      if (!TA)
        return TA.getError();
      if (static_cast<int>(X->Perm.size()) != TA->rank())
        return err(Where, "rearrange permutation of size " +
                              std::to_string(X->Perm.size()) +
                              " applied to " + X->Arr.str() + " of rank " +
                              std::to_string(TA->rank()));
      std::vector<bool> Seen(X->Perm.size(), false);
      for (int P : X->Perm) {
        if (P < 0 || P >= static_cast<int>(X->Perm.size()) || Seen[P])
          return err(Where, "invalid rearrange permutation");
        Seen[P] = true;
      }
      std::vector<Dim> Shape;
      for (int P : X->Perm)
        Shape.push_back(TA->shape()[P]);
      return std::vector<Type>{Type(TA->elemKind(), std::move(Shape))};
    }

    case ExpKind::Reshape: {
      const auto *X = expCast<ReshapeExp>(&E);
      auto TA = arrayType(X->Arr, Where);
      if (!TA)
        return TA.getError();
      if (X->NewShape.empty())
        return err(Where, "reshape to rank 0");
      for (const SubExp &D : X->NewShape)
        if (auto Err = wantIntScalar(D, "reshape dimension", Where))
          return Err;
      return std::vector<Type>{
          Type(TA->elemKind(),
               std::vector<Dim>(X->NewShape.begin(), X->NewShape.end()))};
    }

    case ExpKind::Concat: {
      const auto *X = expCast<ConcatExp>(&E);
      if (X->Arrays.empty())
        return err(Where, "concat of zero arrays");
      std::vector<Type> Ts;
      for (const VName &A : X->Arrays) {
        auto TA = arrayType(A, Where);
        if (!TA)
          return TA.getError();
        Ts.push_back(*TA);
      }
      int64_t OuterSum = 0;
      bool OuterKnown = true;
      for (const Type &T : Ts) {
        if (T.elemKind() != Ts[0].elemKind() || T.rank() != Ts[0].rank())
          return err(Where, "concat of arrays with mismatched types " +
                                Ts[0].str() + " and " + T.str());
        for (int I = 1; I < T.rank(); ++I)
          if (!dimsAgree(T.shape()[I], Ts[0].shape()[I]))
            return err(Where, "concat of arrays with mismatched inner "
                              "dimensions " +
                                  Ts[0].str() + " and " + T.str());
        if (T.outerDim().isConst())
          OuterSum += T.outerDim().getConst().asInt64();
        else
          OuterKnown = false;
      }
      std::vector<Dim> Shape = Ts[0].shape();
      Shape[0] = OuterKnown
                     ? SubExp::constant(PrimValue::makeI64(OuterSum))
                     : unknownDim();
      return std::vector<Type>{Type(Ts[0].elemKind(), std::move(Shape))};
    }

    case ExpKind::Copy: {
      auto TA = arrayType(expCast<CopyExp>(&E)->Arr, Where);
      if (!TA)
        return TA.getError();
      return std::vector<Type>{TA->asNonUnique()};
    }

    case ExpKind::Slice: {
      const auto *X = expCast<SliceExp>(&E);
      auto TA = arrayType(X->Arr, Where);
      if (!TA)
        return TA.getError();
      if (auto Err = wantIntScalar(X->Offset, "slice offset", Where))
        return Err;
      if (auto Err = wantIntScalar(X->Len, "slice length", Where))
        return Err;
      if (auto Err = wantIntScalar(X->Stride, "slice stride", Where))
        return Err;
      // Static bounds: the last touched row must exist.
      if (X->Offset.isConst() && X->Len.isConst() && X->Stride.isConst() &&
          TA->outerDim().isConst()) {
        int64_t Off = X->Offset.getConst().asInt64();
        int64_t Len = X->Len.getConst().asInt64();
        int64_t Str = X->Stride.getConst().asInt64();
        int64_t N = TA->outerDim().getConst().asInt64();
        int64_t Last = Off + (Len > 0 ? (Len - 1) * Str : 0);
        if (Len < 0 || Off < 0 || (Len > 0 && (Last < 0 || Last >= N)))
          return err(Where, "slice [" + std::to_string(Off) + "; " +
                                std::to_string(Len) + "; stride " +
                                std::to_string(Str) +
                                "] out of bounds for outer dimension " +
                                std::to_string(N));
      }
      std::vector<Dim> Shape = TA->shape();
      Shape[0] = X->Len;
      return std::vector<Type>{Type(TA->elemKind(), std::move(Shape))};
    }

    case ExpKind::Map: {
      const auto *X = expCast<MapExp>(&E);
      if (auto Err = wantIntScalar(X->Width, "map width", Where))
        return Err;
      std::vector<Type> RowTys;
      for (const VName &A : X->Arrays) {
        auto TA = arrayType(A, Where);
        if (!TA)
          return TA.getError();
        if (!dimsAgree(TA->outerDim(), X->Width))
          return err(Where, "map of width " + X->Width.str() +
                                " over " + A.str() + " of outer size " +
                                TA->outerDim().str());
        RowTys.push_back(TA->rowType());
      }
      if (auto Err = checkLambda(X->Fn, &RowTys, Where + " (map fn)"))
        return Err;
      std::vector<Type> Out;
      for (const Type &T : X->Fn.RetTypes)
        Out.push_back(T.asNonUnique().arrayOf(X->Width));
      return Out;
    }

    case ExpKind::Reduce:
    case ExpKind::Scan: {
      bool IsScan = E.kind() == ExpKind::Scan;
      const SubExp &Width = IsScan ? expCast<ScanExp>(&E)->Width
                                   : expCast<ReduceExp>(&E)->Width;
      const Lambda &Fn =
          IsScan ? expCast<ScanExp>(&E)->Fn : expCast<ReduceExp>(&E)->Fn;
      const std::vector<SubExp> &Neutral = IsScan
                                               ? expCast<ScanExp>(&E)->Neutral
                                               : expCast<ReduceExp>(&E)->Neutral;
      const std::vector<VName> &Arrays = IsScan
                                             ? expCast<ScanExp>(&E)->Arrays
                                             : expCast<ReduceExp>(&E)->Arrays;
      const char *What = IsScan ? "scan" : "reduce";
      if (auto Err = wantIntScalar(Width, std::string(What) + " width",
                                   Where))
        return Err;
      if (Neutral.size() != Arrays.size())
        return err(Where, std::string(What) + " with " +
                              std::to_string(Neutral.size()) +
                              " neutral elements over " +
                              std::to_string(Arrays.size()) + " arrays");
      std::vector<Type> ElemTys;
      for (const VName &A : Arrays) {
        auto TA = arrayType(A, Where);
        if (!TA)
          return TA.getError();
        if (!dimsAgree(TA->outerDim(), Width))
          return err(Where, std::string(What) + " of width " + Width.str() +
                                " over " + A.str() + " of outer size " +
                                TA->outerDim().str());
        ElemTys.push_back(TA->rowType());
      }
      for (size_t I = 0; I < Neutral.size(); ++I) {
        auto TN = typeOfSub(Neutral[I], Where);
        if (!TN)
          return TN.getError();
        if (!typesAgree(TN->asNonUnique(), ElemTys[I].asNonUnique()))
          return err(Where, std::string(What) + " neutral element " +
                                std::to_string(I) + " has type " +
                                TN->str() + " but the elements have type " +
                                ElemTys[I].str());
      }
      // Operator: (acc..., elem...) -> acc..., all of the element types.
      std::vector<Type> OpArgs = ElemTys;
      OpArgs.insert(OpArgs.end(), ElemTys.begin(), ElemTys.end());
      if (auto Err = checkLambda(Fn, &OpArgs,
                                 Where + (IsScan ? " (scan op)"
                                                 : " (reduce op)")))
        return Err;
      if (!allAgree(Fn.RetTypes, ElemTys))
        return err(Where, std::string(What) + " operator returns " +
                              typeListStr(Fn.RetTypes) +
                              " but the elements have types " +
                              typeListStr(ElemTys));
      std::vector<Type> Out;
      for (const Type &T : ElemTys)
        Out.push_back(IsScan ? T.arrayOf(Width) : T);
      return Out;
    }

    case ExpKind::Stream: {
      const auto *X = expCast<StreamExp>(&E);
      if (auto Err = wantIntScalar(X->Width, "stream width", Where))
        return Err;
      if (static_cast<int>(X->AccInit.size()) != X->NumAccs)
        return err(Where, "stream with " +
                              std::to_string(X->AccInit.size()) +
                              " initial accumulators but NumAccs = " +
                              std::to_string(X->NumAccs));
      std::vector<Type> AccTys;
      for (const SubExp &A : X->AccInit) {
        auto TA = typeOfSub(A, Where);
        if (!TA)
          return TA.getError();
        AccTys.push_back(TA->asNonUnique());
      }
      std::vector<Type> InTys;
      for (const VName &A : X->Arrays) {
        auto TA = arrayType(A, Where);
        if (!TA)
          return TA.getError();
        if (!dimsAgree(TA->outerDim(), X->Width))
          return err(Where, "stream of width " + X->Width.str() + " over " +
                                A.str() + " of outer size " +
                                TA->outerDim().str());
        InTys.push_back(*TA);
      }
      // Fold convention: chunk size, accumulators, chunk arrays (whose
      // outer dimension is the chunk size, unknowable here).
      if (X->FoldFn.Params.size() != 1 + AccTys.size() + InTys.size())
        return err(Where, "stream fold takes " +
                              std::to_string(X->FoldFn.Params.size()) +
                              " parameters; expected " +
                              std::to_string(1 + AccTys.size() +
                                             InTys.size()));
      std::vector<Type> FoldArgs;
      {
        const Type &ChunkTy = X->FoldFn.Params[0].Ty;
        if (!ChunkTy.isScalar() || !isIntKind(ChunkTy.elemKind()))
          return err(Where, "stream fold's first parameter has type " +
                                ChunkTy.str() +
                                "; expected the integer chunk size");
        FoldArgs.push_back(ChunkTy);
      }
      FoldArgs.insert(FoldArgs.end(), AccTys.begin(), AccTys.end());
      for (const Type &T : InTys) {
        std::vector<Dim> Shape = T.shape();
        Shape[0] = unknownDim();
        FoldArgs.push_back(Type(T.elemKind(), std::move(Shape)));
      }
      if (auto Err = checkLambda(X->FoldFn, &FoldArgs,
                                 Where + " (stream fold)"))
        return Err;
      if (static_cast<int>(X->FoldFn.RetTypes.size()) < X->NumAccs)
        return err(Where, "stream fold returns " +
                              std::to_string(X->FoldFn.RetTypes.size()) +
                              " values; expected at least NumAccs = " +
                              std::to_string(X->NumAccs));
      for (int I = 0; I < X->NumAccs; ++I)
        if (!typesAgree(X->FoldFn.RetTypes[I].asNonUnique(), AccTys[I]))
          return err(Where, "stream fold accumulator result " +
                                std::to_string(I) + " has type " +
                                X->FoldFn.RetTypes[I].str() +
                                " but the accumulator has type " +
                                AccTys[I].str());
      if (X->Form == StreamExp::FormKind::Red) {
        std::vector<Type> RedArgs = AccTys;
        RedArgs.insert(RedArgs.end(), AccTys.begin(), AccTys.end());
        if (auto Err = checkLambda(X->ReduceFn, &RedArgs,
                                   Where + " (stream_red op)"))
          return Err;
        if (!allAgree(X->ReduceFn.RetTypes, AccTys))
          return err(Where, "stream_red operator returns " +
                                typeListStr(X->ReduceFn.RetTypes) +
                                " but the accumulators have types " +
                                typeListStr(AccTys));
      }
      std::vector<Type> Out = AccTys;
      for (size_t I = X->NumAccs; I < X->FoldFn.RetTypes.size(); ++I) {
        const Type &T = X->FoldFn.RetTypes[I];
        if (!T.isArray())
          return err(Where, "stream fold's mapped result " +
                                std::to_string(I) + " has scalar type " +
                                T.str() +
                                "; per-chunk results must be arrays");
        std::vector<Dim> Shape = T.shape();
        Shape[0] = X->Width;
        Out.push_back(Type(T.elemKind(), std::move(Shape)));
      }
      return Out;
    }

    case ExpKind::ReduceByIndex: {
      const auto *X = expCast<ReduceByIndexExp>(&E);
      if (auto Err = wantIntScalar(X->Width, "reduce_by_index width", Where))
        return Err;
      auto TD = arrayType(X->Dest, Where + " (hist dest)");
      if (!TD)
        return TD.getError();
      if (TD->rank() != 1)
        return err(Where, "reduce_by_index destination " + X->Dest.str() +
                              " has rank " + std::to_string(TD->rank()) +
                              "; expected 1");
      if (!dimsAgree(TD->outerDim(), X->Width))
        return err(Where, "reduce_by_index of width " + X->Width.str() +
                              " into destination of outer size " +
                              TD->outerDim().str());
      Type Elem = TD->rowType().asNonUnique();
      auto TI = arrayType(X->IndexArr, Where + " (hist indices)");
      if (!TI)
        return TI.getError();
      if (TI->rank() != 1 || !isIntKind(TI->elemKind()))
        return err(Where, "reduce_by_index index array " + X->IndexArr.str() +
                              " has type " + TI->str() +
                              "; expected a one-dimensional integer array");
      std::vector<Type> RowTys;
      for (const VName &A : X->ValueArrs) {
        auto TA = arrayType(A, Where + " (hist values)");
        if (!TA)
          return TA.getError();
        if (!dimsAgree(TA->outerDim(), TI->outerDim()))
          return err(Where, "reduce_by_index value array " + A.str() +
                                " of outer size " + TA->outerDim().str() +
                                " does not match the index array's outer "
                                "size " +
                                TI->outerDim().str());
        RowTys.push_back(TA->rowType());
      }
      auto TN = typeOfSub(X->Neutral, Where);
      if (!TN)
        return TN.getError();
      if (!typesAgree(TN->asNonUnique(), Elem))
        return err(Where, "reduce_by_index neutral element has type " +
                              TN->str() + " but the bins have type " +
                              Elem.str());
      if (auto Err = checkLambda(X->ValueFn, &RowTys,
                                 Where + " (hist value fn)"))
        return Err;
      if (X->ValueFn.RetTypes.size() != 1 ||
          !typesAgree(X->ValueFn.RetTypes[0].asNonUnique(), Elem))
        return err(Where, "reduce_by_index value function produces " +
                              typeListStr(X->ValueFn.RetTypes) +
                              " but the bins have type " + Elem.str());
      std::vector<Type> OpArgs{Elem, Elem};
      if (auto Err = checkLambda(X->CombineFn, &OpArgs,
                                 Where + " (hist op)"))
        return Err;
      if (X->CombineFn.RetTypes.size() != 1 ||
          !typesAgree(X->CombineFn.RetTypes[0].asNonUnique(), Elem))
        return err(Where, "reduce_by_index operator returns " +
                              typeListStr(X->CombineFn.RetTypes) +
                              " but the bins have type " + Elem.str());
      return std::vector<Type>{TD->asNonUnique()};
    }

    case ExpKind::Kernel:
      return checkKernel(*expCast<KernelExp>(&E), Where);
    }
    return err(Where, "unhandled expression kind");
  }

  ErrorOr<std::vector<Type>> checkKernel(const KernelExp &K,
                                         const std::string &Where) {
    if (KernelDepth > 0)
      return err(Where, "kernel nested inside another kernel's thread body");
    if (K.ThreadIndices.size() != K.GridDims.size())
      return err(Where, "kernel with " +
                            std::to_string(K.ThreadIndices.size()) +
                            " thread indices over a grid of rank " +
                            std::to_string(K.GridDims.size()));
    for (const SubExp &D : K.GridDims)
      if (auto Err = wantIntScalar(D, "kernel grid dimension", Where))
        return Err;

    // Inputs: the declared type must agree with the bound array (the
    // simulator charges tiled traffic by the element width of exactly
    // these arrays), and the layout permutation must be valid.
    for (const KernelExp::KInput &In : K.Inputs) {
      auto TA = arrayType(In.Arr, Where + " (kernel input)");
      if (!TA)
        return TA.getError();
      if (!typesAgree(In.Ty.asNonUnique(), TA->asNonUnique()))
        return err(Where, "kernel input " + In.Arr.str() +
                              " declares type " + In.Ty.str() +
                              " but the bound array has type " + TA->str());
      if (static_cast<int>(In.LayoutPerm.size()) != TA->rank())
        return err(Where, "kernel input " + In.Arr.str() +
                              " has a layout permutation of size " +
                              std::to_string(In.LayoutPerm.size()) +
                              " for rank " + std::to_string(TA->rank()));
      std::vector<bool> Seen(In.LayoutPerm.size(), false);
      for (int P : In.LayoutPerm) {
        if (P < 0 || P >= static_cast<int>(In.LayoutPerm.size()) || Seen[P])
          return err(Where, "kernel input " + In.Arr.str() +
                                " has an invalid layout permutation");
        Seen[P] = true;
      }
    }

    NameMap<Type> Saved = Scope;
    for (const VName &T : K.ThreadIndices)
      if (auto Err = bind(Param(T, Type::scalar(ScalarKind::I32)), Where))
        return Err;
    if (K.isSegmented()) {
      if (auto Err = wantIntScalar(K.SegSize, "segment size", Where))
        return Err;
      if (auto Err = bind(Param(K.SegIndex, Type::scalar(ScalarKind::I32)),
                          Where))
        return Err;
    }

    ++KernelDepth;
    auto TR = checkBody(K.ThreadBody, Where + " (thread body)");
    --KernelDepth;
    if (!TR)
      return TR.getError();
    Scope = std::move(Saved);

    if (K.Op == KernelExp::OpKind::SegHist) {
      if (TR->size() != 2)
        return err(Where, "seghist kernel thread body produces " +
                              std::to_string(TR->size()) +
                              " values; expected (bin index, value)");
      Type BinTy = (*TR)[0];
      if (!BinTy.isScalar() || !isIntKind(BinTy.elemKind()))
        return err(Where, "seghist kernel bin index has type " +
                              BinTy.str() + "; expected an integer scalar");
      Type Elem = (*TR)[1].asNonUnique();
      if (K.Neutral.size() != 1)
        return err(Where, "seghist kernel must have exactly one neutral "
                          "element");
      auto TN = typeOfSub(K.Neutral[0], Where);
      if (!TN)
        return TN.getError();
      if (!typesAgree(TN->asNonUnique(), Elem))
        return err(Where, "seghist kernel neutral element has type " +
                              TN->str() + " but the values have type " +
                              Elem.str());
      std::vector<Type> OpArgs{Elem, Elem};
      if (auto Err = checkLambda(K.ReduceFn, &OpArgs, Where + " (kernel op)"))
        return Err;
      if (K.ReduceFn.RetTypes.size() != 1 ||
          !typesAgree(K.ReduceFn.RetTypes[0].asNonUnique(), Elem))
        return err(Where, "seghist kernel operator returns " +
                              typeListStr(K.ReduceFn.RetTypes) +
                              " but the values have type " + Elem.str());
      if (auto Err = wantIntScalar(K.HistWidth, "histogram width", Where))
        return Err;
      auto TD = arrayType(K.HistDest, Where + " (kernel hist dest)");
      if (!TD)
        return TD.getError();
      if (TD->rank() != 1 || TD->elemKind() != Elem.elemKind())
        return err(Where, "seghist kernel destination " + K.HistDest.str() +
                              " has type " + TD->str() +
                              " but the values have type " + Elem.str());
      if (!dimsAgree(TD->outerDim(), K.HistWidth))
        return err(Where, "seghist kernel of width " + K.HistWidth.str() +
                              " into destination of outer size " +
                              TD->outerDim().str());
      if (K.RetTypes.size() != 1 ||
          !typesAgree(K.RetTypes[0].asNonUnique(), TD->asNonUnique()))
        return err(Where, "seghist kernel declares result types " +
                              typeListStr(K.RetTypes) +
                              " but the destination has type " + TD->str());
      return std::vector<Type>{TD->asNonUnique()};
    }

    if (K.isSegmented()) {
      if (TR->size() != K.Neutral.size())
        return err(Where, "segmented kernel thread body produces " +
                              std::to_string(TR->size()) +
                              " element values for " +
                              std::to_string(K.Neutral.size()) +
                              " neutral elements");
      std::vector<Type> ElemTys;
      for (const Type &T : *TR)
        ElemTys.push_back(T.asNonUnique());
      for (size_t I = 0; I < K.Neutral.size(); ++I) {
        auto TN = typeOfSub(K.Neutral[I], Where);
        if (!TN)
          return TN.getError();
        if (!typesAgree(TN->asNonUnique(), ElemTys[I]))
          return err(Where, "segmented kernel neutral element " +
                                std::to_string(I) + " has type " +
                                TN->str() + " but the elements have type " +
                                ElemTys[I].str());
      }
      std::vector<Type> OpArgs = ElemTys;
      OpArgs.insert(OpArgs.end(), ElemTys.begin(), ElemTys.end());
      if (auto Err = checkLambda(K.ReduceFn, &OpArgs,
                                 Where + " (kernel op)"))
        return Err;
      if (!allAgree(K.ReduceFn.RetTypes, ElemTys))
        return err(Where, "segmented kernel operator returns " +
                              typeListStr(K.ReduceFn.RetTypes) +
                              " but the elements have types " +
                              typeListStr(ElemTys));
      if (K.RetTypes.size() != K.Neutral.size())
        return err(Where, "segmented kernel declares " +
                              std::to_string(K.RetTypes.size()) +
                              " result types for " +
                              std::to_string(K.Neutral.size()) +
                              " reduced values");
      bool IsScan = K.Op == KernelExp::OpKind::SegScan;
      std::vector<Type> Out;
      for (size_t I = 0; I < K.RetTypes.size(); ++I) {
        Type Elem = ElemTys[I];
        std::vector<Dim> Shape(K.GridDims.begin(), K.GridDims.end());
        if (IsScan)
          Shape.push_back(K.SegSize);
        Shape.insert(Shape.end(), Elem.shape().begin(), Elem.shape().end());
        Type Derived(Elem.elemKind(), std::move(Shape));
        if (!typesAgree(K.RetTypes[I].asNonUnique(), Derived))
          return err(Where, "segmented kernel result " + std::to_string(I) +
                                " declares type " + K.RetTypes[I].str() +
                                " but the grid and elements derive " +
                                Derived.str());
        Out.push_back(Derived);
      }
      return Out;
    }

    if (K.RetTypes.size() != TR->size())
      return err(Where, "kernel thread body produces " +
                            std::to_string(TR->size()) +
                            " values but the kernel declares " +
                            std::to_string(K.RetTypes.size()) +
                            " result types");
    std::vector<Type> Out;
    for (size_t I = 0; I < TR->size(); ++I) {
      const Type &Elem = (*TR)[I];
      std::vector<Dim> Shape(K.GridDims.begin(), K.GridDims.end());
      Shape.insert(Shape.end(), Elem.shape().begin(), Elem.shape().end());
      Type Derived(Elem.elemKind(), std::move(Shape));
      if (!typesAgree(K.RetTypes[I].asNonUnique(), Derived))
        return err(Where, "kernel result " + std::to_string(I) +
                              " declares type " + K.RetTypes[I].str() +
                              " but the grid and thread results derive " +
                              Derived.str());
      Out.push_back(Derived);
    }
    return Out;
  }

  //===-- Bodies ----------------------------------------------------------===//

  ErrorOr<std::vector<Type>> checkBody(const Body &B,
                                       const std::string &Where) {
    NameSet Consumed;
    auto consumedUse = [&](const Exp &E, VName &Hit) {
      if (Consumed.empty())
        return false;
      for (const VName &V : freeVarsInExp(E))
        if (Consumed.count(V)) {
          Hit = V;
          return true;
        }
      return false;
    };

    for (const Stm &S : B.Stms) {
      std::string Binding =
          S.Pat.empty() ? std::string("<empty pattern>")
                        : "binding '" + S.Pat[0].Name.str() + "'";
      VName Hit;
      if (consumedUse(*S.E, Hit))
        return err(Binding, "use of " + Hit.str() +
                                " after it was consumed by an in-place "
                                "update");
      auto Ts = checkExp(*S.E, Binding);
      if (!Ts)
        return Ts.getError();
      // Apply's return arity is derived from the callee, so every
      // expression's arity is decidable here.
      if (Ts->size() != S.Pat.size())
        return err(Binding, std::string("pattern of arity ") +
                                std::to_string(S.Pat.size()) +
                                " bound to a " + expKindName(S.E->kind()) +
                                " producing " + std::to_string(Ts->size()) +
                                " values");
      for (size_t I = 0; I < S.Pat.size(); ++I) {
        if (!typesAgree((*Ts)[I].asNonUnique(), S.Pat[I].Ty.asNonUnique()))
          return err(Binding, "declares type " + S.Pat[I].Ty.str() +
                                  " for " + S.Pat[I].Name.str() +
                                  " but the expression derives " +
                                  (*Ts)[I].str());
        if (auto Err = bind(S.Pat[I], Binding))
          return Err;
      }
      if (const auto *U = expDynCast<UpdateExp>(S.E.get()))
        Consumed.insert(U->Arr);
      if (const auto *R = expDynCast<ReduceByIndexExp>(S.E.get()))
        Consumed.insert(R->Dest);
      if (const auto *K = expDynCast<KernelExp>(S.E.get()))
        if (K->Op == KernelExp::OpKind::SegHist)
          Consumed.insert(K->HistDest);
    }

    std::vector<Type> Out;
    for (const SubExp &R : B.Result) {
      if (R.isVar() && Consumed.count(R.getVar()))
        return err(Where, "result returns " + R.getVar().str() +
                              " after it was consumed by an in-place "
                              "update");
      auto T = typeOfSub(R, Where);
      if (!T)
        return T.getError();
      Out.push_back(T->asNonUnique());
    }
    return Out;
  }
};

} // namespace

MaybeError fut::verifyProgram(const Program &P, const std::string &Pass,
                              const VerifyOptions &Opts) {
  for (const FunDef &F : P.Funs)
    if (auto Err = Verifier(P, Opts, Pass).verifyFunDef(F))
      return Err;
  return MaybeError::success();
}
