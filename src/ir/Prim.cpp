//===- Prim.cpp - Primitive scalar semantics ------------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "ir/Prim.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <sstream>

using namespace fut;

const char *fut::scalarKindName(ScalarKind K) {
  switch (K) {
  case ScalarKind::Bool:
    return "bool";
  case ScalarKind::I32:
    return "i32";
  case ScalarKind::I64:
    return "i64";
  case ScalarKind::F32:
    return "f32";
  case ScalarKind::F64:
    return "f64";
  }
  assert(false && "unhandled scalar kind");
  return "?";
}

bool fut::isFloatKind(ScalarKind K) {
  return K == ScalarKind::F32 || K == ScalarKind::F64;
}

bool fut::isIntKind(ScalarKind K) {
  return K == ScalarKind::I32 || K == ScalarKind::I64;
}

PrimValue PrimValue::makeF32(float V) {
  PrimValue P;
  P.Kind = ScalarKind::F32;
  P.F = V;
  return P;
}

PrimValue PrimValue::makeF64(double V) {
  PrimValue P;
  P.Kind = ScalarKind::F64;
  P.F = V;
  return P;
}

PrimValue PrimValue::zeroOf(ScalarKind K) {
  switch (K) {
  case ScalarKind::Bool:
    return makeBool(false);
  case ScalarKind::I32:
    return makeI32(0);
  case ScalarKind::I64:
    return makeI64(0);
  case ScalarKind::F32:
    return makeF32(0.0f);
  case ScalarKind::F64:
    return makeF64(0.0);
  }
  assert(false && "unhandled scalar kind");
  return PrimValue();
}

double PrimValue::asDouble() const {
  switch (Kind) {
  case ScalarKind::Bool:
    return B ? 1.0 : 0.0;
  case ScalarKind::I32:
  case ScalarKind::I64:
    return static_cast<double>(I);
  case ScalarKind::F32:
  case ScalarKind::F64:
    return F;
  }
  return 0.0;
}

bool PrimValue::operator==(const PrimValue &Other) const {
  if (Kind != Other.Kind)
    return false;
  switch (Kind) {
  case ScalarKind::Bool:
    return B == Other.B;
  case ScalarKind::I32:
  case ScalarKind::I64:
    return I == Other.I;
  case ScalarKind::F32:
  case ScalarKind::F64:
    return F == Other.F;
  }
  return false;
}

size_t PrimValue::hash() const {
  size_t Seed = std::hash<int>()(static_cast<int>(Kind));
  switch (Kind) {
  case ScalarKind::Bool:
    hashCombine(Seed, std::hash<bool>()(B));
    break;
  case ScalarKind::I32:
  case ScalarKind::I64:
    hashCombine(Seed, std::hash<int64_t>()(I));
    break;
  case ScalarKind::F32:
  case ScalarKind::F64:
    hashCombine(Seed, std::hash<double>()(F));
    break;
  }
  return Seed;
}

std::string PrimValue::str() const {
  std::ostringstream OS;
  switch (Kind) {
  case ScalarKind::Bool:
    OS << (B ? "true" : "false");
    break;
  case ScalarKind::I32:
    OS << I << "i32";
    break;
  case ScalarKind::I64:
    OS << I << "i64";
    break;
  case ScalarKind::F32:
    OS << F << "f32";
    break;
  case ScalarKind::F64:
    OS << F << "f64";
    break;
  }
  return OS.str();
}

const char *fut::binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "/";
  case BinOp::Mod:
    return "%";
  case BinOp::Pow:
    return "**";
  case BinOp::Min:
    return "min";
  case BinOp::Max:
    return "max";
  case BinOp::LogAnd:
    return "&&";
  case BinOp::LogOr:
    return "||";
  case BinOp::Eq:
    return "==";
  case BinOp::Neq:
    return "!=";
  case BinOp::Lt:
    return "<";
  case BinOp::Leq:
    return "<=";
  case BinOp::Gt:
    return ">";
  case BinOp::Geq:
    return ">=";
  }
  assert(false && "unhandled binop");
  return "?";
}

const char *fut::unOpName(UnOp Op) {
  switch (Op) {
  case UnOp::Neg:
    return "neg";
  case UnOp::Not:
    return "!";
  case UnOp::Abs:
    return "abs";
  case UnOp::Signum:
    return "signum";
  case UnOp::Sqrt:
    return "sqrt";
  case UnOp::Exp:
    return "exp";
  case UnOp::Log:
    return "log";
  case UnOp::Sin:
    return "sin";
  case UnOp::Cos:
    return "cos";
  case UnOp::Tan:
    return "tan";
  case UnOp::Atan:
    return "atan";
  case UnOp::Floor:
    return "floor";
  }
  assert(false && "unhandled unop");
  return "?";
}

bool fut::isCompareOp(BinOp Op) {
  switch (Op) {
  case BinOp::Eq:
  case BinOp::Neq:
  case BinOp::Lt:
  case BinOp::Leq:
  case BinOp::Gt:
  case BinOp::Geq:
    return true;
  default:
    return false;
  }
}

bool fut::binOpDefinedOn(BinOp Op, ScalarKind K) {
  switch (Op) {
  case BinOp::LogAnd:
  case BinOp::LogOr:
    return K == ScalarKind::Bool;
  case BinOp::Eq:
  case BinOp::Neq:
    return true;
  case BinOp::Lt:
  case BinOp::Leq:
  case BinOp::Gt:
  case BinOp::Geq:
    return K != ScalarKind::Bool;
  case BinOp::Mod:
    return isIntKind(K);
  default:
    return K != ScalarKind::Bool;
  }
}

bool fut::unOpDefinedOn(UnOp Op, ScalarKind K) {
  switch (Op) {
  case UnOp::Not:
    return K == ScalarKind::Bool;
  case UnOp::Neg:
  case UnOp::Abs:
  case UnOp::Signum:
    return K != ScalarKind::Bool;
  case UnOp::Sqrt:
  case UnOp::Exp:
  case UnOp::Log:
  case UnOp::Sin:
  case UnOp::Cos:
  case UnOp::Tan:
  case UnOp::Atan:
  case UnOp::Floor:
    return isFloatKind(K);
  }
  return false;
}

ScalarKind fut::binOpResultKind(BinOp Op, ScalarKind K) {
  return isCompareOp(Op) ? ScalarKind::Bool : K;
}

ScalarKind fut::unOpResultKind(UnOp Op, ScalarKind K) { return K; }

namespace {

/// Truncates \p V to the representation width of kind \p K.
PrimValue normalizeInt(ScalarKind K, int64_t V) {
  if (K == ScalarKind::I32)
    return PrimValue::makeI32(static_cast<int32_t>(V));
  return PrimValue::makeI64(V);
}

PrimValue normalizeFloat(ScalarKind K, double V) {
  if (K == ScalarKind::F32)
    return PrimValue::makeF32(static_cast<float>(V));
  return PrimValue::makeF64(V);
}

/// Wrapping two's-complement arithmetic: signed overflow is undefined
/// behaviour in C++, so wrap-prone operations go through unsigned and the
/// result is truncated back to the operand kind by normalizeInt.
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(-static_cast<uint64_t>(A));
}

/// Futhark-style floor division.  Callers must reject B == 0 and the
/// INT64_MIN / -1 overflow before calling (A / B would be UB).
int64_t floorDiv(int64_t A, int64_t B) {
  int64_t Q = A / B;
  if ((A % B != 0) && ((A < 0) != (B < 0)))
    --Q;
  return Q;
}

int64_t floorMod(int64_t A, int64_t B) {
  return wrapSub(A, wrapMul(floorDiv(A, B), B));
}

/// Wrapping integer exponentiation; Exp must be non-negative.
int64_t intPow(int64_t Base, int64_t Exp) {
  int64_t R = 1;
  for (int64_t I = 0; I < Exp; ++I)
    R = wrapMul(R, Base);
  return R;
}

} // namespace

namespace {

/// The body of both entry points below, inlined into each so that
/// evalBinOp pays no call beyond its own.
[[gnu::always_inline]] inline BinOpFault
binOpInto(BinOp Op, const PrimValue &A, const PrimValue &B, PrimValue &Out) {
  using BF = BinOpFault;
  if (A.kind() != B.kind())
    return BF::MismatchedKinds;
  ScalarKind K = A.kind();
  if (!binOpDefinedOn(Op, K))
    return BF::Undefined;
  auto Put = [&Out](PrimValue V) {
    Out = V;
    return BF::None;
  };

  switch (Op) {
  case BinOp::LogAnd:
    return Put(PrimValue::makeBool(A.getBool() && B.getBool()));
  case BinOp::LogOr:
    return Put(PrimValue::makeBool(A.getBool() || B.getBool()));
  case BinOp::Eq:
    return Put(PrimValue::makeBool(A == B));
  case BinOp::Neq:
    return Put(PrimValue::makeBool(!(A == B)));
  default:
    break;
  }

  if (isFloatKind(K)) {
    double X = A.getFloat(), Y = B.getFloat();
    switch (Op) {
    case BinOp::Add:
      return Put(normalizeFloat(K, X + Y));
    case BinOp::Sub:
      return Put(normalizeFloat(K, X - Y));
    case BinOp::Mul:
      return Put(normalizeFloat(K, X * Y));
    case BinOp::Div:
      return Put(normalizeFloat(K, X / Y));
    case BinOp::Pow:
      return Put(normalizeFloat(K, std::pow(X, Y)));
    case BinOp::Min:
      return Put(normalizeFloat(K, std::fmin(X, Y)));
    case BinOp::Max:
      return Put(normalizeFloat(K, std::fmax(X, Y)));
    case BinOp::Lt:
      return Put(PrimValue::makeBool(X < Y));
    case BinOp::Leq:
      return Put(PrimValue::makeBool(X <= Y));
    case BinOp::Gt:
      return Put(PrimValue::makeBool(X > Y));
    case BinOp::Geq:
      return Put(PrimValue::makeBool(X >= Y));
    default:
      break;
    }
  }

  if (isIntKind(K)) {
    int64_t X = A.getInt(), Y = B.getInt();
    switch (Op) {
    case BinOp::Add:
      return Put(normalizeInt(K, wrapAdd(X, Y)));
    case BinOp::Sub:
      return Put(normalizeInt(K, wrapSub(X, Y)));
    case BinOp::Mul:
      return Put(normalizeInt(K, wrapMul(X, Y)));
    // Faulting operations are typed runtime errors, never UB: the
    // simplifier leaves the expression unfolded when evalBinOp fails, and
    // the interpreter and gpusim surface the identical diagnostic, so
    // fold == interpreter == device on every edge case by construction.
    case BinOp::Div:
      if (Y == 0)
        return BF::DivisionByZero;
      if (X == INT64_MIN && Y == -1)
        return BF::DivisionOverflow;
      return Put(normalizeInt(K, floorDiv(X, Y)));
    case BinOp::Mod:
      if (Y == 0)
        return BF::ModuloByZero;
      if (X == INT64_MIN && Y == -1)
        return BF::ModuloOverflow;
      return Put(normalizeInt(K, floorMod(X, Y)));
    case BinOp::Pow:
      if (Y < 0)
        return BF::NegativeExponent;
      return Put(normalizeInt(K, intPow(X, Y)));
    case BinOp::Min:
      return Put(normalizeInt(K, X < Y ? X : Y));
    case BinOp::Max:
      return Put(normalizeInt(K, X > Y ? X : Y));
    case BinOp::Lt:
      return Put(PrimValue::makeBool(X < Y));
    case BinOp::Leq:
      return Put(PrimValue::makeBool(X <= Y));
    case BinOp::Gt:
      return Put(PrimValue::makeBool(X > Y));
    case BinOp::Geq:
      return Put(PrimValue::makeBool(X >= Y));
    default:
      break;
    }
  }

  return BF::Unevaluable;
}

} // namespace

BinOpFault fut::evalBinOpInto(BinOp Op, const PrimValue &A,
                              const PrimValue &B, PrimValue &Out) {
  return binOpInto(Op, A, B, Out);
}

CompilerError fut::binOpError(BinOpFault Fault, BinOp Op, const PrimValue &A,
                              const PrimValue &B) {
  switch (Fault) {
  case BinOpFault::None:
  case BinOpFault::Unevaluable:
    break;
  case BinOpFault::MismatchedKinds:
    return CompilerError("binop operands have mismatched kinds: " + A.str() +
                         " vs " + B.str());
  case BinOpFault::Undefined:
    return CompilerError(std::string("operator ") + binOpName(Op) +
                         " undefined on " + scalarKindName(A.kind()));
  case BinOpFault::DivisionByZero:
    return CompilerError::runtime("integer division by zero");
  case BinOpFault::DivisionOverflow:
    return CompilerError::runtime("integer division overflow");
  case BinOpFault::ModuloByZero:
    return CompilerError::runtime("integer modulo by zero");
  case BinOpFault::ModuloOverflow:
    return CompilerError::runtime("integer modulo overflow");
  case BinOpFault::NegativeExponent:
    return CompilerError::runtime("negative integer exponent");
  }
  return CompilerError(std::string("cannot evaluate operator ") +
                       binOpName(Op) + " on " + scalarKindName(A.kind()));
}

ErrorOr<PrimValue> fut::evalBinOp(BinOp Op, const PrimValue &A,
                                  const PrimValue &B) {
  PrimValue Out;
  BinOpFault Fault = binOpInto(Op, A, B, Out);
  if (Fault != BinOpFault::None)
    return binOpError(Fault, Op, A, B);
  return Out;
}

ErrorOr<PrimValue> fut::evalUnOp(UnOp Op, const PrimValue &A) {
  ScalarKind K = A.kind();
  if (!unOpDefinedOn(Op, K))
    return CompilerError(std::string("operator ") + unOpName(Op) +
                         " undefined on " + scalarKindName(K));

  if (Op == UnOp::Not)
    return PrimValue::makeBool(!A.getBool());

  if (isIntKind(K)) {
    int64_t X = A.getInt();
    switch (Op) {
    case UnOp::Neg:
      return normalizeInt(K, wrapNeg(X));
    case UnOp::Abs:
      return normalizeInt(K, X < 0 ? wrapNeg(X) : X);
    case UnOp::Signum:
      return normalizeInt(K, X > 0 ? 1 : (X < 0 ? -1 : 0));
    default:
      break;
    }
  }

  if (isFloatKind(K)) {
    double X = A.getFloat();
    switch (Op) {
    case UnOp::Neg:
      return normalizeFloat(K, -X);
    case UnOp::Abs:
      return normalizeFloat(K, std::fabs(X));
    case UnOp::Signum:
      return normalizeFloat(K, X > 0 ? 1.0 : (X < 0 ? -1.0 : 0.0));
    case UnOp::Sqrt:
      return normalizeFloat(K, std::sqrt(X));
    case UnOp::Exp:
      return normalizeFloat(K, std::exp(X));
    case UnOp::Log:
      return normalizeFloat(K, std::log(X));
    case UnOp::Sin:
      return normalizeFloat(K, std::sin(X));
    case UnOp::Cos:
      return normalizeFloat(K, std::cos(X));
    case UnOp::Tan:
      return normalizeFloat(K, std::tan(X));
    case UnOp::Atan:
      return normalizeFloat(K, std::atan(X));
    case UnOp::Floor:
      return normalizeFloat(K, std::floor(X));
    default:
      break;
    }
  }

  return CompilerError(std::string("cannot evaluate operator ") +
                       unOpName(Op) + " on " + scalarKindName(K));
}

PrimValue fut::evalConvOp(ConvOp Op, const PrimValue &A) {
  assert(A.kind() == Op.From && "conversion from wrong kind");
  switch (Op.To) {
  case ScalarKind::Bool:
    return PrimValue::makeBool(A.asDouble() != 0.0);
  case ScalarKind::I32:
    return PrimValue::makeI32(static_cast<int32_t>(A.asInt64()));
  case ScalarKind::I64:
    return PrimValue::makeI64(A.asInt64());
  case ScalarKind::F32:
    return PrimValue::makeF32(static_cast<float>(A.asDouble()));
  case ScalarKind::F64:
    return PrimValue::makeF64(A.asDouble());
  }
  assert(false && "unhandled conversion target");
  return PrimValue();
}
