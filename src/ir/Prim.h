//===- Prim.h - Primitive scalar types, values and operators ----*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scalar kinds (bool/i32/i64/f32/f64), boxed primitive values, and the
/// binary/unary/conversion operator vocabulary of the core language,
/// together with their evaluation semantics (shared by the constant folder,
/// the reference interpreter and the GPU simulator).
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_IR_PRIM_H
#define FUTHARKCC_IR_PRIM_H

#include "support/Error.h"
#include "support/Utils.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace fut {

/// The primitive element types of the language.
enum class ScalarKind : uint8_t { Bool, I32, I64, F32, F64 };

const char *scalarKindName(ScalarKind K);
bool isFloatKind(ScalarKind K);
bool isIntKind(ScalarKind K);

/// Bytes one element of kind \p K occupies in memory.
inline int64_t elemBytes(ScalarKind K) {
  switch (K) {
  case ScalarKind::Bool:
    return 1;
  case ScalarKind::I32:
  case ScalarKind::F32:
    return 4;
  case ScalarKind::I64:
  case ScalarKind::F64:
    return 8;
  }
  return 4;
}

/// A single scalar value, tagged with its kind.  I32/F32 values are kept
/// truncated to 32-bit semantics at every operation.
class PrimValue {
  ScalarKind Kind;
  union {
    bool B;
    int64_t I;
    double F;
  };

public:
  PrimValue() : Kind(ScalarKind::I32), I(0) {}

  static PrimValue makeBool(bool V) {
    PrimValue P;
    P.Kind = ScalarKind::Bool;
    P.B = V;
    return P;
  }
  static PrimValue makeI32(int32_t V) {
    PrimValue P;
    P.Kind = ScalarKind::I32;
    P.I = V;
    return P;
  }
  static PrimValue makeI64(int64_t V) {
    PrimValue P;
    P.Kind = ScalarKind::I64;
    P.I = V;
    return P;
  }
  static PrimValue makeF32(float V);
  static PrimValue makeF64(double V);
  /// Zero (or false) of kind \p K — the canonical "blank" element.
  static PrimValue zeroOf(ScalarKind K);

  ScalarKind kind() const { return Kind; }
  bool isFloat() const { return isFloatKind(Kind); }
  bool isInt() const { return isIntKind(Kind); }

  bool getBool() const {
    assert(Kind == ScalarKind::Bool && "not a bool");
    return B;
  }
  int64_t getInt() const {
    assert(isInt() && "not an integer");
    return I;
  }
  double getFloat() const {
    assert(isFloat() && "not a float");
    return F;
  }

  /// Numeric value as a double regardless of kind (bools become 0/1).
  double asDouble() const;
  /// Numeric value as int64 regardless of kind (floats truncate).
  int64_t asInt64() const {
    switch (Kind) {
    case ScalarKind::Bool:
      return B ? 1 : 0;
    case ScalarKind::I32:
    case ScalarKind::I64:
      return I;
    case ScalarKind::F32:
    case ScalarKind::F64:
      return static_cast<int64_t>(F);
    }
    return 0;
  }

  bool operator==(const PrimValue &Other) const;
  bool operator!=(const PrimValue &Other) const { return !(*this == Other); }

  size_t hash() const;
  std::string str() const;
};

/// Binary operators.  Comparison operators yield Bool; the rest preserve the
/// operand kind.  Semantics of Div/Mod on integers follow Futhark (floor
/// division, sign of divisor).
enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Pow,
  Min,
  Max,
  LogAnd,
  LogOr,
  Eq,
  Neq,
  Lt,
  Leq,
  Gt,
  Geq,
};

/// Unary operators.
enum class UnOp : uint8_t {
  Neg,
  Not,
  Abs,
  Signum,
  Sqrt,
  Exp,
  Log,
  Sin,
  Cos,
  Tan,
  Atan,
  Floor,
};

/// Kind-to-kind conversions (e.g. i32 -> f32).
struct ConvOp {
  ScalarKind From;
  ScalarKind To;
};

const char *binOpName(BinOp Op);
const char *unOpName(UnOp Op);

/// True for operators whose result kind is Bool regardless of operands.
bool isCompareOp(BinOp Op);
/// True if \p Op is defined on operands of kind \p K.
bool binOpDefinedOn(BinOp Op, ScalarKind K);
bool unOpDefinedOn(UnOp Op, ScalarKind K);
/// Result kind of applying \p Op to operands of kind \p K.
ScalarKind binOpResultKind(BinOp Op, ScalarKind K);
ScalarKind unOpResultKind(UnOp Op, ScalarKind K);

/// Evaluates a binary operator on two values of the same kind.  Division by
/// zero on integers yields an error; on floats it follows IEEE.
ErrorOr<PrimValue> evalBinOp(BinOp Op, const PrimValue &A, const PrimValue &B);

/// Why evaluating a binary operator fails (None: it does not).
enum class BinOpFault : uint8_t {
  None,
  MismatchedKinds,
  Undefined,
  DivisionByZero,
  DivisionOverflow,
  ModuloByZero,
  ModuloOverflow,
  NegativeExponent,
  Unevaluable,
};

/// evalBinOp without the error: the result goes to \p Out, and a failure
/// is only named.  evalBinOp is this plus the error message, so callers
/// that only need to know that an operation failed (a simulated warp,
/// which then reruns its lanes one by one) skip building one.
BinOpFault evalBinOpInto(BinOp Op, const PrimValue &A, const PrimValue &B,
                         PrimValue &Out);
/// The error evalBinOp reports when \p Op on \p A and \p B fails with
/// \p Fault; callers of evalBinOpInto build it only on a failure.
CompilerError binOpError(BinOpFault Fault, BinOp Op, const PrimValue &A,
                         const PrimValue &B);
ErrorOr<PrimValue> evalUnOp(UnOp Op, const PrimValue &A);
PrimValue evalConvOp(ConvOp Op, const PrimValue &A);

} // namespace fut

#endif // FUTHARKCC_IR_PRIM_H
