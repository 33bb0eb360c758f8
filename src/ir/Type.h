//===- Type.h - Array types with symbolic shapes ----------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types of the core language (Fig 1 of the paper): a scalar kind plus a
/// shape of symbolic dimensions, optionally marked unique (*t).  Every array
/// type is parametrised with exact shape information; a dimension is either
/// a constant or a variable in scope (SubExp).  Tuples are not types: the IR
/// is tuple-free, with multi-value patterns instead.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_IR_TYPE_H
#define FUTHARKCC_IR_TYPE_H

#include "ir/Name.h"
#include "ir/Prim.h"

#include <cassert>
#include <variant>
#include <vector>

namespace fut {

/// An operand: either a primitive constant or a variable.  Also used for
/// array dimensions, which are always of kind i64 when symbolic.  Stored as
/// a variant: operands are the most numerous IR objects, and a cached
/// artifact holds thousands of them.
class SubExp {
  std::variant<PrimValue, VName> Val{PrimValue::makeI64(0)};

public:
  SubExp() = default;

  static SubExp constant(PrimValue V) {
    SubExp S;
    S.Val = V;
    return S;
  }
  static SubExp intConst(int64_t V) {
    return constant(PrimValue::makeI64(V));
  }
  static SubExp var(VName N) {
    SubExp S;
    S.Val = std::move(N);
    return S;
  }

  bool isConst() const { return Val.index() == 0; }
  bool isVar() const { return !isConst(); }

  const PrimValue &getConst() const {
    assert(isConst() && "not a constant");
    return *std::get_if<PrimValue>(&Val);
  }
  const VName &getVar() const {
    assert(!isConst() && "not a variable");
    return *std::get_if<VName>(&Val);
  }

  bool operator==(const SubExp &Other) const {
    if (isConst() != Other.isConst())
      return false;
    return isConst() ? getConst() == Other.getConst()
                     : getVar() == Other.getVar();
  }
  bool operator!=(const SubExp &Other) const { return !(*this == Other); }

  size_t hash() const {
    size_t Seed = isConst() ? getConst().hash() : VNameHash()(getVar());
    hashCombine(Seed, isConst() ? 17u : 31u);
    return Seed;
  }

  std::string str() const {
    return isConst() ? getConst().str() : getVar().str();
  }
};

/// A dimension of an array type.
using Dim = SubExp;

/// A core-language type: rank-0 means scalar.  Unique corresponds to the
/// paper's *t annotation and is only meaningful on function parameter and
/// return types.
class Type {
  ScalarKind Elem = ScalarKind::I32;
  bool Unique = false;
  std::vector<Dim> Shape;

public:
  Type() = default;
  Type(ScalarKind Elem, std::vector<Dim> Shape = {}, bool Unique = false)
      : Elem(Elem), Unique(Unique), Shape(std::move(Shape)) {}

  static Type scalar(ScalarKind K) { return Type(K); }
  static Type array(ScalarKind K, std::vector<Dim> Shape, bool Unique = false) {
    return Type(K, std::move(Shape), Unique);
  }

  ScalarKind elemKind() const { return Elem; }
  const std::vector<Dim> &shape() const { return Shape; }
  int rank() const { return static_cast<int>(Shape.size()); }
  bool isScalar() const { return Shape.empty(); }
  bool isArray() const { return !Shape.empty(); }
  bool isUnique() const { return Unique; }

  const Dim &outerDim() const {
    assert(isArray() && "scalar has no dimensions");
    return Shape.front();
  }

  /// The type of a row of this array (one dimension peeled off).
  Type rowType() const {
    assert(isArray() && "scalar has no row type");
    return Type(Elem, std::vector<Dim>(Shape.begin() + 1, Shape.end()));
  }

  /// The type of the array obtained by peeling \p N outer dimensions.
  Type peel(int N) const {
    assert(N <= rank() && "peeling too many dimensions");
    return Type(Elem, std::vector<Dim>(Shape.begin() + N, Shape.end()));
  }

  /// An array of \p D elements of this type.
  Type arrayOf(Dim D) const {
    std::vector<Dim> NewShape;
    NewShape.reserve(Shape.size() + 1);
    NewShape.push_back(std::move(D));
    NewShape.insert(NewShape.end(), Shape.begin(), Shape.end());
    return Type(Elem, std::move(NewShape));
  }

  /// The same type with several outer dimensions prepended.
  Type arrayOfShape(const std::vector<Dim> &Outer) const {
    Type T = *this;
    for (auto It = Outer.rbegin(); It != Outer.rend(); ++It)
      T = T.arrayOf(*It);
    return T;
  }

  Type asUnique() const {
    Type T = *this;
    T.Unique = true;
    return T;
  }
  Type asNonUnique() const {
    Type T = *this;
    T.Unique = false;
    return T;
  }

  /// Structural equality modulo uniqueness.
  bool equalModuloUniqueness(const Type &Other) const {
    return Elem == Other.Elem && Shape == Other.Shape;
  }

  /// Equality of ranks and element kind only (shape-oblivious), used where
  /// dimension identity cannot be established statically.
  bool equalRankAndElem(const Type &Other) const {
    return Elem == Other.Elem && Shape.size() == Other.Shape.size();
  }

  bool operator==(const Type &Other) const {
    return Unique == Other.Unique && equalModuloUniqueness(Other);
  }
  bool operator!=(const Type &Other) const { return !(*this == Other); }

  std::string str() const {
    std::string S = Unique ? "*" : "";
    for (const Dim &D : Shape) {
      S += '[';
      S += D.str();
      S += ']';
    }
    S += scalarKindName(Elem);
    return S;
  }
};

/// A name binding with its type: function/lambda parameters and the
/// left-hand sides of let patterns.
struct Param {
  VName Name;
  Type Ty;

  Param() = default;
  Param(VName Name, Type Ty) : Name(std::move(Name)), Ty(std::move(Ty)) {}

  std::string str() const { return Name.str() + ": " + Ty.str(); }
};

} // namespace fut

#endif // FUTHARKCC_IR_TYPE_H
