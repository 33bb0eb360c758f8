//===- Value.h - Runtime values ---------------------------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime values for the reference interpreter and the GPU simulator: a
/// scalar PrimValue, or a regular multi-dimensional array stored flat in
/// row-major order.  Array payloads are shared (copy-on-write) so that
/// aliasing is cheap and in-place updates of uniquely-held arrays are O(1) —
/// the operational counterpart of the paper's uniqueness types.  The
/// interpreter moves a consumed array out of its binding, so the payload an
/// accepted update mutates is uniquely held.
///
/// EnvView is the read-only window onto the interpreter's bindings that its
/// hooks receive.  It lives here, not in Interp.h, so the GPU simulator can
/// read host arrays without depending on the interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_INTERP_VALUE_H
#define FUTHARKCC_INTERP_VALUE_H

#include "ir/Prim.h"
#include "ir/Type.h"

#include <memory>
#include <string>
#include <vector>

namespace fut {

class Value {
  bool Scalar = true;
  PrimValue SVal;
  ScalarKind Elem = ScalarKind::I32;
  std::vector<int64_t> Shape;
  std::shared_ptr<std::vector<PrimValue>> Data;

public:
  Value() = default;

  static Value scalar(PrimValue V) {
    Value Out;
    Out.Scalar = true;
    Out.SVal = V;
    return Out;
  }

  static Value array(ScalarKind Elem, std::vector<int64_t> Shape,
                     std::vector<PrimValue> Data) {
    Value Out;
    Out.Scalar = false;
    Out.Elem = Elem;
    Out.Shape = std::move(Shape);
    Out.Data = std::make_shared<std::vector<PrimValue>>(std::move(Data));
    int64_t N = 1;
    for (int64_t D : Out.Shape)
      N *= D;
    assert(static_cast<int64_t>(Out.Data->size()) == N &&
           "array payload does not match shape");
    return Out;
  }

  /// An array filled with zeroes (or a given fill value).
  static Value filledArray(ScalarKind Elem, std::vector<int64_t> Shape,
                           PrimValue Fill) {
    int64_t N = 1;
    for (int64_t D : Shape)
      N *= D;
    return array(Elem, std::move(Shape),
                 std::vector<PrimValue>(static_cast<size_t>(N), Fill));
  }

  bool isScalar() const { return Scalar; }
  bool isArray() const { return !Scalar; }

  const PrimValue &getScalar() const {
    assert(Scalar && "not a scalar value");
    return SVal;
  }

  ScalarKind elemKind() const { return Scalar ? SVal.kind() : Elem; }
  const std::vector<int64_t> &shape() const {
    assert(!Scalar && "scalar has no shape");
    return Shape;
  }
  int rank() const { return Scalar ? 0 : static_cast<int>(Shape.size()); }

  int64_t outerSize() const {
    assert(!Scalar && !Shape.empty() && "no outer dimension");
    return Shape[0];
  }

  int64_t numElems() const {
    if (Scalar)
      return 1;
    int64_t N = 1;
    for (int64_t D : Shape)
      N *= D;
    return N;
  }

  /// Size in elements of one row (product of inner dimensions).
  int64_t rowElems() const {
    assert(!Scalar && !Shape.empty());
    int64_t N = 1;
    for (size_t I = 1; I < Shape.size(); ++I)
      N *= Shape[I];
    return N;
  }

  const std::vector<PrimValue> &flat() const {
    assert(!Scalar && "scalar has no payload");
    return *Data;
  }

  /// Mutable access to the payload; copies it first if shared.
  std::vector<PrimValue> &flatMut() {
    assert(!Scalar && "scalar has no payload");
    if (Data.use_count() > 1)
      Data = std::make_shared<std::vector<PrimValue>>(*Data);
    return *Data;
  }

  /// True if the payload is exclusively held (an in-place update is O(1)).
  bool uniquelyHeld() const { return Scalar || Data.use_count() == 1; }

  /// Flat row-major offset of a full index.
  int64_t flatIndex(const std::vector<int64_t> &Index) const {
    assert(Index.size() == Shape.size() && "index rank mismatch");
    int64_t Off = 0;
    for (size_t I = 0; I < Index.size(); ++I) {
      assert(Index[I] >= 0 && Index[I] < Shape[I] && "index out of bounds");
      Off = Off * Shape[I] + Index[I];
    }
    return Off;
  }

  bool inBounds(const std::vector<int64_t> &Index) const {
    if (Index.size() > Shape.size())
      return false;
    for (size_t I = 0; I < Index.size(); ++I)
      if (Index[I] < 0 || Index[I] >= Shape[I])
        return false;
    return true;
  }

  PrimValue at(const std::vector<int64_t> &Index) const {
    return (*Data)[flatIndex(Index)];
  }

  /// Reads a full row / subarray at a partial index (copies the slice).
  Value slice(const std::vector<int64_t> &Prefix) const;

  /// The row at index I of the outer dimension.
  Value row(int64_t I) const { return slice({I}); }

  /// Element-wise equality (exact, including kinds and shape).  Floats
  /// compare with PrimValue's ==: NaN differs from itself and +0 equals -0.
  /// Output checks use firstDifference instead.
  bool operator==(const Value &Other) const;
  bool operator!=(const Value &Other) const { return !(*this == Other); }

  /// Approximate equality with relative/absolute tolerance on floats.
  bool approxEqual(const Value &Other, double RelTol = 1e-5,
                   double AbsTol = 1e-8) const;

  std::string str() const;
};

/// The bindings visible at one point of an interpreted program.
class EnvView {
public:
  /// The value bound to \p N, or null when \p N is unbound or consumed.
  virtual const Value *find(const VName &N) const = 0;

protected:
  ~EnvView() = default;
};

/// The one output comparison of every compiled-vs-reference check.
/// Returns "" when \p Got agrees with \p Want, else a message that names
/// the first differing output and prints both values.  Agreement is
/// exact: the same arity, kinds and shapes, and equal elements, where two
/// floats agree when both are NaN or when they are equal with the same
/// sign bit.  A positive \p RelTol[J] lets float output J differ instead
/// by at most that error relative to the larger magnitude; it must be
/// declared only where the compiler may legitimately reassociate float
/// arithmetic.
std::string firstDifference(const std::vector<Value> &Got,
                            const std::vector<Value> &Want,
                            const std::vector<double> &RelTol = {});

/// Builds a rank-1 value from a vector of doubles/ints with a given kind.
Value makeVectorValue(ScalarKind K, const std::vector<double> &Xs);
Value makeIntVectorValue(ScalarKind K, const std::vector<int64_t> &Xs);
/// Builds a rank-2 value (RxC) from row-major doubles.
Value makeMatrixValue(ScalarKind K, int64_t R, int64_t C,
                      const std::vector<double> &Xs);

} // namespace fut

#endif // FUTHARKCC_INTERP_VALUE_H
