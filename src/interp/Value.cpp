//===- Value.cpp - Runtime values ------------------------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "interp/Value.h"

#include <cmath>
#include <iomanip>
#include <sstream>

using namespace fut;

Value Value::slice(const std::vector<int64_t> &Prefix) const {
  assert(!Scalar && "cannot slice a scalar");
  assert(Prefix.size() <= Shape.size() && "slice rank too deep");
  if (Prefix.size() == Shape.size())
    return Value::scalar(at(Prefix));

  // Compute the contiguous range covered by the prefix.
  int64_t InnerElems = 1;
  for (size_t I = Prefix.size(); I < Shape.size(); ++I)
    InnerElems *= Shape[I];
  int64_t Off = 0;
  for (size_t I = 0; I < Prefix.size(); ++I) {
    assert(Prefix[I] >= 0 && Prefix[I] < Shape[I] && "slice out of bounds");
    Off = Off * Shape[I] + Prefix[I];
  }
  Off *= InnerElems;

  std::vector<int64_t> NewShape(Shape.begin() + Prefix.size(), Shape.end());
  std::vector<PrimValue> NewData(Data->begin() + Off,
                                 Data->begin() + Off + InnerElems);
  return Value::array(Elem, std::move(NewShape), std::move(NewData));
}

bool Value::operator==(const Value &Other) const {
  if (Scalar != Other.Scalar)
    return false;
  if (Scalar)
    return SVal == Other.SVal;
  return Elem == Other.Elem && Shape == Other.Shape && *Data == *Other.Data;
}

namespace {

/// Whether \p A agrees with \p B under a relative tolerance (0: exact).
/// An infinity agrees only with the same infinity.
bool primAgrees(const PrimValue &A, const PrimValue &B, double RelTol) {
  if (A.kind() != B.kind())
    return false;
  if (!A.isFloat())
    return A == B;
  double X = A.getFloat(), Y = B.getFloat();
  if (std::isnan(X) || std::isnan(Y))
    return std::isnan(X) && std::isnan(Y);
  if (X == Y && std::signbit(X) == std::signbit(Y))
    return true;
  return RelTol > 0 && std::isfinite(X) && std::isfinite(Y) &&
         std::fabs(X - Y) <= RelTol * std::fmax(std::fabs(X), std::fabs(Y));
}

bool primApproxEqual(const PrimValue &A, const PrimValue &B, double RelTol,
                     double AbsTol) {
  return primAgrees(A, B, RelTol) ||
         (A.kind() == B.kind() && A.isFloat() &&
          std::fabs(A.getFloat() - B.getFloat()) <= AbsTol);
}

} // namespace

bool Value::approxEqual(const Value &Other, double RelTol,
                        double AbsTol) const {
  if (Scalar != Other.Scalar)
    return false;
  if (Scalar)
    return primApproxEqual(SVal, Other.SVal, RelTol, AbsTol);
  if (Elem != Other.Elem || Shape != Other.Shape)
    return false;
  for (size_t I = 0; I < Data->size(); ++I)
    if (!primApproxEqual((*Data)[I], (*Other.Data)[I], RelTol, AbsTol))
      return false;
  return true;
}

namespace {

/// \p V at full precision, so that a 1-ulp difference shows.
std::string exactStr(const PrimValue &V) {
  if (!V.isFloat())
    return V.str();
  std::ostringstream OS;
  OS << std::setprecision(V.kind() == ScalarKind::F32 ? 9 : 17)
     << V.getFloat() << (V.kind() == ScalarKind::F32 ? "f32" : "f64");
  return OS.str();
}

} // namespace

std::string fut::firstDifference(const std::vector<Value> &Got,
                                 const std::vector<Value> &Want,
                                 const std::vector<double> &RelTol) {
  if (Got.size() != Want.size())
    return "got " + std::to_string(Got.size()) + " outputs, want " +
           std::to_string(Want.size());
  for (size_t J = 0; J < Want.size(); ++J) {
    const Value &G = Got[J], &W = Want[J];
    double Tol = J < RelTol.size() ? RelTol[J] : 0;
    std::string Where;
    if (G.isScalar() != W.isScalar() || G.elemKind() != W.elemKind() ||
        (G.isArray() && G.shape() != W.shape())) {
      Where = "in kind or shape";
    } else if (G.isScalar()) {
      if (!primAgrees(G.getScalar(), W.getScalar(), Tol))
        Where = "(" + exactStr(G.getScalar()) + " vs " +
                exactStr(W.getScalar()) + ")";
    } else {
      for (size_t I = 0; I < W.flat().size() && Where.empty(); ++I)
        if (!primAgrees(G.flat()[I], W.flat()[I], Tol))
          Where = "at flat element " + std::to_string(I) + " (" +
                  exactStr(G.flat()[I]) + " vs " + exactStr(W.flat()[I]) +
                  ")";
    }
    if (!Where.empty())
      return "output " + std::to_string(J) + " differs " + Where +
             "\n  got:  " + G.str() + "\n  want: " + W.str();
  }
  return "";
}

std::string Value::str() const {
  if (Scalar)
    return SVal.str();
  std::ostringstream OS;
  // Print rank-1 inline; higher ranks as nested rows (possibly truncated).
  const int64_t MaxShown = 32;
  if (Shape.size() == 1) {
    OS << "[";
    for (int64_t I = 0; I < Shape[0] && I < MaxShown; ++I) {
      if (I)
        OS << ", ";
      OS << (*Data)[I].str();
    }
    if (Shape[0] > MaxShown)
      OS << ", ...";
    OS << "]";
    return OS.str();
  }
  OS << "[";
  for (int64_t I = 0; I < Shape[0] && I < MaxShown; ++I) {
    if (I)
      OS << ",\n ";
    OS << row(I).str();
  }
  if (Shape[0] > MaxShown)
    OS << ", ...";
  OS << "]";
  return OS.str();
}

Value fut::makeVectorValue(ScalarKind K, const std::vector<double> &Xs) {
  std::vector<PrimValue> Data;
  Data.reserve(Xs.size());
  for (double X : Xs) {
    switch (K) {
    case ScalarKind::F32:
      Data.push_back(PrimValue::makeF32(static_cast<float>(X)));
      break;
    case ScalarKind::F64:
      Data.push_back(PrimValue::makeF64(X));
      break;
    case ScalarKind::I32:
      Data.push_back(PrimValue::makeI32(static_cast<int32_t>(X)));
      break;
    case ScalarKind::I64:
      Data.push_back(PrimValue::makeI64(static_cast<int64_t>(X)));
      break;
    case ScalarKind::Bool:
      Data.push_back(PrimValue::makeBool(X != 0));
      break;
    }
  }
  return Value::array(K, {static_cast<int64_t>(Xs.size())}, std::move(Data));
}

Value fut::makeIntVectorValue(ScalarKind K, const std::vector<int64_t> &Xs) {
  std::vector<PrimValue> Data;
  Data.reserve(Xs.size());
  for (int64_t X : Xs)
    Data.push_back(K == ScalarKind::I64 ? PrimValue::makeI64(X)
                                        : PrimValue::makeI32(
                                              static_cast<int32_t>(X)));
  return Value::array(K, {static_cast<int64_t>(Xs.size())}, std::move(Data));
}

Value fut::makeMatrixValue(ScalarKind K, int64_t R, int64_t C,
                           const std::vector<double> &Xs) {
  assert(static_cast<int64_t>(Xs.size()) == R * C && "bad matrix payload");
  Value V = makeVectorValue(K, Xs);
  std::vector<PrimValue> Data = V.flat();
  return Value::array(K, {R, C}, std::move(Data));
}
