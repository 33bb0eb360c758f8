//===- Fields.h - The kind dispatch and generic field access ---*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one switch over ExpKind that code outside the semantic passes needs,
/// and forEachField on top of it.  Each expression class lists its fields
/// once (`fields` in ir/IR.h), each with a Role and, for a few, a presence
/// condition; forEachField hands them to a callback as (role tag, field,
/// present).  Exp::clone, the traversals of ir/Traversal.h and the
/// artifact codec are derived from it, so adding or changing a field is
/// one edit to its class's list.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_IR_FIELDS_H
#define FUTHARKCC_IR_FIELDS_H

#include "ir/IR.h"

#include <cstdlib>
#include <type_traits>
#include <vector>

namespace fut {

/// Calls Fn(std::type_identity<C>{}) for the expression class C of kind K.
/// Every call must return the same type.
template <class F> decltype(auto) withExpClass(ExpKind K, F &&Fn) {
  switch (K) {
  case ExpKind::SubExpE:
    return Fn(std::type_identity<SubExpExp>{});
  case ExpKind::BinOpE:
    return Fn(std::type_identity<BinOpExp>{});
  case ExpKind::UnOpE:
    return Fn(std::type_identity<UnOpExp>{});
  case ExpKind::ConvOpE:
    return Fn(std::type_identity<ConvOpExp>{});
  case ExpKind::If:
    return Fn(std::type_identity<IfExp>{});
  case ExpKind::Index:
    return Fn(std::type_identity<IndexExp>{});
  case ExpKind::Apply:
    return Fn(std::type_identity<ApplyExp>{});
  case ExpKind::Loop:
    return Fn(std::type_identity<LoopExp>{});
  case ExpKind::Update:
    return Fn(std::type_identity<UpdateExp>{});
  case ExpKind::Iota:
    return Fn(std::type_identity<IotaExp>{});
  case ExpKind::Replicate:
    return Fn(std::type_identity<ReplicateExp>{});
  case ExpKind::Rearrange:
    return Fn(std::type_identity<RearrangeExp>{});
  case ExpKind::Reshape:
    return Fn(std::type_identity<ReshapeExp>{});
  case ExpKind::Concat:
    return Fn(std::type_identity<ConcatExp>{});
  case ExpKind::Copy:
    return Fn(std::type_identity<CopyExp>{});
  case ExpKind::Slice:
    return Fn(std::type_identity<SliceExp>{});
  case ExpKind::Map:
    return Fn(std::type_identity<MapExp>{});
  case ExpKind::Reduce:
    return Fn(std::type_identity<ReduceExp>{});
  case ExpKind::Scan:
    return Fn(std::type_identity<ScanExp>{});
  case ExpKind::Stream:
    return Fn(std::type_identity<StreamExp>{});
  case ExpKind::ReduceByIndex:
    return Fn(std::type_identity<ReduceByIndexExp>{});
  case ExpKind::Kernel:
    return Fn(std::type_identity<KernelExp>{});
  }
  std::abort();
}

/// Calls Fn on \p E cast to its concrete class, keeping E's constness.
template <class X, class F> decltype(auto) visitExp(X &E, F &&Fn) {
  static_assert(std::is_same_v<std::remove_const_t<X>, Exp>);
  return withExpClass(E.kind(), [&](auto Tag) -> decltype(auto) {
    using C = typename decltype(Tag)::type;
    using CQ = std::conditional_t<std::is_const_v<X>, const C, C>;
    return Fn(static_cast<CQ &>(E));
  });
}

namespace detail {
/// Normalises the field-list calls to Fn(role, field, present).
template <class F> struct FieldSink {
  F &Fn;
  template <class R, class T>
  void operator()(R Tag, T &Field, bool Present = true) const {
    Fn(Tag, Field, Present);
  }
};

template <class T> struct IsVector : std::false_type {};
template <class T> struct IsVector<std::vector<T>> : std::true_type {};
} // namespace detail

template <class T>
inline constexpr bool IsVectorV = detail::IsVector<std::remove_cv_t<T>>::value;

/// Calls Fn(role tag, field, present) on every field of \p E in its class's
/// order.  \p E is an Exp, a concrete expression class or another record
/// with a field list (KernelExp::KInput); constness carries to the fields.
template <class X, class F> void forEachField(X &E, F &&Fn) {
  if constexpr (std::is_same_v<std::remove_const_t<X>, Exp>)
    visitExp(E, [&](auto &C) { forEachField(C, Fn); });
  else
    std::remove_const_t<X>::fields(E, detail::FieldSink<F>{Fn});
}

/// Calls Fn on \p X, or on each of its elements when it is a vector.
template <class T, class F> void forEachElem(T &X, F &&Fn) {
  if constexpr (IsVectorV<T>) {
    for (auto &E : X)
      Fn(E);
  } else {
    Fn(X);
  }
}

/// Calls Fn on each operand slot a field holds: a SubExp for operand fields,
/// a VName for array fields and a Type for type fields, recursing into
/// kernel inputs.  Binders, lambdas, bodies and payload hold none.
template <class R, class T, class F>
void forEachOperandSlot(R, T &Field, F &&Fn) {
  constexpr Role Ro = R::value;
  if constexpr (Ro == Role::Operand || Ro == Role::Array || Ro == Role::Type) {
    forEachElem(Field, Fn);
  } else if constexpr (Ro == Role::Inputs) {
    for (auto &In : Field)
      forEachField(In, [&](auto R2, auto &F2, bool) {
        forEachOperandSlot(R2, F2, Fn);
      });
  }
}

/// The name a binder field element binds.
inline const VName &boundName(const VName &N) { return N; }
inline const VName &boundName(const Param &P) { return P.Name; }

} // namespace fut

#endif // FUTHARKCC_IR_FIELDS_H
