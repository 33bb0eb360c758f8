//===- Traversal.h - IR walking, free variables, renaming ------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generic traversal utilities over the core IR: free-variable computation,
/// capture-free substitution of names by operands (including inside the
/// symbolic dimensions of types), and alpha-renaming used when lambdas and
/// bodies are duplicated by fusion, inlining and flattening.  All of them
/// are derived from the expression field lists (ir/Fields.h).
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_IR_TRAVERSAL_H
#define FUTHARKCC_IR_TRAVERSAL_H

#include "ir/Fields.h"

namespace fut {

/// Invokes \p Use on every operand SubExp of \p E itself (not of nested
/// bodies): operand fields, array names wrapped as variables and the
/// dimensions of type fields, in field order.
template <class F> void forEachFreeOperand(const Exp &E, F &&Use) {
  forEachField(E, [&](auto R, const auto &Field, bool Present) {
    if (!Present)
      return;
    forEachOperandSlot(R, Field, [&](const auto &Slot) {
      using T = std::decay_t<decltype(Slot)>;
      if constexpr (std::is_same_v<T, SubExp>)
        Use(Slot);
      else if constexpr (std::is_same_v<T, VName>)
        Use(SubExp::var(Slot));
      else
        for (const Dim &D : Slot.shape())
          Use(D);
    });
  });
}

/// Invokes \p Fn on every nested Body of \p E (if/loop bodies, lambda
/// bodies, kernel thread bodies), absent lambdas included, so that a pass
/// rewriting bodies leaves none stale; constness carries from \p E.
template <class X, class F> void forEachChildBody(X &E, F &&Fn) {
  forEachField(E, [&](auto R, auto &Field, bool) {
    if constexpr (R == Role::Body)
      Fn(Field);
    else if constexpr (R == Role::Lambda)
      Fn(Field.B);
  });
}

/// Invokes \p Fn on every present lambda of \p E (SOAC and kernel
/// operators).
template <class X, class F> void forEachLambda(X &E, F &&Fn) {
  forEachField(E, [&](auto R, auto &Field, bool Present) {
    if constexpr (R == Role::Lambda)
      if (Present)
        Fn(Field);
  });
}

/// Invokes \p Fn on every name \p E binds for its nested bodies: loop
/// indices and merge parameters, kernel thread and segment indices, and
/// lambda parameters.
template <class F> void forEachBoundName(const Exp &E, F &&Fn) {
  forEachField(E, [&](auto R, const auto &Field, bool Present) {
    if (!Present)
      return;
    if constexpr (R == Role::Binder)
      forEachElem(Field, [&](const auto &B) { Fn(boundName(B)); });
    else if constexpr (R == Role::Lambda)
      for (const Param &P : Field.Params)
        Fn(P.Name);
  });
}

/// Free variables (both scalar and array uses, and uses inside nested
/// bodies and types).
NameSet freeVarsInExp(const Exp &E);
NameSet freeVarsInBody(const Body &B);
NameSet freeVarsInLambda(const Lambda &L);

/// Capture-free substitution.  Every free occurrence of a key is replaced by
/// its mapped operand; occurrences in positions that require a variable
/// (array operands, update targets) assert that the operand is a variable.
/// Also rewrites symbolic dimensions inside types.
void substituteInBody(const NameMap<SubExp> &Subst, Body &B);
void substituteInExp(const NameMap<SubExp> &Subst, Exp &E);
void substituteInLambda(const NameMap<SubExp> &Subst, Lambda &L);
Type substituteInType(const NameMap<SubExp> &Subst, const Type &T);

/// Alpha-renames every name bound inside the body/lambda/exp to a fresh one
/// (free names are rewritten through \p Outer).  Used when cloning code.
Body renameBody(const Body &B, NameSource &Names,
                const NameMap<SubExp> &Outer = {});
Lambda renameLambda(const Lambda &L, NameSource &Names,
                    const NameMap<SubExp> &Outer = {});

/// Ensures every tag in \p P is unique, renaming where needed; also makes
/// \p Names produce tags above anything in \p P.
void uniquifyProgram(Program &P, NameSource &Names);

/// A shallow structural hash/equality for CSE: the operand sequence of
/// forEachFreeOperand and the payload fields.  Types count by their
/// dimensions only.  Expressions that are not CSE-able never compare equal.
size_t hashExpShallow(const Exp &E);
bool expsStructurallyEqual(const Exp &A, const Exp &B);
/// True if \p E has no nested body or binder and is not a call, an in-place
/// update or a copy (each of which must stay distinct).
bool expIsCSEable(const Exp &E);

} // namespace fut

#endif // FUTHARKCC_IR_TRAVERSAL_H
