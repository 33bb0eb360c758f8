//===- Simplify.h - The simplification engine -------------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "simplification engine" of Fig 3: constant folding, algebraic
/// rewrites, copy propagation, common-subexpression elimination, dead-code
/// removal and hoisting of invariant bindings out of loops and SOAC
/// lambdas (let-floating).  Also function inlining, which the pipeline runs
/// before fusion so that the fusion engine sees whole dataflow graphs.
///
/// All expressions in the core language are pure (in-place updates consume
/// their source, so each binding still denotes a value), which makes every
/// one of these rewrites unconditionally sound on uniqueness-checked
/// programs.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_OPT_SIMPLIFY_H
#define FUTHARKCC_OPT_SIMPLIFY_H

#include "ir/IR.h"

namespace fut {

/// Simplifies every function in the program; returns the number of
/// individual rewrites applied (also recorded on the trace session as the
/// "simplify.rewrites" counter).
int simplifyProgram(Program &P, NameSource &Names);

/// Simplifies one body in place (used by passes on nested code); returns
/// the number of rewrites applied.
int simplifyBody(Body &B, NameSource &Names);

/// Inlines all calls to non-recursive functions, bottom-up.  After this,
/// the entry function is typically call-free.
void inlineFunctions(Program &P, NameSource &Names);

/// Removes functions unreachable from "main" or any of \p ExtraRoots
/// (e.g. a function about to be differentiated by --vjp, which must
/// survive dead-function elimination even if main never calls it).
void removeDeadFunctions(Program &P,
                         const std::vector<std::string> &ExtraRoots = {});

} // namespace fut

#endif // FUTHARKCC_OPT_SIMPLIFY_H
