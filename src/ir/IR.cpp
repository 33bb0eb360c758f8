//===- IR.cpp - Core IR node implementations -------------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include "ir/Fields.h"

#include <iterator>

using namespace fut;

Exp::~Exp() = default;

const char *fut::expKindName(ExpKind K) {
  // In ExpKind order.
  static const char *const Names[] = {
      "subexp", "binop", "unop", "convop", "if", "index", "apply", "loop",
      "update", "iota", "replicate", "rearrange", "reshape", "concat", "copy",
      "slice", "map", "reduce", "scan", "stream", "reduce_by_index", "kernel"};
  static_assert(std::size(Names) == static_cast<size_t>(ExpKind::Kernel) + 1);
  return Names[static_cast<size_t>(K)];
}

ExpPtr Exp::clone() const {
  return visitExp(*this, [](const auto &X) -> ExpPtr {
    return std::make_unique<std::decay_t<decltype(X)>>(X);
  });
}

Stm::Stm(std::vector<Param> Pat, ExpPtr E)
    : Pat(std::move(Pat)), E(std::move(E)) {}

Stm::Stm(const Stm &Other) : Pat(Other.Pat) {
  if (Other.E)
    E = Other.E->clone();
}

Stm &Stm::operator=(const Stm &Other) {
  if (this == &Other)
    return *this;
  Pat = Other.Pat;
  E = Other.E ? Other.E->clone() : nullptr;
  return *this;
}

Body fut::cloneBody(const Body &B) { return B; }

Lambda fut::cloneLambda(const Lambda &L) { return L; }
