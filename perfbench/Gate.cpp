//===- Gate.cpp - The benchmark's correctness gate ------------------------===//
//
// Part of futharkcc's two-clock benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "Gate.h"

using namespace perfbench;

bool Gate::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (Messages.size() < 8)
      Messages.push_back(What);
  }
  return Ok;
}

bool perfbench::sameOutputs(const std::vector<fut::Value> &Got,
                            const std::vector<fut::Value> &Want,
                            Compare How) {
  if (Got.size() != Want.size())
    return false;
  for (size_t I = 0; I < Got.size(); ++I) {
    bool Same = How == Compare::Exact ? Got[I] == Want[I]
                                      : Got[I].approxEqual(Want[I], 1e-4, 1e-5);
    if (!Same)
      return false;
  }
  return true;
}
