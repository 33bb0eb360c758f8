//===- Flags.h - Command-line flag tables -----------------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one command-line parser of the futharkcc tools.  A tool declares
/// each flag once, in a table that both parses argv and prints --help, and
/// the same rules hold for every tool: a value flag takes `--flag value`
/// (the next token, even one starting with '-') or `--flag=value`; a
/// missing, empty or rejected value, an unknown option or a wrong number
/// of positional arguments prints the usage and exits 2; `--help` and
/// `-h` exit 0.  Setters run once argv is read, Early flags (a device
/// preset) first, so later flags refine a preset from either side of it.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_SUPPORT_FLAGS_H
#define FUTHARKCC_SUPPORT_FLAGS_H

#include "support/Utils.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace fut {
namespace cli {

/// One flag of a tool.  Meta names the value ("<n>"); a flag without one
/// is a switch.  Set takes the value ("" for a switch) and returns false
/// when it rejects it.
struct Flag {
  std::string Name;
  std::string Meta;
  std::string Help;
  std::function<bool(const std::string &)> Set;
  /// Set runs before the setters of all other flags.
  bool Early = false;
  /// When set, the flag is a switch that ends the flags: every later
  /// argument goes to *Rest.
  std::vector<std::string> *Rest = nullptr;
};

/// A switch that stores \p To in \p Target.
inline Flag toggle(std::string Name, std::string Help, bool &Target,
                   bool To = true) {
  return {Name, "", Help, [&Target, To](auto &) { return Target = To, true; }};
}

/// A value flag that stores its value in \p Target.
inline Flag text(std::string Name, std::string Meta, std::string Help,
                 std::string &Target) {
  return {Name, Meta, Help, [&Target](auto &V) { return Target = V, true; }};
}

/// A numeric flag, read by parseNumArg into \p Target; a value below
/// \p Min is rejected too.
template <typename T>
Flag number(std::string Name, std::string Meta, std::string Help, T &Target,
            T Min = std::numeric_limits<T>::lowest()) {
  return {Name, Meta, Help, [&Target, Min](auto &V) {
            return parseNumArg(V, Target) && Target >= Min;
          }};
}

/// What a tool is called with: its flags and its positional arguments.
struct Command {
  /// The usage line after "usage: ".
  std::string Synopsis = {};
  /// Printed between the usage line and the flags; may be empty.
  std::string About = {};
  std::vector<Flag> Flags = {};
  /// Where positional arguments go, and how many there must be.
  std::vector<std::string> *Args = nullptr;
  size_t MinArgs = 0, MaxArgs = 0;

  /// Prints the usage: the synopsis, About, and each flag with its help
  /// wrapped to 79 columns.
  void usage() const {
    fprintf(stderr, "usage: %s\n%s", Synopsis.c_str(), About.c_str());
    size_t Col = 0;
    for (const Flag &F : Flags)
      Col = std::max(Col, F.Name.size() + F.Meta.size() + 5);
    for (const Flag &F : Flags) {
      std::string Line = "  " + F.Name + (F.Meta.empty() ? "" : " ") + F.Meta;
      std::istringstream Words(F.Help);
      bool First = true;
      for (std::string W; Words >> W; First = false) {
        if (!First && Line.size() + 1 + W.size() > 79) {
          fprintf(stderr, "%s\n", Line.c_str());
          Line.clear();
        }
        Line.resize(std::max(Line.size() + !First, Col), ' ');
        Line += W;
      }
      fprintf(stderr, "%s\n", Line.c_str());
    }
  }

  /// Prints \p Why and the usage; returns the usage-error exit code, 2.
  int usageError(const std::string &Why) const {
    fprintf(stderr, "%s\n", Why.c_str());
    usage();
    return 2;
  }

  /// Reads \p Argv once and applies it.  Returns the exit code the tool
  /// should stop with (0 after --help, 2 on a usage error), or nullopt
  /// when it should go on.
  std::optional<int> parse(int Argc, char **Argv) const {
    std::vector<std::pair<const Flag *, std::string>> Given;
    std::vector<std::string> Positional;
    for (int I = 1; I < Argc; ++I) {
      std::string A = Argv[I];
      if (A == "--help" || A == "-h") {
        usage();
        return 0;
      }
      if (A.size() < 2 || A[0] != '-') {
        Positional.push_back(A);
        continue;
      }
      size_t Eq = A.find('=');
      std::string Name = A.substr(0, Eq);
      auto F = std::find_if(Flags.begin(), Flags.end(),
                            [&](const Flag &G) { return G.Name == Name; });
      if (F == Flags.end() ||
          (Eq != std::string::npos && (F->Meta.empty() || F->Rest)))
        return usageError("unknown option '" + A + "'");
      if (F->Rest) {
        Given.emplace_back(&*F, "");
        F->Rest->assign(Argv + I + 1, Argv + Argc);
        break;
      }
      std::string V;
      if (Eq != std::string::npos)
        V = A.substr(Eq + 1);
      else if (!F->Meta.empty() && I + 1 < Argc)
        V = Argv[++I];
      if (!F->Meta.empty() && V.empty())
        return usageError("missing value for " + Name);
      Given.emplace_back(&*F, V);
    }
    if (Positional.size() < MinArgs || Positional.size() > MaxArgs)
      return usageError(
          Positional.size() > MaxArgs
              ? "unexpected argument '" + Positional[MaxArgs] + "'"
              : "missing argument");
    if (Args)
      *Args = std::move(Positional);
    std::stable_partition(Given.begin(), Given.end(),
                          [](const auto &G) { return G.first->Early; });
    for (const auto &[F, V] : Given)
      if (!F->Set(V))
        return usageError("invalid value '" + V + "' for " + F->Name);
    return std::nullopt;
  }
};

} // namespace cli
} // namespace fut

#endif // FUTHARKCC_SUPPORT_FLAGS_H
