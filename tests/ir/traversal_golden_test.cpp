//===- traversal_golden_test.cpp - Pins the IR traversals on a corpus -----===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what the generic IR traversals compute on a fixed corpus: the 16
/// suite programs, fuzz seeds 1..300, gradient-fuzz seeds 1..150 and one
/// program with a call and a reshape (the two kinds the others never
/// produce), each captured after every compiler pass through
/// CompilerOptions::PostPassHook.
/// For every statement, at every nesting depth, it records
///
///  * the operand sequence forEachFreeOperand yields,
///  * the sorted free variables of the expression,
///  * the printed alpha-renaming of the statement from a fixed NameSource,
///  * the printed result of one fixed substitution (every free name of the
///    statement mapped to a primed copy),
///
/// and, per body, which pairs of CSE-able statements compare structurally
/// equal.  The records are hashed per expression kind and compared with
/// constants computed when each traversal was still written out by hand
/// per kind, so a derived traversal that visits a field in another order,
/// misses one or visits one too many fails here, naming the kinds it
/// changes.
///
//===----------------------------------------------------------------------===//

#include "bench_suite/Benchmarks.h"
#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "fuzz/GradFuzz.h"
#include "ir/Printer.h"
#include "ir/Traversal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <utility>

using namespace fut;

namespace {

constexpr size_t kNumKinds = static_cast<size_t>(ExpKind::Kernel) + 1;

/// Reaches `apply` (until inlining) and `reshape`, inside a kernel.
const char *kCallAndReshape =
    "fun helper (x: i32) (ys: [4]i32): i32 = x * 3 + ys[0]\n"
    "fun main (n: i32) (m: i32) (xs0: [n]i32): [n]i32 =\n"
    "  map (\\(i: i32): i32 ->\n"
    "         let xs = map (\\(j: i32): i32 -> xs0[i] + j) (iota 4)\n"
    "         let ys = reshape (m, 2) xs\n"
    "         in helper (reduce (+) 0 (map (\\(r: [2]i32): i32 -> "
    "r[0] + r[1]) ys)) xs) (iota n)\n";

/// 64-bit FNV-1a, so the pinned values do not depend on std::hash.
struct Fnv {
  uint64_t H = 0xcbf29ce484222325ULL;

  void add(const std::string &S) {
    for (char C : S) {
      H ^= static_cast<unsigned char>(C);
      H *= 0x100000001b3ULL;
    }
    H ^= 0xff; // record separator
    H *= 0x100000001b3ULL;
  }
};

struct Golden {
  std::array<Fnv, kNumKinds> PerKind;
  std::array<size_t, kNumKinds> Count{};
  Fnv Cse;
  size_t EqualPairs = 0;

  void program(const Program &P) {
    for (const FunDef &F : P.Funs)
      body(F.FBody);
  }

  void body(const Body &B) {
    std::string Pairs;
    for (size_t I = 0; I < B.Stms.size(); ++I) {
      const Exp &A = *B.Stms[I].E;
      if (!expIsCSEable(A))
        continue;
      for (size_t J = I + 1; J < B.Stms.size(); ++J)
        if (expIsCSEable(*B.Stms[J].E) &&
            expsStructurallyEqual(A, *B.Stms[J].E)) {
          Pairs += std::to_string(I) + "=" + std::to_string(J) + ";";
          ++EqualPairs;
        }
    }
    Cse.add(std::to_string(B.Stms.size()) + ":" + Pairs);

    for (const Stm &S : B.Stms) {
      stm(S);
      forEachChildBody(*S.E, [&](const Body &Inner) { body(Inner); });
    }
  }

  void stm(const Stm &S) {
    const Exp &E = *S.E;
    std::string Line;
    forEachFreeOperand(E, [&](const SubExp &Op) { Line += Op.str() + " "; });
    Line += "|";

    NameSet Free = freeVarsInExp(E);
    std::vector<VName> Sorted(Free.begin(), Free.end());
    std::sort(Sorted.begin(), Sorted.end());
    for (const VName &N : Sorted)
      Line += N.str() + " ";
    Line += "|";

    Body One;
    One.Stms.push_back(S);
    for (const Param &P : S.Pat)
      One.Result.push_back(SubExp::var(P.Name));
    NameSource Fixed;
    Line += printBody(renameBody(One, Fixed));
    Line += "|";

    NameMap<SubExp> Primed;
    for (const VName &N : freeVarsInBody(One))
      Primed[N] = SubExp::var(VName(N.Base + "'", N.Tag));
    substituteInBody(Primed, One);
    Line += printBody(One);

    size_t K = static_cast<size_t>(E.kind());
    PerKind[K].add(Line);
    ++Count[K];
  }
};

/// Per-kind hashes, in ExpKind order.
constexpr std::array<uint64_t, kNumKinds> kPinnedPerKind = {
    0xf51bcd531da98246ULL, 0xa1042a27818162dbULL, 0x95d9e420d9d58fa9ULL,
    0xc660401642ad924dULL, 0x6ec35d52f8d49dcbULL, 0xd1956b345613effcULL,
    0x002d7b673636c7e0ULL, 0x415149a2a50474f8ULL, 0x3ce8d5c460eabe0bULL,
    0x3f9ce252c57a4899ULL, 0x3bd268b164e60a66ULL, 0x6928651d90efbf8dULL,
    0xf7f0729fe2d6c521ULL, 0xf73e745752f0c93fULL, 0xc9f1795fd3543011ULL,
    0xb4e670bf1c049160ULL, 0xf204db363781c23cULL, 0xf0c133d5bcba0360ULL,
    0x646e2c953e639ee2ULL, 0x9cb72e7793b0786cULL, 0x1bee658d9cd5986eULL,
    0xd2b3f5d4c5779f1aULL,
};
constexpr uint64_t kPinnedCse = 0x1e2ad1025569aa30ULL;

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof Buf, "0x%016llxULL",
                static_cast<unsigned long long>(V));
  return Buf;
}

TEST(TraversalGolden, CorpusAtEveryPassBoundary) {
  Golden G;
  auto Capture = [&](const std::string &Source, CompilerOptions Opts) {
    Opts.PostPassHook = [&](Program &P, const std::string &) {
      G.program(P);
    };
    NameSource Names;
    (void)compileSource(Source, Names, Opts);
  };

  for (const bench::BenchmarkDef &B : bench::allBenchmarks())
    Capture(B.Source, {});
  for (uint64_t Seed = 1; Seed <= 300; ++Seed)
    Capture(fuzz::generate(Seed).Source, {});
  CompilerOptions Grad;
  Grad.VJP = "main";
  for (uint64_t Seed = 1; Seed <= 150; ++Seed)
    Capture(fuzz::generateGrad(Seed).Source, Grad);
  Capture(kCallAndReshape, {});

  for (size_t K = 0; K < kNumKinds; ++K) {
    const char *Name = expKindName(static_cast<ExpKind>(K));
    EXPECT_GT(G.Count[K], 0u) << "the corpus never reaches " << Name;
    EXPECT_EQ(hex(G.PerKind[K].H), hex(kPinnedPerKind[K]))
        << "traversal results changed for " << Name << " (" << G.Count[K]
        << " statements)";
  }
  EXPECT_GT(G.EqualPairs, 0u) << "no CSE-equal pair: the check is vacuous";
  EXPECT_EQ(hex(G.Cse.H), hex(kPinnedCse))
      << "expsStructurallyEqual changed (" << G.EqualPairs << " pairs)";
}

} // namespace
