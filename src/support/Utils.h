//===- Utils.h - Small string/sequence helpers ------------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String-joining, hashing and command-line number parsing helpers shared
/// across the compiler and its tools.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_SUPPORT_UTILS_H
#define FUTHARKCC_SUPPORT_UTILS_H

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace fut {

/// Joins the str()/to_string representations produced by \p Fn over \p Items
/// with \p Sep between elements.
template <typename Seq, typename Fn>
std::string joinMapped(const Seq &Items, const char *Sep, Fn Format) {
  std::string Out;
  bool First = true;
  for (const auto &Item : Items) {
    if (!First)
      Out += Sep;
    First = false;
    Out += Format(Item);
  }
  return Out;
}

/// Combines a hash value into a running seed (boost::hash_combine style).
inline void hashCombine(size_t &Seed, size_t Value) {
  Seed ^= Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2);
}

/// 64-bit FNV-1a over a byte string.  Used for content-addressing compiled
/// artifacts: platform-independent and stable across processes, unlike
/// std::hash.
inline uint64_t fnv1a64(const std::string &S,
                        uint64_t H = 0xcbf29ce484222325ULL) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// Parses a numeric command-line argument into \p Out, strictly: the whole
/// of \p S must be one finite number, with no surrounding text.  An
/// integral \p Out also demands a whole value in its range; decimal digits
/// are read exactly, and `1e9`-style doubles are accepted when they are
/// whole.  On failure \p Out is left untouched.
template <typename T> bool parseNumArg(const std::string &S, T &Out) {
  const char *Begin = S.c_str(), *End = Begin + S.size();
  if constexpr (std::is_integral_v<T>) {
    T V;
    auto [Ptr, Ec] = std::from_chars(Begin, End, V);
    if (Ec == std::errc() && Ptr == End) {
      Out = V;
      return true;
    }
  }
  if (S.empty() || std::isspace(static_cast<unsigned char>(S[0])))
    return false;
  char *Stop = nullptr;
  errno = 0;
  double D = std::strtod(Begin, &Stop);
  if (Stop != End || errno == ERANGE || !std::isfinite(D))
    return false;
  if constexpr (std::is_integral_v<T>) {
    const double Lim = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (D != std::floor(D) || D >= Lim || D < (std::is_signed_v<T> ? -Lim : 0))
      return false;
  }
  Out = static_cast<T>(D);
  return true;
}

/// A deterministic splitmix64-based PRNG used by tests and workload
/// generators so results are reproducible across platforms.
class SplitMix64 {
  uint64_t State;

public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Uniform in [0, Bound).
  uint64_t nextBelow(uint64_t Bound) { return Bound ? next() % Bound : 0; }

  /// Uniform double in [0, 1).
  double nextDouble() { return (next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [Lo, Hi).
  double nextDouble(double Lo, double Hi) {
    return Lo + (Hi - Lo) * nextDouble();
  }
};

} // namespace fut

#endif // FUTHARKCC_SUPPORT_UTILS_H
