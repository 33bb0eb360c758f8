//===- Spans.cpp - Self time per layer from recorded trace spans ----------===//
//
// Part of futharkcc's two-clock benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>

using namespace perfbench;
using fut::trace::TraceEvent;

namespace {

bool startsWith(const std::string &S, const std::string &Prefix) {
  return S.compare(0, Prefix.size(), Prefix) == 0;
}

} // namespace

std::string perfbench::layerOfSpan(const std::string &Name) {
  if (startsWith(Name, "pass:")) {
    std::string L = Name.substr(5);
    std::replace(L.begin(), L.end(), '-', '_');
    return L;
  }
  if (startsWith(Name, "verify:"))
    return "verify";
  if (Name == "compile")
    return "compile.unattributed";
  if (startsWith(Name, "kernel:"))
    return "kernelsim." + Name.substr(7);
  if (startsWith(Name, "xfer:"))
    return "xfer";
  if (Name == "device-run")
    return "host_runtime";
  if (startsWith(Name, "serve:"))
    return "serve." + Name.substr(6);
  return "";
}

std::vector<SpanSelf>
perfbench::selfTimes(const std::vector<TraceEvent> &Events) {
  std::vector<SpanSelf> Out;
  std::vector<int> Open; // Open[d]: index in Out of the span at depth d.
  for (const TraceEvent &E : Events) {
    if (E.Instant)
      continue;
    SpanSelf S;
    S.Name = E.Name;
    S.StartUs = E.StartUs;
    S.DurUs = E.DurUs;
    S.SelfUs = E.DurUs;
    int D = std::max(0, E.Depth);
    if (D > 0 && static_cast<size_t>(D) <= Open.size())
      S.Parent = Open[D - 1];
    std::string L = layerOfSpan(E.Name);
    S.Layer = !L.empty()        ? L
              : S.Parent >= 0   ? Out[S.Parent].Layer
                                : "other";
    Open.resize(std::min(Open.size(), static_cast<size_t>(D)));
    Open.push_back(static_cast<int>(Out.size()));
    Out.push_back(std::move(S));
  }

  // Subtract the union of each span's child intervals, clipped to its own.
  std::vector<std::vector<int>> Children(Out.size());
  for (size_t I = 0; I < Out.size(); ++I)
    if (Out[I].Parent >= 0)
      Children[Out[I].Parent].push_back(static_cast<int>(I));
  for (size_t I = 0; I < Out.size(); ++I) {
    double Lo = Out[I].StartUs, Hi = Out[I].StartUs + Out[I].DurUs;
    std::vector<std::pair<double, double>> Iv;
    for (int C : Children[I]) {
      double A = std::max(Lo, Out[C].StartUs);
      double B = std::min(Hi, Out[C].StartUs + Out[C].DurUs);
      if (B > A)
        Iv.push_back({A, B});
    }
    std::sort(Iv.begin(), Iv.end());
    double Covered = 0, CurA = 0, CurB = 0;
    bool Have = false;
    for (const auto &[A, B] : Iv) {
      if (Have && A <= CurB) {
        CurB = std::max(CurB, B);
        continue;
      }
      if (Have)
        Covered += CurB - CurA;
      CurA = A;
      CurB = B;
      Have = true;
    }
    if (Have)
      Covered += CurB - CurA;
    Out[I].SelfUs = Out[I].DurUs - Covered;
  }
  return Out;
}

void LayerTotals::add(const std::vector<TraceEvent> &Events) {
  for (const SpanSelf &S : selfTimes(Events)) {
    SelfUs[S.Layer] += S.SelfUs;
    DurUs[S.Name] += S.DurUs;
    ++Count[S.Name];
  }
}

double LayerTotals::self(const std::string &Layer) const {
  auto It = SelfUs.find(Layer);
  return It == SelfUs.end() ? 0 : It->second;
}

double LayerTotals::dur(const std::string &Name) const {
  auto It = DurUs.find(Name);
  return It == DurUs.end() ? 0 : It->second;
}

int64_t LayerTotals::count(const std::string &Name) const {
  auto It = Count.find(Name);
  return It == Count.end() ? 0 : It->second;
}

double LayerTotals::selfWithPrefix(const std::string &Prefix) const {
  double Sum = 0;
  for (const auto &[Layer, Us] : SelfUs)
    if (startsWith(Layer, Prefix))
      Sum += Us;
  return Sum;
}
