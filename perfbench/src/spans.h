//===-- perfbench/src/spans.h - The traced run's span recorder ----*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded around the benchmark's own calls into each layer's
/// public function (Vm::eval, parseProgram, optimizeToIr, ...). A span's
/// name is "<layer>.<call>"; its parent is the span open on the same
/// recorder when it started, and spans of one operation share an op id.
/// Each thread owns one recorder, kept in memory until the run ends; the
/// recorders are then exported together as Chrome trace-event JSON and
/// summarized per layer (count, total time, self time).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char *Name = ""; ///< a string literal: "<layer>.<call>"
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int Parent = -1; ///< index in the same recorder, -1 for a root
  uint64_t OpId = 0;
};

class SpanRecorder {
public:
  explicit SpanRecorder(unsigned Tid = 0) : Tid(Tid) {}

  /// Opens a span at \p StartNs (now by default) under the innermost open
  /// one; returns its index for close().
  size_t open(const char *Name, uint64_t OpId, uint64_t StartNs = nowNs()) {
    Span S;
    S.Name = Name;
    S.StartNs = StartNs;
    S.Parent = Stack.empty() ? -1 : static_cast<int>(Stack.back());
    S.OpId = OpId;
    Spans.push_back(S);
    Stack.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }

  void close(size_t Idx, uint64_t EndNs = nowNs()) {
    Spans[Idx].EndNs = EndNs;
    if (!Stack.empty() && Stack.back() == Idx)
      Stack.pop_back();
  }

  unsigned tid() const { return Tid; }
  const std::vector<Span> &spans() const { return Spans; }

private:
  unsigned Tid;
  std::vector<Span> Spans;
  std::vector<size_t> Stack;
};

/// Records one span for its scope; a null recorder records nothing, so the
/// untraced run pays one branch.
class Scope {
public:
  Scope(SpanRecorder *R, const char *Name, uint64_t OpId = 0) : R(R) {
    if (R)
      Idx = R->open(Name, OpId);
  }
  ~Scope() {
    if (R)
      R->close(Idx);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanRecorder *R;
  size_t Idx = 0;
};

/// The layer of a span: its name up to the first '.'.
inline std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}

/// Direct children of every span, by index.
inline std::vector<std::vector<size_t>> childrenOf(const std::vector<Span> &Spans) {
  std::vector<std::vector<size_t>> Kids(Spans.size());
  for (size_t K = 0; K < Spans.size(); ++K)
    if (Spans[K].Parent >= 0)
      Kids[static_cast<size_t>(Spans[K].Parent)].push_back(K);
  return Kids;
}

/// Self time of span \p Idx: its duration minus the part of its interval
/// that the union of its direct children \p Kids covers.
inline uint64_t selfNs(const std::vector<Span> &Spans, size_t Idx,
                       const std::vector<size_t> &Kids) {
  const Span &P = Spans[Idx];
  std::vector<std::pair<uint64_t, uint64_t>> Cover;
  for (size_t C : Kids)
    Cover.emplace_back(std::max(Spans[C].StartNs, P.StartNs),
                       std::min(Spans[C].EndNs, P.EndNs));
  std::sort(Cover.begin(), Cover.end());
  uint64_t Covered = 0, Reach = P.StartNs;
  for (auto [B, E] : Cover) {
    B = std::max(B, Reach);
    if (E > B) {
      Covered += E - B;
      Reach = E;
    }
  }
  return (P.EndNs - P.StartNs) - Covered;
}

struct LayerSummary {
  uint64_t Count = 0;
  uint64_t TotalNs = 0;
  uint64_t SelfNs = 0;
};

/// Per-layer count, total and self time over every recorder.
inline std::map<std::string, LayerSummary>
summarize(const std::vector<const SpanRecorder *> &Rs) {
  std::map<std::string, LayerSummary> Out;
  for (const SpanRecorder *R : Rs) {
    const std::vector<Span> &Spans = R->spans();
    std::vector<std::vector<size_t>> Kids = childrenOf(Spans);
    for (size_t K = 0; K < Spans.size(); ++K) {
      LayerSummary &L = Out[layerOf(Spans[K].Name)];
      ++L.Count;
      L.TotalNs += Spans[K].EndNs - Spans[K].StartNs;
      L.SelfNs += selfNs(Spans, K, Kids[K]);
    }
  }
  return Out;
}

/// Total time of the spans named \p Name, in milliseconds.
inline double totalMs(const std::vector<const SpanRecorder *> &Rs,
                      const std::string &Name) {
  uint64_t Ns = 0;
  for (const SpanRecorder *R : Rs)
    for (const Span &S : R->spans())
      if (Name == S.Name)
        Ns += S.EndNs - S.StartNs;
  return static_cast<double>(Ns) * 1e-6;
}

/// Writes every span as a Chrome trace-event "X" event (microseconds since
/// the earliest span); returns false when the file cannot be written.
inline bool writeChromeTrace(const std::string &Path,
                             const std::vector<const SpanRecorder *> &Rs) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t T0 = UINT64_MAX;
  for (const SpanRecorder *R : Rs)
    for (const Span &S : R->spans())
      T0 = std::min(T0, S.StartNs);
  std::fprintf(F, "{\"traceEvents\":[");
  bool First = true;
  for (const SpanRecorder *R : Rs)
    for (size_t K = 0; K < R->spans().size(); ++K) {
      const Span &S = R->spans()[K];
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%llu,\"id\":%zu,\"parent\":%d}}",
                   First ? "" : ",", S.Name, layerOf(S.Name).c_str(),
                   R->tid(), static_cast<double>(S.StartNs - T0) * 1e-3,
                   static_cast<double>(S.EndNs - S.StartNs) * 1e-3,
                   static_cast<unsigned long long>(S.OpId), K, S.Parent);
      First = false;
    }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
