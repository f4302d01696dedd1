//===-- perfbench/src/measure.h - The benchmark's own arithmetic --*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the benchmark computes from raw timings, kept free of the VM
/// so perfbench_test can check it in isolation: medians, the tail rule,
/// geometric means, the open-loop client (due-time latency and generator
/// lateness), backlog detection and the max_rps rate-ladder search.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : 0.5 * (Xs[N / 2 - 1] + Xs[N / 2]);
}

/// Nearest-rank quantile, 0 < Q <= 1; 0 when empty.
inline double quantile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * Xs.size() - 1e-9));
  return Xs[std::min(std::max<size_t>(Rank, 1), Xs.size()) - 1];
}

/// Median of the pooled values of several groups, each group weighing the
/// same whatever its size: a value of a group of N counts 1/N. (A closed
/// loop runs fast programs more often; this keeps their share fixed.)
inline double groupWeightedMedian(const std::vector<std::vector<double>> &Gs) {
  std::vector<std::pair<double, double>> Vw;
  double Total = 0;
  for (const std::vector<double> &G : Gs) {
    if (G.empty())
      continue;
    for (double X : G)
      Vw.emplace_back(X, 1.0 / static_cast<double>(G.size()));
    Total += 1;
  }
  if (Vw.empty())
    return 0;
  std::sort(Vw.begin(), Vw.end());
  double Cum = 0;
  for (const auto &[X, W] : Vw) {
    Cum += W;
    if (Cum >= Total / 2 - 1e-9)
      return X;
  }
  return Vw.back().first;
}

/// Geometric mean of positive values; 0 when empty.
inline double geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double S = 0;
  for (double X : Xs)
    S += std::log(X);
  return std::exp(S / static_cast<double>(Xs.size()));
}

/// A tail percentile and the samples that support it.
struct Tail {
  double Percentile = 0; ///< e.g. 99.9
  double Value = 0;
  size_t Count = 0;  ///< samples in the set
  size_t Beyond = 0; ///< samples strictly past the percentile's rank
};

/// The highest percentile on the ladder p50, p90, p99, p99.9, ... whose
/// nearest rank leaves at least \p MinBeyond samples beyond it. A set too
/// small for even p50 to qualify reports p50 with the count it has.
inline Tail tailOf(std::vector<double> Xs, size_t MinBeyond = 10) {
  Tail T;
  T.Count = Xs.size();
  if (Xs.empty())
    return T;
  std::sort(Xs.begin(), Xs.end());
  const double Ladder[] = {50, 90, 99, 99.9, 99.99, 99.999, 99.9999};
  for (double P : Ladder) {
    size_t Rank = static_cast<size_t>(std::ceil(P / 100 * Xs.size() - 1e-9));
    Rank = std::min(std::max<size_t>(Rank, 1), Xs.size());
    size_t Beyond = Xs.size() - Rank;
    if (P != Ladder[0] && Beyond < MinBeyond)
      break;
    T.Percentile = P;
    T.Value = Xs[Rank - 1];
    T.Beyond = Beyond;
  }
  return T;
}

//===----------------------------------------------------------------------===//
// The open-loop client
//===----------------------------------------------------------------------===//

/// A fixed-rate arrival schedule: request K is due at Offset + K * Period
/// seconds after the phase starts. The seeded offset de-phases clients.
struct ArrivalSchedule {
  double Offset = 0;
  double Period = 1;
  double due(size_t K) const { return Offset + static_cast<double>(K) * Period; }
};

/// One open-loop request, in seconds since the phase started.
struct OpenLoopOp {
  double Due = 0;
  double Start = 0;
  double End = 0;
  bool Idle = false; ///< the client was idle when the request fell due

  /// Latency as the user sees it: from when the request was due, so the
  /// wait behind a stalled request counts.
  double latency() const { return End - Due; }
};

/// Runs every request of \p S that falls due before \p Window. An idle
/// client waits for the due time (Clock::waitUntil returns the time it
/// actually woke); a busy one starts the overdue request at once, so a
/// stalled request delays the ones queued behind it. \p Run(K) issues
/// request K. The loop gives up, returning the requests that ran, once a
/// request would start more than \p MaxLag seconds late: the rate is then
/// far beyond what the client sustains, and the rest would only lengthen
/// the run. The clock is a parameter so the tests can drive the loop with
/// simulated time.
template <class Clock, class RunFn>
std::vector<OpenLoopOp> runOpenLoop(const ArrivalSchedule &S, double Window,
                                    Clock &C, RunFn &&Run,
                                    double MaxLag = HUGE_VAL) {
  std::vector<OpenLoopOp> Ops;
  for (size_t K = 0;; ++K) {
    OpenLoopOp Op;
    Op.Due = S.due(K);
    if (Op.Due >= Window)
      break;
    double Now = C.now();
    if (Now - Op.Due > MaxLag)
      break;
    Op.Idle = Now <= Op.Due;
    Op.Start = Op.Idle ? C.waitUntil(Op.Due) : Now;
    Run(K);
    Op.End = C.now();
    Ops.push_back(Op);
  }
  return Ops;
}

/// How late the generator itself ran: the wake-up overshoot of requests
/// that fell due while the client was idle. (A request queued behind a
/// busy client is late because of the system, not the generator.)
inline std::vector<double> generatorLateness(const std::vector<OpenLoopOp> &Ops) {
  std::vector<double> L;
  for (const OpenLoopOp &Op : Ops)
    if (Op.Idle)
      L.push_back(Op.Start - Op.Due);
  return L;
}

/// Requests due before \p T that had not started by \p T.
inline size_t backlogAt(const std::vector<OpenLoopOp> &Ops, double T) {
  size_t N = 0;
  for (const OpenLoopOp &Op : Ops)
    if (Op.Due < T && Op.Start >= T)
      ++N;
  return N;
}

/// True when the backlog at the end of the window exceeds the backlog at
/// its midpoint by more than max(2, 1% of the requests): the offered rate
/// is above what the client sustains.
inline bool backlogGrows(const std::vector<OpenLoopOp> &Ops, double Window) {
  size_t Mid = backlogAt(Ops, Window / 2);
  size_t End = backlogAt(Ops, Window);
  size_t Slack = std::max<size_t>(2, Ops.size() / 100);
  return End > Mid + Slack;
}

/// Rungs Lo, Lo*Ratio, ..., N of them: the fixed geometric rate ladder.
inline std::vector<double> rateLadder(double Lo, double Ratio, size_t N) {
  std::vector<double> L;
  for (size_t K = 0; K < N; ++K)
    L.push_back(Lo * std::pow(Ratio, static_cast<double>(K)));
  return L;
}

/// Index of the highest rung for which \p Pass holds, by binary search
/// over \p N rungs (Pass is taken to hold up to a knee and fail beyond
/// it); -1 when even rung 0 fails. \p Pass is called once per probed rung.
template <class PassFn> int highestPassing(size_t N, PassFn &&Pass) {
  int Lo = -1, Hi = static_cast<int>(N); // Pass(Lo) holds, Pass(Hi) fails
  while (Hi - Lo > 1) {
    int Mid = Lo + (Hi - Lo) / 2;
    if (Pass(static_cast<size_t>(Mid)))
      Lo = Mid;
    else
      Hi = Mid;
  }
  return Lo;
}

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
