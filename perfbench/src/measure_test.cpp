//===-- perfbench/src/measure_test.cpp - Tests of the benchmark's arithmetic ===//
//
// Part of the deoptless reproduction. MIT license.
//
// Plain checks (no framework) that stay on in every build type. Exits
// non-zero and names the failed check when one fails.
//
//===----------------------------------------------------------------------===//

#include "measure.h"
#include "spans.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Cond, const char *What) {
  if (!Cond) {
    std::printf("FAIL: %s\n", What);
    ++Failures;
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

std::vector<double> iota(size_t N) {
  std::vector<double> Xs;
  for (size_t K = 1; K <= N; ++K)
    Xs.push_back(static_cast<double>(K));
  return Xs;
}

void testTailRule() {
  // 1000 samples: p99 leaves exactly 10 beyond it; p99.9 only 1.
  Tail T = tailOf(iota(1000));
  check(near(T.Percentile, 99), "1000 samples -> p99");
  check(near(T.Value, 990) && T.Beyond == 10, "p99 of 1..1000 is 990, 10 beyond");
  // 999 samples: p99's rank is 990, leaving 9 -> falls back to p90.
  T = tailOf(iota(999));
  check(near(T.Percentile, 90), "999 samples -> p90");
  check(T.Beyond >= 10, "p90 of 999 leaves >= 10 beyond");
  // 10000 samples reach p99.9.
  T = tailOf(iota(10000));
  check(near(T.Percentile, 99.9) && near(T.Value, 9990), "10000 samples -> p99.9");
  // Too few samples for anything past the median: report p50 as is.
  T = tailOf(iota(12));
  check(near(T.Percentile, 50) && T.Count == 12, "12 samples -> p50");
  check(tailOf({}).Count == 0, "empty set");
  // Order does not matter.
  std::vector<double> Rev = iota(1000);
  std::reverse(Rev.begin(), Rev.end());
  check(near(tailOf(Rev).Value, 990), "tail is order independent");
}

void testMedianGeomean() {
  check(near(median({3, 1, 2}), 2), "odd median");
  check(near(median({4, 1, 2, 3}), 2.5), "even median");
  check(near(geomean({1, 4, 16}), 4), "geomean of 1,4,16");
  check(near(geomean({2, 8}), 4), "geomean of 2,8");
  check(near(quantile(iota(100), 0.99), 99), "nearest-rank p99");
  // A group of 1000 fast values and two of 10 slow ones: pooled, the
  // median is fast; weighted per group, it is the middle group's.
  std::vector<double> Fast(1000, 1.0), Mid(10, 5.0), Slow(10, 9.0);
  check(near(groupWeightedMedian({Fast, Mid, Slow}), 5.0),
        "group-weighted median ignores group sizes");
  check(near(groupWeightedMedian({{1, 2, 3}}), 2), "one group: its median");
}

/// A simulated clock: op K takes Service[K] seconds; waits jump to the
/// due time plus a fixed wake-up overshoot.
struct FakeClock {
  double T = 0;
  double Overshoot = 0;
  double now() const { return T; }
  double waitUntil(double Due) {
    T = Due + Overshoot;
    return T;
  }
};

void testDueTimeLatency() {
  // One request every 1s; request 1 stalls for 3.5s, the rest take 0.5s.
  ArrivalSchedule S{0, 1};
  FakeClock C;
  std::vector<double> Service(10, 0.5);
  Service[1] = 3.5;
  std::vector<OpenLoopOp> Ops =
      runOpenLoop(S, 10, C, [&](size_t K) { C.T += Service[K]; });
  check(Ops.size() == 10, "ten requests due before the window ends");
  check(near(Ops[1].latency(), 3.5), "the stalled op's own latency");
  // Request 2 was due at 2 but could only start at 4.5: 2.5s of waiting
  // plus its 0.5s of service counts against it.
  check(near(Ops[2].Start, 4.5) && near(Ops[2].latency(), 3.0),
        "a stalled op delays the op queued behind it");
  check(near(Ops[3].latency(), 2.5) && near(Ops[6].latency(), 1.0),
        "the queue drains half a period per request");
  check(!Ops[2].Idle && !Ops[6].Idle, "queued ops found the client busy");
  check(near(Ops[8].latency(), 0.5) && Ops[8].Idle, "caught up again");
  // A service-time clock would have seen only the stall itself.
  double ServiceMax = 0;
  for (const OpenLoopOp &Op : Ops)
    ServiceMax = std::max(ServiceMax, Op.End - Op.Start);
  check(near(ServiceMax, 3.5), "service time hides the queueing");
}

void testGeneratorLateness() {
  ArrivalSchedule S{0.25, 1};
  FakeClock C;
  C.Overshoot = 0.001;
  std::vector<OpenLoopOp> Ops =
      runOpenLoop(S, 3, C, [&](size_t) { C.T += 0.1; });
  std::vector<double> L = generatorLateness(Ops);
  check(L.size() == 3, "every op found the client idle");
  check(near(L[0], 0.001) && near(L[2], 0.001), "lateness is the overshoot");
}

void testBacklog() {
  // Offered 1 per 1s; service 0.5s keeps up: no backlog.
  ArrivalSchedule S{0, 1};
  FakeClock C;
  std::vector<OpenLoopOp> Ok =
      runOpenLoop(S, 100, C, [&](size_t) { C.T += 0.5; });
  check(!backlogGrows(Ok, 100), "a sustainable rate has no growing backlog");
  // Service 1.5s per 1s arrival: the backlog grows linearly.
  FakeClock C2;
  std::vector<OpenLoopOp> Over =
      runOpenLoop(S, 100, C2, [&](size_t) { C2.T += 1.5; });
  check(backlogAt(Over, 100) > backlogAt(Over, 50), "overload backlog rises");
  check(backlogGrows(Over, 100), "an overloaded rate is detected");
  // One long stall early in the window drains before its end.
  FakeClock C3;
  std::vector<OpenLoopOp> Stall = runOpenLoop(
      S, 100, C3, [&](size_t K) { C3.T += K == 10 ? 8.0 : 0.5; });
  check(!backlogGrows(Stall, 100), "a drained stall is not a growing backlog");
  // Far beyond capacity, the loop gives up once it runs MaxLag behind.
  FakeClock C4;
  std::vector<OpenLoopOp> Cut = runOpenLoop(
      S, 100, C4, [&](size_t) { C4.T += 3.0; }, 10.0);
  check(Cut.size() == 6 && Cut.back().Start - Cut.back().Due <= 10.0,
        "an overloaded loop stops once it lags by more than MaxLag");
}

void testLadder() {
  std::vector<double> L = rateLadder(100, 2, 5);
  check(L.size() == 5 && near(L[0], 100) && near(L[4], 1600),
        "geometric ladder");
  for (int Knee = -1; Knee < 12; ++Knee) {
    int Probes = 0;
    int Got = highestPassing(12, [&](size_t I) {
      ++Probes;
      return static_cast<int>(I) <= Knee;
    });
    check(Got == Knee, "binary search finds the highest passing rung");
    check(Probes <= 4, "binary search probes at most ceil(log2(13)) rungs");
  }
}

void testSelfTime() {
  // Root [0,100] with children [10,30] and [20,50] (overlapping: union
  // [10,50] = 40) and a grandchild [12,18] that must not count for root.
  std::vector<Span> Spans(4);
  Spans[0] = {"driver.op", 0, 100, -1, 1};
  Spans[1] = {"vm.eval", 10, 30, 0, 1};
  Spans[2] = {"vm.eval", 20, 50, 0, 1};
  Spans[3] = {"lang.parse", 12, 18, 1, 1};
  std::vector<std::vector<size_t>> Kids = childrenOf(Spans);
  check(selfNs(Spans, 0, Kids[0]) == 60, "root self time excludes child union");
  check(selfNs(Spans, 1, Kids[1]) == 14, "child self time excludes grandchild");
  check(selfNs(Spans, 3, Kids[3]) == 6, "leaf self time is its duration");
  // A child spilling past its parent only covers the parent's interval.
  std::vector<Span> Spill = {{"a.x", 0, 10, -1, 0}, {"b.y", 5, 20, 0, 0}};
  check(selfNs(Spill, 0, childrenOf(Spill)[0]) == 5, "child clipped to parent");

  SpanRecorder R;
  size_t A = R.open("driver.op", 7, 0);
  size_t B = R.open("vm.eval", 7, 10);
  R.close(B, 40);
  R.close(A, 100);
  check(R.spans()[1].Parent == 0, "recorder links the open span as parent");
  auto Sum = summarize({&R});
  check(Sum["driver"].SelfNs == 70 && Sum["vm"].TotalNs == 30,
        "per-layer summary");
  check(Sum["driver"].Count == 1 && Sum["vm"].Count == 1, "span counts");
}

} // namespace

int main() {
  testTailRule();
  testMedianGeomean();
  testDueTimeLatency();
  testGeneratorLateness();
  testBacklog();
  testLadder();
  testSelfTime();
  if (Failures) {
    std::printf("%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
