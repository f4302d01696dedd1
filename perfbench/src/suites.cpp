//===-- perfbench/src/suites.cpp - suite_misspec and suite_native ---------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Closed loop, one thread: the 15 Ř main-suite programs of
// bench/suite/programs.cpp at their checked-in sizes, one after another,
// each in its own Vm. suite_misspec is the paper's Fig. 6 setting
// (Deoptless, LowCode interpreter backend, 1-in-2000 injected guard
// failures); suite_native runs the same programs on the native tier with
// no injected failures. Every other Vm::Config knob keeps its default.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "runtime/value.h"
#include "suite/programs.h"

#include <fstream>

using namespace rjit;

namespace perfbench {

namespace {

/// Driver calls per program in the cold phase: every synchronous tier-up
/// (CompileThreshold = 3 calls; OSR-in inside the first call) lands here.
constexpr int WarmupOps = 3;
/// Rounds over all programs; see runSuite.
constexpr size_t Rounds = 3;
/// Steady ops per program and round even when its time share is used up.
constexpr size_t MinSteadyOps = 2;

Vm::Config suiteConfig(bool Native, uint64_t InvalidationSeed) {
  Vm::Config C;
  C.Strategy = TierStrategy::Deoptless;
  C.NativeTier = Native;
  C.InvalidationRate = Native ? 0 : 2000;
  C.InvalidationSeed = InvalidationSeed;
  return C;
}

} // namespace

WorkloadResult runSuite(const Options &O, bool Native, SpanRecorder *R) {
  WorkloadResult W;
  References Refs;
  std::string Err;
  if (!Refs.load(O.RefsDir + "/suite.tsv", Err)) {
    W.Fails.fail(Err);
    return W;
  }
  size_t N;
  const suite::Program *Progs = suite::mainSuite(N);
  auto SeedOf = [&](size_t P, size_t K) {
    return mixSeed((O.Seed * 1000 + P) * 16 + K);
  };

  // The run is Rounds rounds over all programs. In each round every
  // program gets a fresh Vm with its own invalidation seed: Vm
  // construction plus the Setup eval (timed into the round's set-up sum),
  // the WarmupOps cold driver calls (timed into its warm-up sum), then
  // steady ops for its share of --seconds. setup_s and warmup_s are the
  // medians of the round sums; a program's steady ops pool its rounds, so
  // its median spans the run instead of one stretch of it.
  std::vector<double> Setups(Rounds), Warmups(Rounds);
  W.Rows.resize(N);
  double Budget = O.Seconds / static_cast<double>(N * Rounds);
  uint64_t OpId = 0;
  for (size_t K = 0; K < Rounds; ++K)
    for (size_t P = 0; P < N; ++P) {
      const suite::Program &Prog = Progs[P];
      Row &Rw = W.Rows[P];
      Rw.Name = Prog.Name;
      Scope Program(R, "driver.program", P);
      std::unique_ptr<Vm> VP;
      uint64_t T0 = nowNs();
      {
        Scope S(R, "vm.construct", P);
        VP = std::make_unique<Vm>(suiteConfig(Native, SeedOf(P, K)));
      }
      Vm &V = *VP;
      {
        Scope S(R, "vm.eval", P);
        V.eval(Prog.Setup);
      }
      Setups[K] += secondsSince(T0);
      for (int Op = 0; Op < WarmupOps; ++Op)
        Warmups[K] += W.Fails.timedOp(V, Refs, Prog.Name, Prog.Driver, R, ++OpId);

      resetHeapPeak();
      size_t Ops = 0;
      uint64_t Start = nowNs(), PrevEnd = 0;
      while (Ops < MinSteadyOps || secondsSince(Start) < Budget) {
        uint64_t Issue = nowNs();
        if (PrevEnd)
          W.DriverLateMs.push_back(static_cast<double>(Issue - PrevEnd) * 1e-6);
        Rw.OpMs.push_back(
            1e3 * W.Fails.timedOp(V, Refs, Prog.Name, Prog.Driver, R, ++OpId));
        PrevEnd = nowNs();
        ++Ops;
      }
      W.SteadyOps += Ops;
      W.SteadyWallS += secondsSince(Start);
      W.HeapPeakMb = std::max(W.HeapPeakMb, static_cast<double>(
                                                heapStats().PeakBytes) /
                                                1048576.0);
      if (!R)
        continue;
      // The traced pass also reads each Vm's counters (every Vm
      // constructor resets them) and, in the last round, replays each
      // layer on the warm Vm.
      LayerAcc &L = W.Layers;
      L.Ops += WarmupOps + Ops;
      L.C.add(stats());
      L.addHistograms(obs::metrics());
      L.HeapLiveMb = std::max(
          L.HeapLiveMb, static_cast<double>(heapStats().LiveBytes) / 1048576.0);
      timeCollect(V, L, R);
      if (K + 1 < Rounds)
        continue;
      sampleEvalFixed(V, L, R);
      replayFrontEnd({Prog.Setup, Prog.Driver}, R);
      replayBackEnd(V, L, R);
    }
  W.SetupS = median(Setups);
  W.WarmupS = median(Warmups);
  W.WarmupSamples = Warmups;
  // Tier-interpreter time: each program's op under BaselineOnly.
  if (R)
    for (size_t P = 0; P < N; ++P) {
      Vm::Config C = suiteConfig(Native, SeedOf(P, 0));
      C.Strategy = TierStrategy::BaselineOnly;
      Vm V(C);
      V.eval(Progs[P].Setup);
      std::vector<double> Ms;
      for (int K = 0; K < 3; ++K) {
        Scope S(R, "bc.interp", P);
        Ms.push_back(1e3 * W.Fails.timedOp(V, Refs, Progs[P].Name,
                                           Progs[P].Driver, nullptr, 0));
      }
      W.Layers.InterpOpMs.push_back(median(Ms));
    }
  // Programs differ in op time by 100x and the closed loop runs fast ones
  // more often, so the pooled median weighs every program the same, and
  // the tail is each program's own (a pooled tail would only say which
  // programs are slow, not where they pause).
  std::vector<double> Tails;
  std::vector<std::vector<double>> Groups;
  for (const Row &Rw : W.Rows) {
    Tails.push_back(tailOf(Rw.OpMs).Value);
    Groups.push_back(Rw.OpMs);
  }
  W.OpP50Ms = groupWeightedMedian(Groups);
  W.OpTailMs = geomean(Tails);
  W.TailNote = "geomean over programs of each program's tail (see rows)";
  return W;
}

bool writeSuiteRefs(const std::string &Path) {
  std::ofstream Out(Path);
  Out << "# perfbench reference outputs: <program>\t<driver>\t<result>, "
         "generated under TierStrategy::BaselineOnly (perfbench --gen-refs)."
         "\n# Every driver re-seeds its own RNG, so each op of a program has "
         "the same expected result; the generator checks three ops agree.\n";
  size_t N;
  const suite::Program *Progs = suite::mainSuite(N);
  for (size_t P = 0; P < N; ++P) {
    Vm::Config C;
    C.Strategy = TierStrategy::BaselineOnly;
    C.NativeTier = false;
    Vm V(C);
    V.eval(Progs[P].Setup);
    std::string First = V.eval(Progs[P].Driver).show();
    for (int K = 1; K < 3; ++K)
      if (V.eval(Progs[P].Driver).show() != First) {
        fprintf(stderr, "%s: driver result differs between ops\n",
                Progs[P].Name);
        return false;
      }
    Out << referenceLine(Progs[P].Name, Progs[P].Driver, First);
  }
  return static_cast<bool>(Out);
}

} // namespace perfbench
