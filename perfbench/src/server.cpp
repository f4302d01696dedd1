//===-- perfbench/src/server.cpp - server_open ----------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Open loop: two executor threads, each with its own Vm, share a one-thread
// CompilerPool (BackgroundCompile, Deoptless) — three busy threads on a
// four-core host. The query service and its weighted mix are those of
// bench/server_harness.cpp, q_churn included, with the data vectors and
// the churn count scaled so a median request takes over 100 us; at the
// harness's 256 elements a request takes ~15 us and scheduler jitter sets
// the tail. Phases: a closed-loop cold start, an unmeasured settle and a
// steady phase at a fixed offered rate, then probes up the max_rps rate
// ladder. In the open-loop phases each client arms one injected
// invalidation every InjectEvery-th request (the deterministic storm).
//
// BENCHMARK.json does not list this workload: on a host that steals vCPU
// time its op_tail_ms is not steady enough to gate (see README.md).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "compile/pool.h"
#include "runtime/value.h"
#include "support/rng.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

using namespace rjit;

namespace perfbench {

namespace {

constexpr unsigned Clients = 2;
/// Sessions: each a fresh pool and client Vms whose closed-loop cold start
/// (ColdRequests per client) is timed as warmup_s, the median over
/// ColdStarts sessions. setup_s is the median of the SetupRepsPerBatch
/// set-ups run before each session and at the end.
constexpr size_t ColdStarts = 5;
constexpr unsigned ColdRequests = 300;
constexpr int SetupRepsPerBatch = 6;
/// The first session's open-loop phases at the offered rate (both
/// clients), as shares of --seconds: an unmeasured settle, then the
/// steady phase. At 4000 rps the default 10 s gives 16000 steady requests:
/// 1000 per tail slice, so each slice's tail is its p99 with 10 beyond.
constexpr double OfferedRps = 4000;
constexpr double SettleShare = 0.2, SteadyShare = 0.4;
constexpr size_t TailSlices = 16;
constexpr unsigned InjectEvery = 25; ///< storm: one invalidation per N
/// max_rps: the highest rung of LadderLo * 2^(k/8) rps, k < LadderRungs,
/// whose probe keeps op_tail_ms within TailLimitMs without a growing
/// backlog. Every probe issues ProbeRequests requests, so its tail is p99
/// at every rung; a rung fails only when three probes in a row fail, so
/// a burst of host interference does not decide it.
constexpr double LadderLo = 2000, LadderRatio = 1.0905077327; // 2^(1/8)
constexpr size_t LadderRungs = 32;
constexpr double ProbeRequests = 2000;
constexpr double TailLimitMs = 1.0;
constexpr int LadderSearches = 3;
/// A probe gives up (and fails) once its requests start this late.
constexpr double ProbeMaxLagS = 0.25;

const char *ServerSetup = R"(
q_sum <- function(data) {
  total <- 0L
  for (i in 1:length(data)) total <- total + data[[i]]
  total
}
q_filter_sum <- function(data, lo) {
  total <- 0
  for (i in 1:length(data)) {
    x <- data[[i]]
    if (x > lo) total <- total + x
  }
  total
}
q_dot <- function(a, b) {
  total <- 0
  for (i in 1:length(a)) total <- total + a[[i]] * b[[i]]
  total
}
q_minmax <- function(data) {
  mn <- data[[1]]
  mx <- data[[1]]
  for (i in 1:length(data)) {
    x <- data[[i]]
    if (x < mn) mn <- x
    if (x > mx) mx <- x
  }
  mx - mn
}
q_churn <- function(n) {
  mk <- function(i) {
    h <- function(x) x + i
    h(i)
  }
  s <- 0L
  for (i in 1:n) s <- s + mk(i)
  s
}
ints <- 1:2048
reals <- as.numeric(1:2048) * 0.5
)";

/// The harness's mix, weighted by repetition; the seed draws an index.
const char *const RequestMix[] = {
    "q_sum(ints)",         "q_sum(ints)",
    "q_sum(ints)",         "q_sum(reals)",
    "q_sum(reals)",        "q_filter_sum(reals, 64)",
    "q_dot(reals, ints)",  "q_minmax(ints)",
    "q_churn(256L)",
};
constexpr size_t MixSize = sizeof(RequestMix) / sizeof(RequestMix[0]);

/// The query kind of a request: its function name.
std::string kindOf(const std::string &Req) { return Req.substr(0, Req.find('(')); }

std::vector<std::string> kinds() {
  std::vector<std::string> Ks;
  for (const char *Q : RequestMix)
    if (std::find(Ks.begin(), Ks.end(), kindOf(Q)) == Ks.end())
      Ks.push_back(kindOf(Q));
  return Ks;
}

Vm::Config serverConfig(CompilerPool *Pool, uint64_t Seed) {
  Vm::Config C;
  C.Strategy = TierStrategy::Deoptless;
  C.NativeTier = false;
  C.BackgroundCompile = true;
  C.Pool = Pool;
  C.InvalidationSeed = Seed;
  return C;
}

/// Reusable rendezvous for the clients and the orchestrator.
class Barrier {
public:
  explicit Barrier(unsigned N) : Count(N) {}
  void arriveAndWait() {
    std::unique_lock<std::mutex> L(Mu);
    unsigned G = Gen;
    if (++Waiting == Count) {
      Waiting = 0;
      ++Gen;
      Cv.notify_all();
      return;
    }
    Cv.wait(L, [&] { return Gen != G; });
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  const unsigned Count;
  unsigned Waiting = 0;
  unsigned Gen = 0;
};

/// Wall clock for runOpenLoop: sleeps to just short of the due time, then
/// spins, so the generator's own lateness stays in the microseconds.
struct WallClock {
  uint64_t T0 = nowNs();
  double now() const { return static_cast<double>(nowNs() - T0) * 1e-9; }
  double waitUntil(double Due) {
    double Sleep = Due - now() - 150e-6;
    if (Sleep > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(Sleep));
    double Now;
    while ((Now = now()) < Due) {
    }
    return Now;
  }
};

enum class Cmd { Start, Stop, Cold, Open, Final };

/// What the orchestrator asks of the clients for the next phase.
struct PhaseCmd {
  Cmd Kind = Cmd::Cold;
  double Rate = 0;          ///< total offered rps, both clients
  double Window = 0;        ///< seconds of arrivals
  double MaxLag = HUGE_VAL; ///< see runOpenLoop
};

/// One client's record of an open-loop phase.
struct ClientPhase {
  std::vector<OpenLoopOp> Ops;
  std::vector<size_t> Kind; ///< per op, index into kinds()
  bool GaveUp = false;      ///< stopped MaxLag behind its schedule
};

} // namespace

WorkloadResult runServer(const Options &O, std::vector<SpanRecorder> *Rs) {
  WorkloadResult W;
  References Refs;
  std::string Err;
  if (!Refs.load(O.RefsDir + "/server.tsv", Err)) {
    W.Fails.fail(Err);
    return W;
  }
  const bool Traced = Rs != nullptr;
  const std::vector<std::string> Kinds = kinds();
  auto KindIdx = [&](const char *Req) {
    return static_cast<size_t>(
        std::find(Kinds.begin(), Kinds.end(), kindOf(Req)) - Kinds.begin());
  };

  std::unique_ptr<CompilerPool> Pool; // outlives every client Vm
  Barrier Sync(Clients + 1);
  PhaseCmd Next;
  std::vector<ClientPhase> Phase(Clients);
  std::vector<FailLog> Fails(Clients);
  std::vector<LayerAcc> Acc(Clients);
  SpanRecorder *Main = Traced ? &(*Rs)[Clients] : nullptr;

  auto Client = [&](unsigned Id) {
    SpanRecorder *R = Traced ? &(*Rs)[Id] : nullptr;
    Scope Whole(R, "driver.client", Id);
    Rng Draw(mixSeed(O.Seed * 31 + Id) | 1);
    uint64_t OpId = static_cast<uint64_t>(Id) << 40;
    std::unique_ptr<Vm> V;
    for (;;) {
      Sync.arriveAndWait(); // phase start
      PhaseCmd C = Next;
      if (C.Kind == Cmd::Final)
        break;
      if (C.Kind == Cmd::Start) {
        Scope S(R, "vm.construct", Id);
        V = std::make_unique<Vm>(
            serverConfig(Pool.get(), mixSeed(O.Seed + Id)));
        V->eval(ServerSetup);
      } else if (C.Kind == Cmd::Stop) {
        V.reset();
      } else if (C.Kind == Cmd::Cold) {
        // The cold start cycles through the mix in order, so every cold
        // start warms the service on the same sequence; the seed drives
        // the open-loop draws and arrivals.
        for (unsigned K = 0; K < ColdRequests; ++K) {
          const char *Req = RequestMix[(K + Id) % MixSize];
          Fails[Id].timedOp(*V, Refs, "server", Req, R, ++OpId);
        }
      } else {
        ClientPhase &P = Phase[Id];
        P = ClientPhase();
        ArrivalSchedule S;
        S.Period = Clients / C.Rate;
        S.Offset = Draw.uniform() * S.Period;
        WallClock Clock;
        P.Ops = runOpenLoop(S, C.Window, Clock, [&](size_t K) {
          if (K % InjectEvery == InjectEvery - 1) {
            Scope Inj(R, "osr.inject", OpId + 1);
            V->injectInvalidation();
          }
          const char *Req = RequestMix[Draw.below(MixSize)];
          P.Kind.push_back(KindIdx(Req));
          Fails[Id].timedOp(*V, Refs, "server", Req, R, ++OpId);
        }, C.MaxLag);
        P.GaveUp = S.due(P.Ops.size()) < C.Window;
      }
      Sync.arriveAndWait(); // phase end
    }
    if (Traced) {
      LayerAcc &L = Acc[Id];
      timeCollect(*V, L, R);
      sampleEvalFixed(*V, L, R);
      if (Id == 0)
        replayBackEnd(*V, L, R);
    }
  };

  std::vector<std::thread> Threads;
  for (unsigned Id = 0; Id < Clients; ++Id)
    Threads.emplace_back(Client, Id);
  auto RunPhase = [&](PhaseCmd C) {
    Next = C; // published to the clients by the barrier
    Sync.arriveAndWait();
    if (C.Kind != Cmd::Final)
      Sync.arriveAndWait();
  };

  // Set-up: the shared pool plus each client's Vm and Setup eval. It runs
  // here, one Vm at a time (one Vm per thread), with the destructors
  // outside the timed span; the reps are spread over the run so their
  // median sees the same host as the rest of it.
  std::vector<double> Setups;
  auto SetupReps = [&] {
    for (int Rep = 0; Rep < SetupRepsPerBatch; ++Rep) {
      uint64_t T0 = nowNs();
      CompilerPool P(1);
      double Secs = secondsSince(T0);
      for (unsigned C = 0; C < Clients; ++C) {
        uint64_t T1 = nowNs();
        Vm V(serverConfig(&P, mixSeed(O.Seed + C)));
        V.eval(ServerSetup);
        Secs += secondsSince(T1);
      }
      Setups.push_back(Secs);
    }
  };
  // The VM's counters and histograms are process-wide and every Vm
  // constructor resets them, so the traced pass banks them per session.
  LayerAcc &L = W.Layers;
  auto Bank = [&] {
    L.C.add(stats());
    L.addHistograms(obs::MetricsRegistry::snapshotAndReset());
    L.HeapLiveMb = std::max(
        L.HeapLiveMb, static_cast<double>(heapStats().LiveBytes) / 1048576.0);
  };
  // A session: set-up reps, then a fresh pool and client Vms and the
  // closed-loop cold start, timed as warmup_s.
  std::vector<double> Warmups;
  auto Session = [&] {
    if (Pool) {
      Bank();
      RunPhase({Cmd::Stop, 0, 0});
      Pool.reset();
    }
    SetupReps();
    Pool = std::make_unique<CompilerPool>(1);
    RunPhase({Cmd::Start, 0, 0});
    resetStats();
    (void)obs::MetricsRegistry::snapshotAndReset();
    uint64_t T0 = nowNs();
    RunPhase({Cmd::Cold, 0, 0});
    Warmups.push_back(secondsSince(T0));
  };

  // Session 1 carries the measurement. After its cold start an unmeasured
  // settle phase at the offered rate lets the tier-up transient pass (for
  // a second or more after a cold start, some requests take ~4 ms); then
  // the steady phase, and the max_rps searches on the warm Vms. op_tail_ms
  // is the median over TailSlices equal slices of the steady phase of each
  // slice's tail, so a burst of host interference moves one slice, not
  // the metric; max_rps is the median of LadderSearches searches.
  Session();
  RunPhase({Cmd::Open, OfferedRps, SettleShare * O.Seconds});
  resetHeapPeak();
  const double SteadyS = SteadyShare * O.Seconds;
  RunPhase({Cmd::Open, OfferedRps, SteadyS});
  W.HeapPeakMb = static_cast<double>(heapStats().PeakBytes) / 1048576.0;
  W.Rows.resize(Kinds.size());
  for (size_t K = 0; K < Kinds.size(); ++K)
    W.Rows[K].Name = Kinds[K];
  std::vector<std::vector<double>> Slices(TailSlices);
  for (const ClientPhase &P : Phase) {
    double LastEnd = 0;
    for (size_t K = 0; K < P.Ops.size(); ++K) {
      const OpenLoopOp &Op = P.Ops[K];
      W.Rows[P.Kind[K]].OpMs.push_back(1e3 * Op.latency());
      size_t Slice = std::min(TailSlices - 1,
                              static_cast<size_t>(Op.Due / SteadyS * TailSlices));
      Slices[Slice].push_back(1e3 * Op.latency());
      LastEnd = std::max(LastEnd, Op.End);
    }
    W.SteadyOps += P.Ops.size();
    W.SteadyWallS = std::max(W.SteadyWallS, LastEnd);
    for (double Late : generatorLateness(P.Ops))
      W.DriverLateMs.push_back(1e3 * Late);
  }
  std::vector<double> Pooled, SliceTails;
  std::string TailList;
  char Buf[200];
  for (const std::vector<double> &S : Slices) {
    Pooled.insert(Pooled.end(), S.begin(), S.end());
    SliceTails.push_back(tailOf(S).Value);
    snprintf(Buf, sizeof(Buf), " %.3f", SliceTails.back());
    TailList += Buf;
  }
  W.OpP50Ms = median(Pooled);
  W.OpTailMs = median(SliceTails);
  Tail T0 = tailOf(Slices[0]);
  snprintf(Buf, sizeof(Buf),
           "median over %zu slices of the steady phase of each slice's p%g "
           "(%zu requests, %zu beyond):",
           TailSlices, T0.Percentile, T0.Count, T0.Beyond);
  W.TailNote = Buf + TailList;

  std::vector<double> Ladder = rateLadder(LadderLo, LadderRatio, LadderRungs);
  std::vector<double> Found;
  std::string Probes;
  auto Probe = [&](size_t I) {
    double Window = ProbeRequests / Ladder[I];
    RunPhase({Cmd::Open, Ladder[I], Window, ProbeMaxLagS});
    std::vector<double> Lat;
    bool Grows = false;
    for (const ClientPhase &P : Phase) {
      for (const OpenLoopOp &Op : P.Ops)
        Lat.push_back(1e3 * Op.latency());
      Grows |= P.GaveUp || backlogGrows(P.Ops, Window);
    }
    Tail PT = tailOf(Lat);
    bool Pass = PT.Value <= TailLimitMs && !Grows;
    snprintf(Buf, sizeof(Buf), " %.0f:p%g=%.3f%s", Ladder[I], PT.Percentile,
             PT.Value, Grows ? ",backlog" : Pass ? "" : ",fail");
    Probes += Buf;
    return Pass;
  };
  for (int Search = 0; Search < LadderSearches; ++Search) {
    Probes += Search ? " |" : "";
    int Best = highestPassing(Ladder.size(), [&](size_t I) {
      return Probe(I) || Probe(I) || Probe(I);
    });
    Found.push_back(Best >= 0 ? Ladder[static_cast<size_t>(Best)]
                              : Ladder[0] / LadderRatio);
  }
  W.MaxRps = median(Found);
  snprintf(Buf, sizeof(Buf),
           "median of %d searches of the ladder %.0f*2^(k/8) rps for p99 of "
           "%.0f requests <= %.1f ms without a growing backlog;",
           LadderSearches, LadderLo, ProbeRequests, TailLimitMs);
  W.MaxRpsNote = Buf + Probes;

  // More cold starts, for warmup_s and setup_s only.
  for (size_t S = 1; S < ColdStarts; ++S)
    Session();

  Bank();
  RunPhase({Cmd::Final, 0, 0});
  for (std::thread &Th : Threads)
    Th.join();
  Pool.reset();
  SetupReps();
  W.SetupS = median(Setups);
  W.WarmupS = median(Warmups);
  W.WarmupSamples = Warmups;

  for (unsigned Id = 0; Id < Clients; ++Id) {
    W.Fails.Attempted += Fails[Id].Attempted;
    W.Fails.Failed += Fails[Id].Failed;
    for (std::string &M : Fails[Id].Messages)
      if (W.Fails.Messages.size() < 5)
        W.Fails.Messages.push_back(std::move(M));
  }
  if (!Traced)
    return W;

  L.Ops = W.Fails.Attempted;
  for (const LayerAcc &A : Acc) {
    L.CollectMs += A.CollectMs;
    L.EvalFixedUs.insert(L.EvalFixedUs.end(), A.EvalFixedUs.begin(),
                         A.EvalFixedUs.end());
    L.IrInstrs += A.IrInstrs;
    L.LowInstrs += A.LowInstrs;
  }
  std::vector<std::string> Sources{ServerSetup};
  for (const char *Q : RequestMix)
    Sources.push_back(Q);
  replayFrontEnd(Sources, Main);
  // Tier-interpreter time: each query kind's median op under BaselineOnly.
  Vm::Config C = serverConfig(nullptr, 1);
  C.Strategy = TierStrategy::BaselineOnly;
  C.BackgroundCompile = false;
  Vm V(C);
  V.eval(ServerSetup);
  std::vector<std::vector<double>> PerKind(Kinds.size());
  for (int Rep = 0; Rep < 20; ++Rep)
    for (const char *Q : RequestMix) {
      Scope S(Main, "bc.interp");
      PerKind[KindIdx(Q)].push_back(
          1e3 * W.Fails.timedOp(V, Refs, "server", Q, nullptr, 0));
    }
  for (const std::vector<double> &Ms : PerKind)
    L.InterpOpMs.push_back(median(Ms));
  return W;
}

bool writeServerRefs(const std::string &Path) {
  std::ofstream Out(Path);
  Out << "# perfbench reference outputs: server\t<request>\t<result>, "
         "generated under TierStrategy::BaselineOnly (perfbench --gen-refs)."
         "\n";
  Vm::Config C = serverConfig(nullptr, 1);
  C.Strategy = TierStrategy::BaselineOnly;
  C.BackgroundCompile = false;
  Vm V(C);
  V.eval(ServerSetup);
  std::vector<std::string> Done;
  for (const char *Q : RequestMix) {
    if (std::find(Done.begin(), Done.end(), Q) != Done.end())
      continue;
    Done.push_back(Q);
    Out << referenceLine("server", Q, V.eval(Q).show());
  }
  return static_cast<bool>(Out);
}

} // namespace perfbench
