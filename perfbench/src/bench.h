//===-- perfbench/src/bench.h - Shared workload plumbing ----------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the suite and server workloads: run options, reference
/// outputs, the per-workload result, and the per-layer accumulator the
/// traced run fills.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "measure.h"
#include "spans.h"

#include "obs/metrics.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string RefsDir = "perfbench/refs";
  std::string OutDir = ".";
};

/// splitmix64: derives independent seeds from the workload seed.
inline uint64_t mixSeed(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

inline double secondsSince(uint64_t T0) {
  return static_cast<double>(nowNs() - T0) * 1e-9;
}

/// Expected results, generated once under TierStrategy::BaselineOnly
/// (`perfbench --gen-refs`), keyed by "<program or query kind>\t<source>".
class References {
public:
  /// Reads a `<name>\t<source>\t<result>` file; false with \p Err set
  /// when it is missing or malformed.
  bool load(const std::string &Path, std::string &Err);
  /// The expected result, or null when the key has no reference.
  const std::string *find(const std::string &Name,
                          const std::string &Source) const;

private:
  std::map<std::string, std::string> Map;
};

/// Writes one reference line (tabs and newlines in \p Result escaped).
std::string referenceLine(const std::string &Name, const std::string &Source,
                          const std::string &Result);

/// Operations attempted and failed (wrong result or an RError), plus the
/// first few failure messages for the report.
struct FailLog {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Messages;

  /// Evaluates \p Source in \p V and checks the result against \p Refs;
  /// returns the op's wall time in seconds (the check is not timed).
  double timedOp(rjit::Vm &V, const References &Refs, const std::string &Name,
                 const std::string &Source, SpanRecorder *R, uint64_t OpId);
  void fail(std::string Msg);
};

/// One report row: a program (suites) or a query kind (server).
struct Row {
  std::string Name;
  std::vector<double> OpMs; ///< steady-phase op times
};

/// The VmStats counters the per-layer metrics read, summed over Vms.
struct Counts {
  uint64_t Compiles = 0; ///< whole-function + OSR-in + continuation
  uint64_t InlinedCalls = 0, HoistedInstrs = 0, HoistedGuards = 0,
           EliminatedGuards = 0;
  uint64_t NativeEnters = 0, NativeFusedOps = 0, NativeRegSpills = 0,
           NativeLinkedTransfers = 0;
  uint64_t GuardChecks = 0, Deopts = 0, DeoptlessAttempts = 0,
           DeoptlessHits = 0, ContinuationCompiles = 0,
           DeoptlessRejected = 0, OsrInEntries = 0;
  uint64_t GcCollections = 0;

  void add(const rjit::VmStats &S);
};

/// What the traced run gathers for the per-layer metrics.
struct LayerAcc {
  Counts C;
  /// Histogram samples (ns, at bucket resolution), pooled over Vms.
  std::vector<double> CompileLatencyNs, DeoptPauseNs, GcPauseNs;
  std::vector<double> InterpOpMs; ///< per row: BaselineOnly op time
  std::vector<double> EvalFixedUs;
  double IrInstrs = 0, LowInstrs = 0;
  double CollectMs = 0;
  double HeapLiveMb = 0;
  uint64_t Ops = 0; ///< every workload op, for the per-op counters

  /// Pools one Vm's histograms (obs::metrics() is reset by every Vm).
  void addHistograms(const rjit::obs::VmMetrics &M);
};

/// Everything one workload run measured.
struct WorkloadResult {
  double SetupS = 0;
  double WarmupS = 0;
  std::vector<double> WarmupSamples; ///< server: one per cold start
  std::vector<Row> Rows;
  double OpP50Ms = 0;
  double OpTailMs = 0;
  std::string TailNote; ///< which percentile op_tail_ms is, over what
  uint64_t SteadyOps = 0;
  double SteadyWallS = 0;
  double MaxRps = 0;        ///< server_open only: the ladder result
  std::string MaxRpsNote;   ///< how max_rps was found
  double HeapPeakMb = 0;
  std::vector<double> DriverLateMs;
  FailLog Fails;
  LayerAcc Layers;          ///< filled by the traced pass only
};

/// Runs one workload. \p R is null in the untraced pass; in the traced
/// pass every call into a layer is recorded and the layer replays run.
WorkloadResult runSuite(const Options &O, bool Native, SpanRecorder *R);
WorkloadResult runServer(const Options &O, std::vector<SpanRecorder> *Rs);

/// Reference generation under BaselineOnly (the --gen-refs mode).
bool writeSuiteRefs(const std::string &Path);
bool writeServerRefs(const std::string &Path);

//===-- Layer replays (layers.cpp) ----------------------------------------===//

/// Times parseProgram and compileToBc over \p Sources (spans
/// "lang.parse" / "bc.compile").
void replayFrontEnd(const std::vector<std::string> &Sources, SpanRecorder *R);

/// Replays translate, optimizeToIr, lowerToLow and the native backend's
/// prepare() on every function \p V has compiled, with its current (warm)
/// feedback; accumulates IR and LowCode sizes into \p L.
void replayBackEnd(rjit::Vm &V, LayerAcc &L, SpanRecorder *R);

/// Samples the fixed cost of Vm::eval on a trivial expression.
void sampleEvalFixed(rjit::Vm &V, LayerAcc &L, SpanRecorder *R);

/// Times Vm::collectHeap() (span "runtime.collect").
void timeCollect(rjit::Vm &V, LayerAcc &L, SpanRecorder *R);

/// The per-layer metrics, in BENCHMARK.json order, as (name, value, unit).
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};
std::vector<Metric> layerMetrics(const LayerAcc &L,
                                 const std::vector<const SpanRecorder *> &Rs,
                                 double TraceOverheadPct,
                                 const std::vector<double> &DriverLateMs);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
