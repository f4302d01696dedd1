//===-- perfbench/src/main.cpp - The repo benchmark -----------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Usage:
//   perfbench --workload suite_misspec|suite_native|server_open
//             [--seed N] [--seconds S] [--trace 0|1]
//             [--refs DIR] [--out DIR]
//   perfbench --gen-refs DIR
//
// Prints a report per workload and, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and reports the per-layer metrics (writing
// the spans as a Chrome trace to DIR/trace_<workload>.json).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

const char *const Workloads[] = {"suite_misspec", "suite_native",
                                 "server_open"};

WorkloadResult runWorkload(const Options &O, std::vector<SpanRecorder> *Rs) {
  if (O.Workload == "server_open")
    return runServer(O, Rs);
  return runSuite(O, O.Workload == "suite_native", Rs ? &(*Rs)[0] : nullptr);
}

double geomeanMs(const WorkloadResult &W) {
  std::vector<double> Medians;
  for (const Row &R : W.Rows)
    Medians.push_back(median(R.OpMs));
  return geomean(Medians);
}

void printRows(const WorkloadResult &W) {
  printf("%-26s %7s %12s %12s\n", "row", "ops", "median_ms", "tail_ms");
  for (const Row &R : W.Rows) {
    Tail T = tailOf(R.OpMs);
    printf("%-26s %7zu %12.4f %12.4f  (p%g, %zu beyond)\n", R.Name.c_str(),
           R.OpMs.size(), median(R.OpMs), T.Value, T.Percentile, T.Beyond);
  }
}

std::string json(const WorkloadResult &W, const std::vector<Metric> &Ms) {
  std::string S = "{\"correct\": ";
  S += W.Fails.Failed == 0 ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(W.Fails.Attempted);
  S += ", \"failed\": " + std::to_string(W.Fails.Failed);
  S += ", \"metrics\": {";
  for (size_t K = 0; K < Ms.size(); ++K) {
    char Buf[256];
    snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
             K ? ", " : "", Ms[K].Name.c_str(), Ms[K].Value,
             Ms[K].Unit.c_str());
    S += Buf;
  }
  return S + "}}";
}

std::vector<Metric> endToEnd(const WorkloadResult &W) {
  printf("# op_tail_ms: %s\n", W.TailNote.c_str());
  if (!W.WarmupSamples.empty()) {
    printf("# warmup_s is the median of its cold-start rounds:");
    for (double S : W.WarmupSamples)
      printf(" %.4f", S);
    printf("\n");
  }
  printf("# fail_frac: %llu of %llu ops failed = %.6g\n",
         static_cast<unsigned long long>(W.Fails.Failed),
         static_cast<unsigned long long>(W.Fails.Attempted),
         W.Fails.Attempted ? static_cast<double>(W.Fails.Failed) /
                                 static_cast<double>(W.Fails.Attempted)
                           : 0.0);
  std::vector<Metric> Ms = {
      {"setup_s", W.SetupS, "s"},
      {"warmup_s", W.WarmupS, "s"},
      {"geomean_ms", geomeanMs(W), "ms"},
      {"op_p50_ms", W.OpP50Ms, "ms"},
      {"op_tail_ms", W.OpTailMs, "ms"},
      {"ops_per_s", static_cast<double>(W.SteadyOps) / W.SteadyWallS, "1/s"},
      {"heap_peak_mb", W.HeapPeakMb, "MB"},
  };
  if (!W.MaxRpsNote.empty()) {
    printf("# max_rps: %s\n", W.MaxRpsNote.c_str());
    Ms.push_back({"max_rps", W.MaxRps, "1/s"});
  }
  return Ms;
}

void printMetrics(const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    printf("%-28s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
}

void printFailures(const WorkloadResult &W) {
  for (const std::string &M : W.Fails.Messages)
    printf("# FAIL %s\n", M.c_str());
}

int usage() {
  fprintf(stderr, "usage: perfbench --workload "
                  "suite_misspec|suite_native|server_open [--seed N] "
                  "[--seconds S] [--trace 0|1] [--refs DIR] [--out DIR]\n"
                  "       perfbench --gen-refs DIR\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    if (K + 1 >= Argc)
      return usage();
    const char *V = Argv[++K];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--refs")
      O.RefsDir = V;
    else if (A == "--out")
      O.OutDir = V;
    else if (A == "--gen-refs") {
      bool Ok = writeSuiteRefs(std::string(V) + "/suite.tsv") &&
                writeServerRefs(std::string(V) + "/server.tsv");
      return Ok ? 0 : 1;
    } else
      return usage();
  }
  bool Known = false;
  for (const char *W : Workloads)
    Known |= O.Workload == W;
  if (!Known || !(O.Seconds > 0))
    return usage();

  printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
         O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
         O.Seconds, O.Trace ? 1 : 0);
  WorkloadResult W = runWorkload(O, nullptr);
  printRows(W);
  std::vector<Metric> Ms = endToEnd(W);
  if (O.Trace) {
    // The traced pass: same workload and seed, spans on, layer replays.
    std::vector<SpanRecorder> Rs;
    for (unsigned T = 0; T < 3; ++T)
      Rs.emplace_back(T);
    WorkloadResult Tr = runWorkload(O, &Rs);
    std::vector<const SpanRecorder *> Ptrs;
    for (const SpanRecorder &R : Rs)
      Ptrs.push_back(&R);
    double Overhead = (geomeanMs(Tr) / geomeanMs(W) - 1) * 100;
    printf("# traced pass: geomean_ms %.4f vs untraced %.4f\n", geomeanMs(Tr),
           geomeanMs(W));
    printf("%-10s %9s %12s %12s\n", "layer", "spans", "total_ms", "self_ms");
    for (const auto &[Layer, S] : summarize(Ptrs))
      printf("%-10s %9llu %12.3f %12.3f\n", Layer.c_str(),
             static_cast<unsigned long long>(S.Count), S.TotalNs * 1e-6,
             S.SelfNs * 1e-6);
    std::string Path = O.OutDir + "/trace_" + O.Workload + ".json";
    if (!writeChromeTrace(Path, Ptrs))
      Tr.Fails.fail("cannot write " + Path);
    else
      printf("# spans written to %s\n", Path.c_str());
    Ms = layerMetrics(Tr.Layers, Ptrs, Overhead, Tr.DriverLateMs);
    W.Fails.Attempted += Tr.Fails.Attempted;
    W.Fails.Failed += Tr.Fails.Failed;
    for (const std::string &M : Tr.Fails.Messages)
      W.Fails.Messages.push_back(M);
  }
  printMetrics(Ms);
  printFailures(W);
  if (W.Fails.Attempted == 0)
    return 1;
  printf("%s\n", json(W, Ms).c_str());
  return 0;
}
