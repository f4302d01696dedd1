//===-- perfbench/src/layers.cpp - References, checks, layer replays ------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "bc/compiler.h"
#include "lang/parser.h"
#include "lowcode/lower.h"
#include "native/native.h"
#include "opt/pipeline.h"
#include "runtime/value.h"

#include <fstream>
#include <memory>

using namespace rjit;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Reference outputs
//===----------------------------------------------------------------------===//

namespace {

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\t')
      Out += "\\t";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

std::string unescape(const std::string &S) {
  std::string Out;
  for (size_t K = 0; K < S.size(); ++K) {
    if (S[K] != '\\' || K + 1 == S.size()) {
      Out += S[K];
      continue;
    }
    char N = S[++K];
    Out += N == 't' ? '\t' : N == 'n' ? '\n' : N;
  }
  return Out;
}

} // namespace

std::string referenceLine(const std::string &Name, const std::string &Source,
                          const std::string &Result) {
  return escape(Name) + "\t" + escape(Source) + "\t" + escape(Result) + "\n";
}

bool References::load(const std::string &Path, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read reference file " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t A = Line.find('\t');
    size_t B = A == std::string::npos ? A : Line.find('\t', A + 1);
    if (B == std::string::npos) {
      Err = "malformed reference line in " + Path + ": " + Line;
      return false;
    }
    Map[unescape(Line.substr(0, A)) + "\t" +
        unescape(Line.substr(A + 1, B - A - 1))] = unescape(Line.substr(B + 1));
  }
  return true;
}

const std::string *References::find(const std::string &Name,
                                    const std::string &Source) const {
  auto It = Map.find(Name + "\t" + Source);
  return It == Map.end() ? nullptr : &It->second;
}

//===----------------------------------------------------------------------===//
// Checked operations
//===----------------------------------------------------------------------===//

void FailLog::fail(std::string Msg) {
  ++Failed;
  if (Messages.size() < 5)
    Messages.push_back(std::move(Msg));
}

double FailLog::timedOp(Vm &V, const References &Refs, const std::string &Name,
                        const std::string &Source, SpanRecorder *R,
                        uint64_t OpId) {
  ++Attempted;
  uint64_t T0 = nowNs();
  Value Res;
  std::string Got;
  bool Raised = false;
  {
    Scope S(R, "vm.eval", OpId);
    try {
      Res = V.eval(Source);
    } catch (const std::exception &E) {
      Got = E.what();
      Raised = true;
    }
  }
  double Secs = static_cast<double>(nowNs() - T0) * 1e-9;
  if (!Raised)
    Got = Res.show();
  const std::string *Want = Refs.find(Name, Source);
  if (Raised)
    fail(Name + ": `" + Source + "` raised: " + Got);
  else if (!Want)
    fail(Name + ": no reference for `" + Source + "`");
  else if (Got != *Want)
    fail(Name + ": `" + Source + "` gave " + Got + ", expected " + *Want);
  return Secs;
}

//===----------------------------------------------------------------------===//
// Counters and histograms
//===----------------------------------------------------------------------===//

void Counts::add(const VmStats &S) {
  Compiles += S.Compilations + S.OsrInCompilations + S.DeoptlessCompiles;
  InlinedCalls += S.InlinedCalls;
  HoistedInstrs += S.HoistedInstrs;
  HoistedGuards += S.HoistedGuards;
  EliminatedGuards += S.EliminatedGuards;
  NativeEnters += S.NativeEnters;
  NativeFusedOps += S.NativeFusedOps;
  NativeRegSpills += S.NativeRegSpills;
  NativeLinkedTransfers += S.NativeLinkedTransfers;
  GuardChecks += S.AssumeChecks;
  Deopts += S.Deopts;
  DeoptlessAttempts += S.DeoptlessAttempts;
  DeoptlessHits += S.DeoptlessHits;
  ContinuationCompiles += S.DeoptlessCompiles;
  DeoptlessRejected += S.DeoptlessRejected;
  OsrInEntries += S.OsrInEntries;
  GcCollections += S.GcCollections;
}

namespace {

/// Appends every sample of \p H at bucket resolution: the k-th of N
/// samples is the quantile at (k - 1/2) / N. The VM resets its process-
/// wide histograms in every Vm constructor, and they have no merge, so
/// this is how the samples of several Vms are pooled.
void expand(const obs::LatencyHistogram &H, std::vector<double> &Out) {
  uint64_t N = H.count();
  for (uint64_t K = 1; K <= N; ++K)
    Out.push_back(static_cast<double>(
        H.quantile((static_cast<double>(K) - 0.5) / static_cast<double>(N))));
}

} // namespace

void LayerAcc::addHistograms(const obs::VmMetrics &M) {
  expand(M.CompileLatency, CompileLatencyNs);
  expand(M.DeoptPause, DeoptPauseNs);
  expand(M.GcPause, GcPauseNs);
}

//===----------------------------------------------------------------------===//
// Layer replays
//===----------------------------------------------------------------------===//

void replayFrontEnd(const std::vector<std::string> &Sources, SpanRecorder *R) {
  for (const std::string &Src : Sources) {
    ParseResult P;
    {
      Scope S(R, "lang.parse");
      P = parseProgram(Src);
    }
    if (!P.ok())
      continue;
    Scope S(R, "bc.compile");
    BcResult B = compileToBc(*P.Ast);
    (void)B;
  }
}

void replayBackEnd(Vm &V, LayerAcc &L, SpanRecorder *R) {
  const Vm::Config &Cfg = V.config();
  OptOptions O;
  O.Speculate = Cfg.Speculate;
  O.Inline = Cfg.inlineView();
  O.Loop = Cfg.LoopOpts;
  O.VerifyEachPass = Cfg.VerifyBetweenPasses;
  std::unique_ptr<ExecBackend> Native =
      nativeBackendSupported() ? makeNativeBackend(Cfg.NativeV2) : nullptr;

  // The global closures the Vm has compiled at least once, with the
  // feedback they have now. The conventions are tried as the compile
  // service tries them: elided environment first, then a real one.
  std::vector<Function *> Hot;
  for (auto &[Sym, Val] : V.global()->bindings())
    if (Val.tag() == Tag::Clos &&
        V.stateFor(Val.closObj()->Fn).Versions.size() > 0)
      Hot.push_back(Val.closObj()->Fn);
  for (Function *Fn : Hot) {
    CallConv Conv = CallConv::FullElided;
    {
      Scope S(R, "opt.translate");
      std::unique_ptr<IrCode> Ir = translate(Fn, Conv, EntryState(), O);
      if (!Ir) {
        Conv = CallConv::FullEnv;
        Ir = translate(Fn, Conv, EntryState(), O);
      }
      if (!Ir)
        continue;
    }
    std::unique_ptr<IrCode> Ir;
    {
      Scope S(R, "opt.optimize");
      Ir = optimizeToIr(Fn, Conv, EntryState(), O);
    }
    if (!Ir)
      continue;
    for (const auto &B : Ir->Blocks)
      L.IrInstrs += static_cast<double>(B->Instrs.size());
    std::unique_ptr<LowFunction> Low;
    {
      Scope S(R, "lowcode.lower");
      Low = lowerToLow(*Ir);
    }
    L.LowInstrs += static_cast<double>(Low->Code.size());
    if (!Native)
      continue;
    std::unique_ptr<ExecutableCode> Exec;
    {
      Scope S(R, "native.prepare");
      Exec = Native->prepare(std::move(Low));
    }
  }
}

void sampleEvalFixed(Vm &V, LayerAcc &L, SpanRecorder *R) {
  Scope S(R, "vm.eval_fixed");
  for (int K = 0; K < 200; ++K) {
    uint64_t T0 = nowNs();
    V.eval("1L");
    L.EvalFixedUs.push_back(static_cast<double>(nowNs() - T0) * 1e-3);
  }
}

void timeCollect(Vm &V, LayerAcc &L, SpanRecorder *R) {
  uint64_t T0 = nowNs();
  {
    Scope S(R, "runtime.collect");
    V.collectHeap();
  }
  L.CollectMs += static_cast<double>(nowNs() - T0) * 1e-6;
}

//===----------------------------------------------------------------------===//
// The per-layer metrics
//===----------------------------------------------------------------------===//

std::vector<Metric> layerMetrics(const LayerAcc &L,
                                 const std::vector<const SpanRecorder *> &Rs,
                                 double TraceOverheadPct,
                                 const std::vector<double> &DriverLateMs) {
  const Counts &C = L.C;
  double Ops = static_cast<double>(std::max<uint64_t>(L.Ops, 1));
  auto Ms = [](const std::vector<double> &Ns, double Q) {
    return quantile(Ns, Q) * 1e-6;
  };
  double LatencySumNs = 0;
  for (double X : L.CompileLatencyNs)
    LatencySumNs += X;
  auto N = [](uint64_t X) { return static_cast<double>(X); };
  return {
      {"lang.parse_ms", totalMs(Rs, "lang.parse"), "ms"},
      {"bc.compile_ms", totalMs(Rs, "bc.compile"), "ms"},
      {"bc.interp_geomean_ms", geomean(L.InterpOpMs), "ms"},
      {"vm.eval_fixed_us", median(L.EvalFixedUs), "us"},
      {"opt.translate_ms", totalMs(Rs, "opt.translate"), "ms"},
      {"opt.optimize_ms", totalMs(Rs, "opt.optimize"), "ms"},
      {"opt.ir_instrs", L.IrInstrs, "count"},
      {"opt.inlined_calls", N(C.InlinedCalls), "count"},
      {"opt.hoisted_instrs", N(C.HoistedInstrs), "count"},
      {"opt.hoisted_guards", N(C.HoistedGuards), "count"},
      {"opt.eliminated_guards", N(C.EliminatedGuards), "count"},
      {"lowcode.lower_ms", totalMs(Rs, "lowcode.lower"), "ms"},
      {"lowcode.instrs", L.LowInstrs, "count"},
      {"native.emit_ms", totalMs(Rs, "native.prepare"), "ms"},
      {"native.enters", N(C.NativeEnters) / Ops, "count/op"},
      {"native.fused_ops", N(C.NativeFusedOps) / Ops, "count/op"},
      {"native.reg_spills", N(C.NativeRegSpills) / Ops, "count/op"},
      {"native.linked_transfers", N(C.NativeLinkedTransfers) / Ops,
       "count/op"},
      {"compile.jobs", N(C.Compiles), "count"},
      {"compile.latency_ms", LatencySumNs * 1e-6, "ms"},
      {"compile.latency_p99_ms", Ms(L.CompileLatencyNs, 0.99), "ms"},
      {"osr.guard_checks_per_op", N(C.GuardChecks) / Ops, "count/op"},
      {"osr.deopts", N(C.Deopts), "count"},
      {"osr.deoptless_hits", N(C.DeoptlessHits), "count"},
      {"osr.deoptless_hit_ratio",
       C.DeoptlessAttempts ? N(C.DeoptlessHits) / N(C.DeoptlessAttempts) : 0,
       "ratio"},
      {"osr.continuation_compiles", N(C.ContinuationCompiles), "count"},
      {"osr.deoptless_rejected", N(C.DeoptlessRejected), "count"},
      {"osr.deopt_pause_p99_ms", Ms(L.DeoptPauseNs, 0.99), "ms"},
      {"osr.osr_in_entries", N(C.OsrInEntries), "count"},
      {"runtime.gc_collections", N(C.GcCollections), "count"},
      {"runtime.gc_pause_p99_ms", Ms(L.GcPauseNs, 0.99), "ms"},
      {"runtime.collect_ms", L.CollectMs, "ms"},
      {"runtime.heap_live_mb", L.HeapLiveMb, "MB"},
      {"obs.trace_overhead_pct", TraceOverheadPct, "%"},
      {"driver.late_p99_ms", quantile(DriverLateMs, 0.99), "ms"},
  };
}

} // namespace perfbench
