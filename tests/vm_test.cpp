//===-- tests/vm_test.cpp - Tier manager & OSR integration tests -----------===//

#include "dispatch/context.h"
#include "native/native.h"
#include "osr/deoptless.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

using namespace rjit;

namespace {

Vm::Config cfg(TierStrategy S) {
  Vm::Config C;
  C.Strategy = S;
  C.CompileThreshold = 3;
  C.OsrThreshold = 100;
  return C;
}

/// The motivating example of the paper (Listing 1, adapted): sum over a
/// vector whose element type changes between phases.
const char *SumProgram = R"(
sum_data <- function(data) {
  total <- 0L
  for (i in 1:length(data)) total <- total + data[[i]]
  total
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// Baseline correctness through the Vm facade

TEST(VmBasic, EvalSimple) {
  Vm V(cfg(TierStrategy::BaselineOnly));
  EXPECT_EQ(V.eval("1L + 2L").asIntUnchecked(), 3);
}

TEST(VmBasic, FrontEndErrorsReported) {
  Vm V(cfg(TierStrategy::BaselineOnly));
  Value R;
  std::string E;
  EXPECT_FALSE(V.eval("f(", R, E));
  EXPECT_NE(E.find("parse error"), std::string::npos);
}

TEST(VmBasic, RuntimeErrorsRaise) {
  Vm V(cfg(TierStrategy::BaselineOnly));
  EXPECT_THROW(V.eval("undefined_var + 1"), RError);
}

TEST(VmBasic, StateIsolatedBetweenVms) {
  {
    Vm V(cfg(TierStrategy::BaselineOnly));
    V.eval("x <- 42L");
  }
  Vm W(cfg(TierStrategy::BaselineOnly));
  EXPECT_THROW(W.eval("x"), RError);
}

//===----------------------------------------------------------------------===//
// Tiering up

TEST(VmTiering, HotFunctionGetsCompiled) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval("f <- function(x) x * 2L");
  resetStats();
  V.eval("r <- 0L\nfor (i in 1:20) r <- f(i)\nr");
  EXPECT_GT(stats().Compilations, 0u);
}

TEST(VmTiering, OptimizedResultsMatchBaseline) {
  const char *Prog = R"(
    f <- function(v) {
      s <- 0
      for (i in 1:length(v)) s <- s + v[[i]] * 2
      s
    }
    x <- c(1.5, 2.5, 3.5)
    r <- 0
    for (k in 1:20) r <- f(x)
    r
  )";
  double Base, Opt;
  {
    Vm V(cfg(TierStrategy::BaselineOnly));
    Base = V.eval(Prog).toReal();
  }
  {
    Vm V(cfg(TierStrategy::Normal));
    Opt = V.eval(Prog).toReal();
    EXPECT_GT(stats().Compilations, 0u);
  }
  EXPECT_DOUBLE_EQ(Base, Opt);
}

TEST(VmTiering, RecursionCompiles) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval("fib <- function(n) if (n < 2L) n else fib(n-1L) + fib(n-2L)");
  EXPECT_EQ(V.eval("fib(15L)").asIntUnchecked(), 610);
  EXPECT_GT(stats().Compilations, 0u);
}

TEST(VmTiering, ClosureCapturingFunctionsStayCorrect) {
  Vm V(cfg(TierStrategy::Normal));
  Value R = V.eval(R"(
    make <- function(n) function(x) x + n
    f <- make(10L)
    r <- 0L
    for (i in 1:20) r <- f(i)
    r
  )");
  EXPECT_EQ(R.asIntUnchecked(), 30);
}

TEST(VmTiering, SuperAssignmentWorksOptimized) {
  Vm V(cfg(TierStrategy::Normal));
  Value R = V.eval(R"(
    counter <- 0L
    bump <- function(k) counter <<- counter + k
    for (i in 1:20) bump(1L)
    counter
  )");
  EXPECT_EQ(R.asIntUnchecked(), 20);
}

//===----------------------------------------------------------------------===//
// OSR-in

TEST(VmOsrIn, LongLoopTriggersOsrIn) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval("g <- function(n) { s <- 0L\nfor (i in 1:n) s <- s + i\ns }");
  resetStats();
  // Single call with a long loop: tier-up must happen mid-activation.
  Value R = V.eval("g(100000L)");
  EXPECT_EQ(R.asIntUnchecked(), 705082704); // wrapped 32-bit sum
  EXPECT_GT(stats().OsrInEntries, 0u);
}

TEST(VmOsrIn, TopLevelLoopTriggersOsrIn) {
  Vm V(cfg(TierStrategy::Normal));
  resetStats();
  Value R = V.eval("s <- 0\nfor (i in 1:50000) s <- s + 1.5\ns");
  EXPECT_DOUBLE_EQ(R.asRealUnchecked(), 75000.0);
  EXPECT_GT(stats().OsrInEntries, 0u);
}

TEST(VmOsrIn, DisabledMeansNoEntries) {
  Vm::Config C = cfg(TierStrategy::Normal);
  C.OsrIn = false;
  Vm V(C);
  resetStats();
  V.eval("s <- 0L\nfor (i in 1:5000) s <- s + i\ns");
  EXPECT_EQ(stats().OsrInEntries, 0u);
}

TEST(VmOsrIn, SpeculateOffReachesOsrInCompiles) {
  // Config::Speculate holds for every compile entry point: OSR-in code
  // compiled with speculation off has no guard to check, fail or
  // dispatch from — not even under injected failures.
  const char *Setup = "f <- function(l, n) {\n"
                      "  s <- 0L\n"
                      "  for (i in 1:n) s <- s + l[[(i %% 4L) + 1L]]\n"
                      "  s\n"
                      "}\n"
                      "l <- list(1L, 2L, 3L, 4L)\n";
  std::string Want;
  {
    Vm V(cfg(TierStrategy::BaselineOnly));
    V.eval(Setup);
    Want = V.eval("f(l, 3000L)").show();
  }
  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless}) {
    Vm::Config C = cfg(S);
    C.Speculate = false;
    if (S == TierStrategy::Deoptless)
      C.InvalidationRate = 50;
    Vm V(C);
    V.eval(Setup);
    EXPECT_EQ(V.eval("f(l, 3000L)").show(), Want);
    EXPECT_GT(stats().OsrInEntries, 0u);
    EXPECT_EQ(stats().AssumeChecks, 0u) << static_cast<int>(S);
    EXPECT_EQ(stats().DeoptlessCompiles, 0u) << static_cast<int>(S);
  }
}

//===----------------------------------------------------------------------===//
// Deoptimization (Normal strategy, Fig. 1 cycle)

TEST(VmDeopt, TypePhaseChangeDeopts) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  V.eval("reals <- c(1.5, 2.5, 3.5, 4.5)");
  for (int K = 0; K < 10; ++K)
    EXPECT_EQ(V.eval("sum_data(ints)").toInt(), 10);
  resetStats();
  // Phase change: the speculative int-typed code must deopt, and the
  // result must still be correct.
  EXPECT_DOUBLE_EQ(V.eval("sum_data(reals)").toReal(), 12.0);
  EXPECT_GT(stats().Deopts, 0u);
}

TEST(VmDeopt, RecompiledGenericCodeHandlesBoth) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  V.eval("reals <- c(1.5, 2.5, 3.5, 4.5)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  V.eval("sum_data(reals)");
  // Re-warm: recompiles with merged feedback; no further deopts.
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(reals)");
  resetStats();
  V.eval("sum_data(ints)");
  V.eval("sum_data(reals)");
  EXPECT_EQ(stats().Deopts, 0u)
      << "converged generic code must not deopt again";
}

TEST(VmDeopt, CallTargetChangeDeopts) {
  Vm V(cfg(TierStrategy::Normal));
  V.eval(R"(
    callee1 <- function(x) x + 1L
    callee2 <- function(x) x + 100L
    target <- callee1
    caller <- function(y) target(y)
  )");
  for (int K = 0; K < 10; ++K)
    EXPECT_EQ(V.eval("caller(1L)").toInt(), 2);
  resetStats();
  V.eval("target <- callee2");
  EXPECT_EQ(V.eval("caller(1L)").toInt(), 101)
      << "deopt must preserve call semantics";
}

TEST(VmDeopt, MidLoopDeoptPreservesPartialState) {
  // The list switches type half way: the deopt happens mid-loop with a
  // live partial sum that must be carried into the interpreter.
  Vm V(cfg(TierStrategy::Normal));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  Value R = V.eval("sum_data(list(1L, 2L, 1.5, 4L))");
  EXPECT_DOUBLE_EQ(R.toReal(), 8.5);
}

//===----------------------------------------------------------------------===//
// Deoptless (Fig. 2)

TEST(VmDeoptless, PhaseChangeAvoidsTrueDeopt) {
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  V.eval("reals <- c(1.5, 2.5, 3.5, 4.5)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  resetStats();
  EXPECT_DOUBLE_EQ(V.eval("sum_data(reals)").toReal(), 12.0);
  EXPECT_EQ(stats().Deopts, 0u) << "deoptless must not tier down";
  EXPECT_GT(stats().DeoptlessCompiles, 0u);
}

TEST(VmDeoptless, ContinuationIsReused) {
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  V.eval("reals <- c(1.5, 2.5, 3.5, 4.5)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  V.eval("sum_data(reals)"); // compiles the continuation
  resetStats();
  for (int K = 0; K < 5; ++K)
    EXPECT_DOUBLE_EQ(V.eval("sum_data(reals)").toReal(), 12.0);
  EXPECT_GT(stats().DeoptlessHits, 0u)
      << "subsequent deopts must dispatch to the cached continuation";
  EXPECT_EQ(stats().DeoptlessCompiles, 0u);
  EXPECT_EQ(stats().Deopts, 0u);
}

TEST(VmDeoptless, OriginalCodeRetained) {
  // Fig. 4's last phase: going back to the original type must be as fast
  // as before — i.e. the optimized version still exists and does not
  // re-deopt for ints.
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  V.eval("reals <- c(1.5, 2.5, 3.5, 4.5)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  V.eval("sum_data(reals)");
  resetStats();
  EXPECT_EQ(V.eval("sum_data(ints)").toInt(), 10);
  EXPECT_EQ(stats().Deopts, 0u);
  EXPECT_EQ(stats().DeoptlessAttempts, 0u)
      << "the int path must not even reach the deopt runtime";
}

TEST(VmDeoptless, MultiplePhasesMultipleContinuations) {
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L)");
  V.eval("reals <- c(1.5, 2.5)");
  V.eval("cplxs <- c(1i, 2i)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  V.eval("sum_data(reals)");
  Value C = V.eval("sum_data(cplxs)");
  EXPECT_EQ(C.tag(), Tag::Cplx);
  EXPECT_DOUBLE_EQ(C.asCplxUnchecked().Im, 3.0);
  EXPECT_GE(stats().DeoptlessCompiles, 2u)
      << "different phases need differently specialized continuations";
}

TEST(VmDeoptless, TableBoundFallsBackToDeopt) {
  Vm::Config C = cfg(TierStrategy::Deoptless);
  C.MaxContinuations = 1;
  Vm V(C);
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L)");
  for (int K = 0; K < 10; ++K)
    V.eval("sum_data(ints)");
  V.eval("sum_data(c(1.5, 2.5))"); // fills the single slot
  // Re-warm the function after the listener retired it (it should not
  // have); a different phase cannot get a continuation anymore.
  resetStats();
  V.eval("sum_data(c(1i, 2i))");
  EXPECT_GT(stats().Deopts + stats().DeoptlessRejected, 0u);
}

TEST(VmDeoptless, ResultsAlwaysMatchBaseline) {
  const char *Drive = R"(
    r <- 0
    r <- r + sum_data(c(1L, 2L, 3L))
    r <- r + sum_data(c(1.5, 2.5))
    r <- r + sum_data(c(10L, 20L))
    r <- r + sum_data(c(0.5))
    r
  )";
  double Base, DL;
  {
    Vm V(cfg(TierStrategy::BaselineOnly));
    V.eval(SumProgram);
    for (int K = 0; K < 12; ++K)
      V.eval("sum_data(c(7L, 8L))");
    Base = V.eval(Drive).toReal();
  }
  {
    Vm V(cfg(TierStrategy::Deoptless));
    V.eval(SumProgram);
    for (int K = 0; K < 12; ++K)
      V.eval("sum_data(c(7L, 8L))");
    DL = V.eval(Drive).toReal();
  }
  EXPECT_DOUBLE_EQ(Base, DL);
}

TEST(VmDeoptless, ContinuationTablesArePerFunction) {
  // Each function's continuations live in its own tier state: a failure
  // in one function neither fills nor reads another function's table.
  Vm V(cfg(TierStrategy::Deoptless));
  V.eval("sa <- function(d) { t <- 0L\n"
         "for (i in 1:length(d)) t <- t + d[[i]]\nt }\n"
         "sb <- function(d) { t <- 0L\n"
         "for (i in 1:length(d)) t <- t + d[[i]]\nt }\n"
         "ints <- c(1L, 2L, 3L, 4L)\n"
         "reals <- c(1.5, 2.5, 3.5, 4.5)\n");
  for (int K = 0; K < 10; ++K) {
    V.eval("sa(ints)");
    V.eval("sb(ints)");
  }
  DeoptlessTable &A = V.stateFor(V.eval("sa").closObj()->Fn).Deoptless;
  DeoptlessTable &B = V.stateFor(V.eval("sb").closObj()->Fn).Deoptless;
  EXPECT_DOUBLE_EQ(V.eval("sa(reals)").toReal(), 12.0);
  ASSERT_EQ(A.size(), 1u);
  EXPECT_EQ(B.size(), 0u);
  Continuation *ACont = A.entries()[0];
  EXPECT_DOUBLE_EQ(V.eval("sb(reals)").toReal(), 12.0);
  EXPECT_EQ(B.size(), 1u);
  ASSERT_EQ(A.size(), 1u);
  EXPECT_EQ(A.entries()[0], ACont);
  EXPECT_EQ(ACont->Hits, 1u);
  EXPECT_EQ(stats().Deopts, 0u);
}

TEST(VmDeoptless, TablesFreedByATeardownOffTheExecutor) {
  // A Vm destroyed on another thread than the one that ran it still frees
  // its continuation tables (with the native tier, their code returns its
  // mappings to the injected backend; the ASan job checks the rest).
  std::unique_ptr<ExecBackend> Native;
  if (nativeBackendSupported())
    Native = makeNativeBackend(NativeTierOptions());
  std::unique_ptr<Vm> V;
  std::thread Executor([&] {
    Vm::Config C = cfg(TierStrategy::Deoptless);
    C.Backend = Native.get();
    V = std::make_unique<Vm>(C);
    V->eval(SumProgram);
    V->eval("ints <- c(1L, 2L, 3L, 4L)\nreals <- c(1.5, 2.5, 3.5, 4.5)");
    for (int K = 0; K < 10; ++K)
      V->eval("sum_data(ints)");
    EXPECT_DOUBLE_EQ(V->eval("sum_data(reals)").toReal(), 12.0);
    EXPECT_EQ(
        V->stateFor(V->eval("sum_data").closObj()->Fn).Deoptless.size(), 1u);
  });
  Executor.join();
  if (Native)
    EXPECT_GT(Native->liveCodeBlocks(), 0u);
  V.reset();
  if (Native)
    EXPECT_EQ(Native->liveCodeBlocks(), 0u);
}

//===----------------------------------------------------------------------===//
// Random invalidation mode (§5.1 methodology)

TEST(VmInvalidation, InjectedFailuresDeoptNormally) {
  Vm::Config C = cfg(TierStrategy::Normal);
  C.InvalidationRate = 100; // aggressive for the test
  Vm V(C);
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  int64_t Sum = 0;
  for (int K = 0; K < 30; ++K)
    Sum += V.eval("sum_data(ints)").toInt();
  EXPECT_EQ(Sum, 300) << "injected failures must not change results";
  EXPECT_GT(stats().InjectedFailures, 0u);
  EXPECT_GT(stats().Deopts, 0u);
}

TEST(VmInvalidation, DeoptlessAbsorbsInjectedFailures) {
  Vm::Config C = cfg(TierStrategy::Deoptless);
  C.InvalidationRate = 100;
  Vm V(C);
  V.eval(SumProgram);
  V.eval("ints <- c(1L, 2L, 3L, 4L)");
  int64_t Sum = 0;
  for (int K = 0; K < 30; ++K)
    Sum += V.eval("sum_data(ints)").toInt();
  EXPECT_EQ(Sum, 300);
  EXPECT_GT(stats().InjectedFailures, 0u);
  EXPECT_GT(stats().DeoptlessCompiles + stats().DeoptlessHits, 0u)
      << "injected failures should be handled by deoptless";
}

TEST(VmInvalidation, CrossThreadInjectionDuringHotDispatch) {
  // Vm::injectInvalidation is the one Vm entry point callable from a
  // non-executor thread (the server bench's chaos injector). The executor
  // consumes pending injections at its own dispatch boundary and arms the
  // thread-local countdown there, so the native tier's non-atomic
  // countdown loads never race and version-table mutation stays on the
  // executor — this runs under the TSan CI job to prove it.
  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless}) {
    Vm V(cfg(S));
    V.eval(SumProgram);
    V.eval("ints <- c(1L, 2L, 3L, 4L)");
    for (int K = 0; K < 10; ++K) // get the optimized version hot first
      V.eval("sum_data(ints)");
    resetStats();
    std::atomic<bool> Stop{false};
    std::thread Injector([&] {
      while (!Stop.load(std::memory_order_relaxed)) {
        V.injectInvalidation();
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
    // Keep dispatching until a few injections have demonstrably fired
    // (the injector thread may take milliseconds to get scheduled at
    // all); the cap bounds the test if injection is broken outright.
    int64_t Sum = 0;
    int Evals = 0;
    const int MinEvals = 400, MaxEvals = 400000;
    while (Evals < MaxEvals &&
           (Evals < MinEvals || stats().InjectedFailures < 3)) {
      Sum += V.eval("sum_data(ints)").toInt();
      ++Evals;
    }
    Stop.store(true, std::memory_order_relaxed);
    Injector.join();
    EXPECT_EQ(Sum, static_cast<int64_t>(Evals) * 10)
        << "cross-thread injection must never change results (strategy "
        << static_cast<int>(S) << ")";
    EXPECT_GT(stats().InjectedFailures, 0u)
        << "injections must actually reach a guard (strategy "
        << static_cast<int>(S) << ")";
    if (S == TierStrategy::Deoptless)
      EXPECT_GT(stats().DeoptlessHits + stats().DeoptlessCompiles, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Profile-driven reoptimization comparator (Fig. 11)

TEST(VmReopt, SamplingRecompilesOnProfileChange) {
  Vm::Config C = cfg(TierStrategy::ProfileDrivenReopt);
  C.ReoptSampleEvery = 5;
  Vm V(C);
  // A function whose profile changes without any deopt: the generic `+`
  // sees ints first, then reals through a list container (no typecheck
  // guard on the container contents once generic).
  V.eval(R"(
    mix <- function(l) {
      s <- 0
      for (i in 1:length(l)) s <- s + l[[i]]
      s
    }
  )");
  V.eval("a <- list(1L, 2L, 3L)");
  V.eval("b <- list(1.5, 2.5, 3.5)");
  for (int K = 0; K < 10; ++K)
    V.eval("mix(a)");
  for (int K = 0; K < 40; ++K)
    V.eval("mix(b)");
  EXPECT_GE(stats().Reoptimizations + stats().Deopts, 1u);
}

//===----------------------------------------------------------------------===//
// Graveyard lifecycle: a retired executable — LowCode- or native-backed —
// must land in the graveyard first (its frames may still be live when the
// deopt handler runs), then be reclaimed by the dispatch-boundary
// safepoint once its retire epoch drains; teardown reclaims whatever the
// safepoints didn't. Observable through the GraveyardSize gauge.

TEST(VmGraveyard, RetiredExecutablesAreGraveyardedThenReclaimed) {
  for (bool Native : {false, true}) {
    if (Native && !nativeBackendSupported())
      continue;
    Vm::Config C = cfg(TierStrategy::Normal);
    C.NativeTier = Native;
    {
      Vm V(C);
      V.eval(SumProgram);
      for (int K = 0; K < 5; ++K)
        V.eval("sum_data(1:50)");
      ASSERT_EQ(stats().GraveyardSize, 0u)
          << "nothing retired yet (native=" << Native << ")";
      // Phase change: the int-speculated version deopts and is retired.
      // No dispatch happens between the retire and this assert (the eval
      // finishes in the baseline), so the safepoint hasn't run yet and
      // the retired executable must still be graveyarded, not freed.
      V.eval("sum_data(as.numeric(1:50))");
      EXPECT_GT(stats().Deopts, 0u);
      EXPECT_GT(stats().GraveyardSize, 0u)
          << "the retired executable must be graveyarded, not freed "
             "(native="
          << Native << ")";
      if (Native) {
        EXPECT_GT(stats().NativeCompiles, 0u);
        EXPECT_GT(stats().NativeEnters, 0u)
            << "the retired code must actually have run natively";
      }
      // The next closure dispatch is a safepoint with no optimized
      // activation live: every graveyarded entry's epoch is drained, so
      // reclamation happens mid-run, well before teardown.
      V.eval("sum_data(as.numeric(1:50))");
      EXPECT_EQ(stats().GraveyardSize, 0u)
          << "the dispatch-boundary safepoint must reclaim drained "
             "entries mid-run (native="
          << Native << ")";
    }
    EXPECT_EQ(stats().GraveyardSize, 0u);
  }
}

TEST(VmGraveyard, TeardownReclaimsWhenSafepointsAreOff) {
  // SafepointInterval = 0 is the pre-safepoint (and fuzzer-baseline)
  // behavior: nothing is reclaimed mid-run, teardown drains everything.
  Vm::Config C = cfg(TierStrategy::Normal);
  C.SafepointInterval = 0;
  {
    Vm V(C);
    V.eval(SumProgram);
    for (int K = 0; K < 5; ++K)
      V.eval("sum_data(1:50)");
    V.eval("sum_data(as.numeric(1:50))");
    EXPECT_GT(stats().Deopts, 0u);
    EXPECT_GT(stats().GraveyardSize, 0u);
    for (int K = 0; K < 10; ++K)
      V.eval("sum_data(as.numeric(1:50))");
    EXPECT_GT(stats().GraveyardSize, 0u)
        << "with safepoints off the graveyard must survive further "
           "dispatches until teardown";
  }
  EXPECT_EQ(stats().GraveyardSize, 0u)
      << "teardown must reclaim retired executables";
}

TEST(VmGraveyard, MidRunStatsResetDoesNotCorruptTheGauge) {
  // The gauge level is owner-tracked (setLevel), so a resetStats() while
  // the graveyard is populated self-heals at the next retire/reclaim
  // instead of saturating the later drain and under-reporting forever.
  Vm::Config C = cfg(TierStrategy::Normal);
  C.SafepointInterval = 0; // keep the population visible across evals
  {
    Vm V(C);
    V.eval(SumProgram);
    for (int K = 0; K < 5; ++K)
      V.eval("sum_data(1:50)");
    V.eval("sum_data(as.numeric(1:50))");
    ASSERT_GT(stats().GraveyardSize, 0u);
    resetStats(); // bench harnesses do this between phases
    ASSERT_EQ(stats().GraveyardSize, 0u);
    // Retire a *second* executable (a fresh function: sum_data's
    // re-profiled feedback now covers doubles, so it won't deopt again):
    // the graveyard touch must re-sync the gauge to the true population
    // (the pre-reset entry included), not report a delta of 1.
    V.eval("sum2 <- function(data) {\n"
           "  total <- 0L\n"
           "  for (i in 1:length(data)) total <- total + data[[i]]\n"
           "  total\n"
           "}");
    for (int K = 0; K < 5; ++K)
      V.eval("sum2(1:60)");
    V.eval("sum2(as.numeric(1:60))");
    EXPECT_GE(stats().GraveyardSize, 2u)
        << "the gauge must re-sync to the owner-tracked level after a "
           "mid-run reset";
  }
  EXPECT_EQ(stats().GraveyardSize, 0u);
}

TEST(VmGraveyard, ReoptStormKeepsMemoryBounded) {
  // The soak test behind the ROADMAP's "unbounded code growth under
  // reopt-heavy long-running traffic" concern: injected guard failures
  // force a deopt -> retire -> re-warm -> recompile cycle over and over.
  // Without safepoint reclamation the graveyard grows by one executable
  // per cycle; with it, the high-water must stay a small constant, and
  // for the native tier the per-function W^X mappings must actually be
  // returned (live mappings stay near the live-version count while the
  // compile counter keeps climbing).
  for (bool Native : {false, true}) {
    if (Native && !nativeBackendSupported())
      continue;
    Vm::Config C = cfg(TierStrategy::Normal);
    C.NativeTier = Native;
    C.CompileThreshold = 2;
    C.DeoptBlacklist = 100000; // never give up: keep the cycle going
    C.InvalidationRate = 4;    // 1-in-4 guard checks fail (§5.1 mode)
    C.InvalidationSeed = 7;
    Vm V(C);
    V.eval(SumProgram);
    resetStats();
    // A reopt cycle (rewarm to the threshold, optimized run, injected
    // failure, retire) empirically takes ~5-6 evals with this rate and
    // seed, so 800 evals drive well over the 100 cycles the bound is
    // asserted across. The nightly soak tier (RJIT_SOAK=1, `soak` ctest
    // label) multiplies the storm length under the sanitizers.
    const char *Soak = std::getenv("RJIT_SOAK");
    int Cycles = 800 * ((Soak && *Soak && *Soak != '0') ? 5 : 1);
    for (int Cycle = 0; Cycle < Cycles; ++Cycle)
      V.eval("sum_data(1:40)");
    EXPECT_GE(stats().Deopts, 100u)
        << "the storm must actually drive reopt cycles (native=" << Native
        << ")";
    EXPECT_GE(stats().Compilations, 100u);
    EXPECT_LT(stats().GraveyardSize.highWater(), 8u)
        << "retired code must be reclaimed between cycles, not "
           "accumulated (native="
        << Native << ")";
    if (Native) {
      EXPECT_GE(stats().NativeCompiles, 100u);
      EXPECT_LE(V.backend()->liveCodeBlocks(), 16u)
          << "reclaim must unmap native code, not just delete wrappers: "
             "live W^X mappings can't track the compile count";
    }
  }
}

//===----------------------------------------------------------------------===//
// Heavier cross-strategy equivalence

TEST(VmEquivalence, AllStrategiesAgreeOnMixedWorkload) {
  const char *Setup = R"(
    work <- function(v, n) {
      acc <- 0
      for (k in 1:n) {
        for (i in 1:length(v)) {
          x <- v[[i]]
          if (x > 2) acc <- acc + x * 2 else acc <- acc - x
        }
      }
      acc
    }
  )";
  const char *Drive = R"(
    r1 <- work(c(1L, 2L, 3L, 4L), 30L)
    r2 <- work(c(0.5, 2.5, 4.5), 30L)
    r3 <- work(c(1L, 2L, 3L, 4L), 5L)
    r1 + r2 + r3
  )";
  double Results[3];
  TierStrategy Strategies[] = {TierStrategy::BaselineOnly,
                               TierStrategy::Normal,
                               TierStrategy::Deoptless};
  for (int S = 0; S < 3; ++S) {
    Vm V(cfg(Strategies[S]));
    V.eval(Setup);
    Results[S] = V.eval(Drive).toReal();
  }
  EXPECT_DOUBLE_EQ(Results[0], Results[1]);
  EXPECT_DOUBLE_EQ(Results[0], Results[2]);
}

//===----------------------------------------------------------------------===//
// Builtin rebinding: top-level functions read builtin names as constants
// under an epoch guard; every rebind must still be observed exactly as
// the baseline observes it.

namespace {

/// True when the generic version of \p Fn holds a GuardCond of \p Kind.
bool versionHasGuard(Vm &V, Function *Fn, GuardKind Kind) {
  FnVersion *Ver =
      V.stateFor(Fn).Versions.dispatch(genericContext(Fn->Params.size()));
  if (!Ver || !Ver->code())
    return false;
  for (const LowInstr &I : Ver->code()->low().Code)
    if (I.Op == LowOp::GuardCond && I.C == Kind)
      return true;
  return false;
}

Function *fnNamed(Vm &V, const char *Name) {
  return V.eval(Name).closObj()->Fn;
}

std::string runSteps(Vm &V, const std::vector<std::string> &Steps) {
  std::string Out;
  for (const std::string &S : Steps)
    Out += V.eval(S).show() + "\n";
  return Out;
}

/// One rebinding scenario: \p Warm compiles \p Guarded with an epoch
/// guard; \p After starts with a rebind of a builtin name, so the next
/// call of \p Guarded fails that guard.
struct RebindCase {
  const char *Setup;
  std::vector<std::string> Warm;
  const char *Guarded;
  std::vector<std::string> After;
};

/// Runs \p C under {Normal, Deoptless} x {LowCode, native}: every
/// transcript equals BaselineOnly's, \p Guarded holds an epoch guard
/// after warm-up, and an epoch guard fails once the builtin is rebound.
/// \p Check runs on each warm optimized Vm.
template <typename CheckFn>
void expectRebindAgrees(const RebindCase &C, CheckFn Check) {
  std::string Base;
  {
    Vm V(cfg(TierStrategy::BaselineOnly));
    V.eval(C.Setup);
    Base = runSteps(V, C.Warm);
    Base += runSteps(V, C.After);
  }
  std::vector<bool> Backends{false};
  if (nativeBackendSupported())
    Backends.push_back(true);
  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless})
    for (bool Native : Backends) {
      Vm::Config Cf = cfg(S);
      Cf.NativeTier = Native;
      Vm V(Cf);
      V.eval(C.Setup);
      std::string Label = std::string(S == TierStrategy::Normal
                                          ? "normal"
                                          : "deoptless") +
                          (Native ? "/native" : "/lowcode");
      std::string Got = runSteps(V, C.Warm);
      EXPECT_TRUE(versionHasGuard(V, fnNamed(V, C.Guarded), GuardEpoch))
          << Label << ": " << C.Guarded << " compiled without an epoch guard";
      EXPECT_EQ(V.global()->builtinEpoch().load(), 0u) << Label;
      Check(V, Label);
      uint64_t Failures = stats().AssumeFailures;
      Got += runSteps(V, C.After);
      EXPECT_GT(V.global()->builtinEpoch().load(), 0u) << Label;
      EXPECT_GT(stats().AssumeFailures, Failures)
          << Label << ": no guard failed after the rebind";
      EXPECT_EQ(Got, Base) << Label;
    }
}

void noCheck(Vm &, const std::string &) {}

} // namespace

TEST(BuiltinRebind, TopLevelRebindBetweenCalls) {
  RebindCase C{R"(
f <- function(n) {
  s <- 0
  for (i in 1:n) s <- s + Mod(i * 1i)
  s
}
)",
               {"f(30L)", "f(30L)", "f(30L)", "f(30L)"},
               "f",
               {"Mod <- function(z) 100", "f(30L)", "f(30L)", "f(30L)"}};
  expectRebindAgrees(C, noCheck);
}

TEST(BuiltinRebind, CalleeSuperAssignsMidLoop) {
  // The loop calls a closure, so its epoch guard stays per iteration: the
  // iteration after the rebind fails it and resumes at the read of Mod.
  RebindCase C{R"(
rebind <- function() {
  Mod <<- function(z) 1000
  0
}
g <- function(n, k) {
  s <- 0
  for (i in 1:n) {
    s <- s + Mod(-i)
    if (i == k) s <- s + rebind()
  }
  s
}
)",
               {"g(20L, 0L)", "g(20L, 0L)", "g(20L, 0L)", "g(20L, 0L)"},
               "g",
               {"g(20L, 10L)", "g(20L, 0L)", "g(20L, 0L)", "g(20L, 0L)"}};
  expectRebindAgrees(C, noCheck);
}

TEST(BuiltinRebind, RebindBeforeAHoistedEpochGuard) {
  // Nothing in the loop can rebind a builtin, so its epoch guard runs
  // once, in the preheader.
  RebindCase C{R"(
h <- function(v, n) {
  s <- 0L
  for (i in 1:n) s <- s + length(v)
  s
}
)",
               {"h(1:7, 10L)", "h(1:7, 10L)", "h(1:7, 10L)", "h(1:7, 10L)"},
               "h",
               {"length <- function(x) 2L", "h(1:7, 10L)", "h(1:7, 10L)",
                "h(1:7, 10L)"}};
  expectRebindAgrees(C, [](Vm &, const std::string &Label) {
    EXPECT_GT(stats().HoistedGuards, 0u)
        << Label << ": the epoch guard was not hoisted";
  });
}

TEST(BuiltinRebind, LocalsNamedLikeBuiltinsStayLocal) {
  // `c` (a parameter) and `sum` (a local) shadow builtins inside k: their
  // reads are locals, never the builtin constants.
  RebindCase C{R"(
k <- function(c, n) {
  sum <- 0
  for (i in 1:n) sum <- sum + c * i
  sum + length(c)
}
)",
               {"k(2, 10L)", "k(2.5, 10L)", "k(2, 10L)", "k(2, 10L)"},
               "k",
               {"bitwXor <- 0L", "k(2, 10L)", "k(3, 4L)"}};
  expectRebindAgrees(C, noCheck);
}

TEST(BuiltinRebind, NestedFunctionsKeepTheIdentityGuard) {
  // inner is not top-level (its enclosing frame could bind abs), and
  // outer needs a real environment: both read abs through the
  // environment, inner under the builtin-identity guard.
  RebindCase C{R"(
outer <- function(n) {
  inner <- function(x) abs(x) - 1
  s <- 0
  for (i in 1:n) s <- s + inner(-i)
  s
}
drive <- function(n) outer(n) + sqrt(4)
)",
               {"drive(10L)", "drive(10L)", "drive(10L)", "drive(10L)",
                "drive(10L)"},
               "drive",
               {"abs <- function(x) 5", "drive(10L)", "drive(10L)",
                "drive(10L)"}};
  expectRebindAgrees(C, [](Vm &V, const std::string &Label) {
    Function *Inner = fnNamed(V, "outer")->InnerFns[0];
    EXPECT_TRUE(versionHasGuard(V, Inner, GuardBuiltin)) << Label;
    EXPECT_FALSE(versionHasGuard(V, Inner, GuardEpoch)) << Label;
  });
}

TEST(BuiltinRebind, RebindInOneVmLeavesAnotherVmsGuards) {
  // Vms are one per thread: the second runs (and rebinds Mod) on its own
  // thread while the first keeps its compiled code.
  const char *Setup = R"(
f <- function(n) {
  s <- 0
  for (i in 1:n) s <- s + Mod(i * 1i)
  s
}
)";
  std::vector<bool> Backends{false};
  if (nativeBackendSupported())
    Backends.push_back(true);
  for (bool Native : Backends) {
    Vm::Config Cf = cfg(TierStrategy::Deoptless);
    Cf.NativeTier = Native;
    Vm V(Cf);
    V.eval(Setup);
    for (int K = 0; K < 4; ++K)
      EXPECT_EQ(V.eval("f(30L)").show(), "465");
    Function *Fn = fnNamed(V, "f");
    ASSERT_TRUE(versionHasGuard(V, Fn, GuardEpoch));
    FnVersion *Ver =
        V.stateFor(Fn).Versions.dispatch(genericContext(Fn->Params.size()));
    ExecutableCode *Code = Ver->code();
    uint64_t Hits = Ver->Hits;

    std::thread Other([&] {
      Vm W(Cf);
      W.eval(Setup);
      for (int K = 0; K < 4; ++K)
        W.eval("f(30L)");
      W.eval("Mod <- function(z) 100");
      EXPECT_EQ(W.eval("f(30L)").show(), "3000");
      EXPECT_GT(W.global()->builtinEpoch().load(), 0u);
    });
    Other.join();

    EXPECT_EQ(V.global()->builtinEpoch().load(), 0u);
    for (int K = 0; K < 3; ++K)
      EXPECT_EQ(V.eval("f(30L)").show(), "465");
    EXPECT_EQ(Ver->code(), Code) << "the other Vm's rebind retired f";
    EXPECT_EQ(Ver->DeoptCount, 0u);
    EXPECT_EQ(Ver->Hits, Hits + 3);
  }
}
