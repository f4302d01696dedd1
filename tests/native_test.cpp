//===-- tests/native_test.cpp - Execution-backend seam & template JIT ------===//
//
// Unit and end-to-end coverage for the pluggable-backend refactor:
//
//  * the seam itself — prepare() wrapping, low() identity, the interpreter
//    backend as the portable fallback;
//  * the x86-64 template JIT — hand-built LowCode run natively, end-to-end
//    parity with the interpreter backend across tier strategies, guard
//    side exits feeding the unchanged deopt machinery (true deopt,
//    deoptless dispatch, multi-frame OSR-out from inlined frames), and
//    the injected-invalidation slow path through native guards;
//  * register homes — the allocator's per-pc home liveness, the exact
//    home-sync count around helper calls, live homes surviving helper
//    calls and side exits, and the inline Box / boxed Move templates
//    with their slow stubs.
//
// Native cases skip (not fail) on hosts without the backend; the seam
// cases run everywhere.
//
//===----------------------------------------------------------------------===//

#include "dispatch/context.h"
#include "dispatch/version.h"
#include "native/native.h"
#include "native/regalloc.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

#include <limits>

using namespace rjit;

namespace {

/// Hand-built "return the integer constant 7" LowCode.
std::unique_ptr<LowFunction> const7() {
  auto F = std::make_unique<LowFunction>();
  F->NumSlots = 1;
  F->Consts.push_back(Value::integer(7));
  LowInstr Ld;
  Ld.Op = LowOp::LoadConst;
  Ld.Dst = 0;
  Ld.B = static_cast<uint16_t>(SlotClass::Boxed);
  Ld.Imm = 0;
  F->Code.push_back(Ld);
  LowInstr Ret;
  Ret.Op = LowOp::RetLow;
  Ret.A = 0;
  F->Code.push_back(Ret);
  return F;
}

Vm::Config cfg(TierStrategy S, bool Native) {
  Vm::Config C;
  C.Strategy = S;
  C.CompileThreshold = 2;
  C.OsrThreshold = 100;
  C.NativeTier = Native;
  return C;
}

/// Runs Setup once and Driver \p Reps times under \p C; returns the last
/// value rendered.
std::string runUnder(Vm::Config C, const std::string &Setup,
                     const std::string &Driver, int Reps = 8) {
  Vm V(C);
  V.eval(Setup);
  Value R;
  for (int K = 0; K < Reps; ++K)
    R = V.eval(Driver);
  return R.show();
}

} // namespace

//===----------------------------------------------------------------------===//
// The seam

TEST(BackendSeam, InterpBackendWrapsAndRuns) {
  std::unique_ptr<LowFunction> Low = const7();
  const LowFunction *Raw = Low.get();
  std::unique_ptr<ExecutableCode> X =
      interpBackend().prepare(std::move(Low));
  ASSERT_NE(X, nullptr);
  EXPECT_STREQ(X->backendName(), "interp");
  EXPECT_EQ(X->lowPtr(), Raw) << "low() must be the identity the deopt "
                                 "runtime keys on";
  Value R = X->run({}, nullptr, nullptr);
  EXPECT_EQ(R.asIntUnchecked(), 7);
}

TEST(BackendSeam, NullBackendResolvesToInterp) {
  EXPECT_EQ(&backendOr(nullptr), &interpBackend());
}

TEST(BackendSeam, UnsupportedHostsReportNoNativeBackend) {
  // On supported hosts makeNativeBackend() must produce a backend; on
  // unsupported ones it must return null (and the Vm falls back).
  std::unique_ptr<ExecBackend> B = makeNativeBackend();
  EXPECT_EQ(B != nullptr, nativeBackendSupported());
}

//===----------------------------------------------------------------------===//
// The template JIT

TEST(NativeJit, RunsHandBuiltCode) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  std::unique_ptr<ExecBackend> B = makeNativeBackend();
  ASSERT_NE(B, nullptr);
  std::unique_ptr<ExecutableCode> X = B->prepare(const7());
  ASSERT_NE(X, nullptr);
  EXPECT_STREQ(X->backendName(), "native-x64");
  EXPECT_EQ(X->run({}, nullptr, nullptr).asIntUnchecked(), 7);
}

TEST(NativeJit, TypedLoopMatchesInterpreter) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  const char *Setup = R"(
    f <- function(n) {
      s <- 0
      for (i in 1:n) s <- s + i * 0.5
      s
    }
  )";
  std::string Interp =
      runUnder(cfg(TierStrategy::Normal, false), Setup, "f(5000L)");
  resetStats();
  std::string Native =
      runUnder(cfg(TierStrategy::Normal, true), Setup, "f(5000L)");
  EXPECT_EQ(Interp, Native);
  EXPECT_GT(stats().NativeCompiles, 0u);
  EXPECT_GT(stats().NativeEnters, 0u) << "the JIT must actually run";
}

TEST(NativeJit, RealCompareBranchesMatchInterpreter) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // Drives the fused double compare-branch templates (ucomisd with
  // swapped-operand encodings and the parity fixups of ==/!=), which
  // the int-typed grids never reach — including NaN operands, where
  // C++'s "unordered compares are false" must survive the jcc mapping.
  const char *Ops[] = {"<", "<=", ">", ">=", "==", "!="};
  for (const char *Op : Ops) {
    std::string Setup =
        std::string("g <- function(a, b) {\n  n <- 0L\n"
                    "  for (i in 1:10) if (a ") +
        Op + " b) n <- n + 1L else n <- n - 1L\n  n\n}\n";
    for (const char *Args :
         {"2.5, 2.5", "1.5, 2.5", "2.5, 1.5", "0 / 0, 1.0",
          "1.0, 0 / 0", "0 / 0, 0 / 0"}) {
      std::string Driver = std::string("g(") + Args + ")";
      std::string Interp =
          runUnder(cfg(TierStrategy::Normal, false), Setup, Driver);
      std::string Native =
          runUnder(cfg(TierStrategy::Normal, true), Setup, Driver);
      EXPECT_EQ(Interp, Native) << "op " << Op << " args " << Args;
    }
  }
}

TEST(NativeJit, GuardSideExitDrivesTrueDeopt) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  const char *Setup = R"(
    sum_data <- function(data) {
      total <- 0L
      for (i in 1:length(data)) total <- total + data[[i]]
      total
    }
  )";
  Vm V(cfg(TierStrategy::Normal, true));
  V.eval(Setup);
  for (int K = 0; K < 5; ++K)
    V.eval("sum_data(1:40)");
  ASSERT_GT(stats().NativeEnters, 0u);
  // Phase change: a native guard must side-exit into the unchanged OSR
  // machinery and produce the interpreter's exact result.
  EXPECT_EQ(V.eval("sum_data(as.numeric(1:40)) + 0.5").show(), "820.5");
  EXPECT_GT(stats().Deopts, 0u) << "the side exit must reach OSR-out";
}

TEST(NativeJit, GuardSideExitDrivesDeoptlessDispatch) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  const char *Setup = R"(
    sum_data <- function(data) {
      total <- 0L
      for (i in 1:length(data)) total <- total + data[[i]]
      total
    }
  )";
  Vm V(cfg(TierStrategy::Deoptless, true));
  V.eval(Setup);
  for (int K = 0; K < 5; ++K)
    V.eval("sum_data(1:40)");
  std::string R1 = V.eval("sum_data(as.numeric(1:40))").show();
  std::string R2 = V.eval("sum_data(as.numeric(1:40))").show();
  EXPECT_EQ(R1, "820");
  EXPECT_EQ(R2, "820");
  EXPECT_GT(stats().DeoptlessCompiles + stats().DeoptlessHits, 0u)
      << "native guard failures must dispatch through deoptless";
  EXPECT_EQ(stats().Deopts, 0u)
      << "deoptless must have absorbed the phase change";
}

TEST(NativeJit, MultiFrameOsrOutFromInlinedFrames) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // The kD shape of the fuzzer: a list element (type invisible to the
  // caller) flows into an inlined callee; the callee's guard fails in
  // native code and OSR-out must rebuild the whole frame chain.
  const char *Setup = R"(
    kA <- function(a, b) {
      acc <- a
      for (i in 1:3) acc <- acc + (b - 1L)
      acc
    }
    kD <- function(l, i) kA(l[[i]], 2L)
    li <- list(3L, 2L, 3L, 8L)
    lr <- list(8.5, 9.5, 2.5, 7.5)
  )";
  Vm::Config C = cfg(TierStrategy::Normal, true);
  C.Inlining = true;
  Vm V(C);
  V.eval(Setup);
  for (int K = 0; K < 6; ++K)
    V.eval("kD(li, 1L)");
  ASSERT_GT(stats().InlinedCalls, 0u) << "kA must be inlined into kD";
  ASSERT_GT(stats().NativeEnters, 0u);
  EXPECT_EQ(V.eval("kD(lr, 2L)").show(), "12.5");
  EXPECT_GT(stats().MultiFrameDeopts, 0u)
      << "the native side exit must materialize the inlined frames";
}

TEST(NativeJit, InjectedInvalidationKeepsResults) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  const char *Setup = R"(
    work <- function(n) {
      v <- integer(n)
      for (i in 1:n) v[[i]] <- (i * 7L) %% 13L
      s <- 0L
      for (i in 1:n) if (v[[i]] > 6L) s <- s + v[[i]]
      s
    }
  )";
  std::string Base = runUnder(cfg(TierStrategy::BaselineOnly, false),
                              Setup, "work(400L)", 20);
  for (TierStrategy S :
       {TierStrategy::Normal, TierStrategy::Deoptless}) {
    Vm::Config C = cfg(S, true);
    // Low rate, many repetitions: loop-invariant guards are hoisted, so
    // steady state executes only a handful of checks per call and the
    // countdown needs density to provably fire.
    C.InvalidationRate = 20;
    C.InvalidationSeed = 99;
    resetStats();
    EXPECT_EQ(runUnder(C, Setup, "work(400L)", 20), Base)
        << "strategy " << static_cast<int>(S);
    EXPECT_GT(stats().InjectedFailures, 0u)
        << "the countdown slow path must have fired in native guards";
  }
}

//===----------------------------------------------------------------------===//
// Native tier v2: register allocation, fusion, direct linking

/// All three v2 features forced on, independent of the RJIT_NATIVE_V2
/// environment (CI's off-switch job must not turn these tests into
/// no-ops).
Vm::Config v2cfg(TierStrategy S) {
  Vm::Config C = cfg(S, true);
  C.NativeV2.Regalloc = true;
  C.NativeV2.Fusion = true;
  C.NativeV2.Linking = true;
  return C;
}

TEST(NativeV2, RegisterAllocationSpillsDeterministically) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // Hand-built LowCode with more live raw-int slots (10) than the GPR
  // pool holds (6): the allocator must home the pool's worth, spill the
  // rest, and the generated code must still sum all ten correctly —
  // homed and spilled slots mixing in one arithmetic chain.
  auto F = std::make_unique<LowFunction>();
  F->NumSlots = 1;
  F->NumSlotsI = 10;
  for (int K = 0; K < 10; ++K) {
    F->Consts.push_back(Value::integer(K + 1));
    LowInstr Ld;
    Ld.Op = LowOp::LoadConst;
    Ld.Dst = static_cast<uint16_t>(K);
    Ld.B = static_cast<uint16_t>(SlotClass::RawInt);
    Ld.Imm = K;
    F->Code.push_back(Ld);
  }
  // A second definition per slot (a self-move) keeps the slots out of
  // the constant-folding analysis — the point here is live registers
  // competing for the pool, not immediates.
  for (int K = 0; K < 10; ++K) {
    LowInstr Mv;
    Mv.Op = LowOp::Move;
    Mv.Dst = static_cast<uint16_t>(K);
    Mv.A = static_cast<uint16_t>(K);
    Mv.B = static_cast<uint16_t>(SlotClass::RawInt);
    F->Code.push_back(Mv);
  }
  for (int K = 1; K < 10; ++K) {
    LowInstr Add;
    Add.Op = LowOp::ArithTyped;
    Add.Dst = 0;
    Add.A = 0;
    Add.B = static_cast<uint16_t>(K);
    Add.C = static_cast<uint16_t>(
        (static_cast<uint16_t>(BinOp::Add) << 2) | 1);
    F->Code.push_back(Add);
  }
  LowInstr Box;
  Box.Op = LowOp::Box;
  Box.Dst = 0;
  Box.A = 0;
  Box.C = static_cast<uint16_t>(SlotClass::RawInt);
  F->Code.push_back(Box);
  LowInstr Ret;
  Ret.Op = LowOp::RetLow;
  Ret.A = 0;
  F->Code.push_back(Ret);

  NativeTierOptions O;
  O.Regalloc = true;
  O.Fusion = true;
  O.Linking = false;
  std::unique_ptr<ExecBackend> B = makeNativeBackend(O);
  ASSERT_NE(B, nullptr);
  resetStats();
  std::unique_ptr<ExecutableCode> X = B->prepare(std::move(F));
  ASSERT_NE(X, nullptr);
  EXPECT_GT(stats().NativeRegSpills, 0u)
      << "10 live int slots must overflow the 6-register GPR pool";
  EXPECT_EQ(X->run({}, nullptr, nullptr).asIntUnchecked(), 55);
}

TEST(NativeV2, GuardExitsBoxRegisterHomes) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // Eight raw ints and three raw reals are live across the in-loop guard
  // on a list element's type, so the hottest ints sit in callee-saved
  // homes (rbp/r15), the rest in caller-saved ones, and the reals in XMM
  // homes. The guard sits at the last statement, after the updates, so
  // the homes have changed since the extract's helper call last synced
  // them; i2 and i3, read four times each, are the hottest. A failing
  // guard boxes them from the slot arrays: both side exits, the real
  // failure (GuardFail) and the injected one (GuardTick), must store
  // every home its boxes read first, callee-saved ones included.
  const char *Setup = R"(
    k <- function(l, n) {
      i1 <- 0L; i2 <- 1L; i3 <- 2L; i4 <- 3L
      i5 <- 4L; i6 <- 5L; i7 <- 6L; i8 <- 7L
      x <- 0.5; y <- 1.5; z <- 2.5
      for (i in 1:n) {
        v <- l[[i]]
        i2 <- i2 + 1L; i3 <- i3 + i2 + i2 + i2 + i2
        i4 <- i4 + i3 + i3 + i3 + i3
        i5 <- i5 + i; i6 <- i6 + i5; i7 <- i7 + 3L; i8 <- i8 + i7
        x <- x + 0.25; y <- y + x; z <- z * 0.5 + y
        i1 <- i1 + v
      }
      c(i1, i2, i3, i4, i5, i6, i7, i8, x, y, z)
    }
    li <- vector("list", 40L)
    for (j in 1:40) li[[j]] <- j %% 5L
    lr <- li
    lr[[23L]] <- 2.5
  )";
  std::string BaseI = runUnder(cfg(TierStrategy::BaselineOnly, false),
                               Setup, "k(li, 40L)", 1);
  std::string BaseR = runUnder(cfg(TierStrategy::BaselineOnly, false),
                               Setup, "k(lr, 40L)", 1);
  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless}) {
    // A real failure: the 23rd element is a double on a later call.
    {
      Vm V(v2cfg(S));
      V.eval(Setup);
      for (int K = 0; K < 6; ++K)
        EXPECT_EQ(V.eval("k(li, 40L)").show(), BaseI);
      ASSERT_GT(stats().NativeEnters, 0u);
      ASSERT_EQ(stats().AssumeFailures, 0u);
      EXPECT_EQ(V.eval("k(lr, 40L)").show(), BaseR)
          << "strategy " << static_cast<int>(S);
      EXPECT_GT(stats().AssumeFailures, 0u);
      EXPECT_EQ(V.eval("k(li, 40L)").show(), BaseI);
    }
    // Injected failures through the countdown slow path.
    {
      Vm::Config C = v2cfg(S);
      C.InvalidationRate = 7;
      C.InvalidationSeed = 5;
      Vm V(C);
      V.eval(Setup);
      for (int K = 0; K < 20; ++K)
        EXPECT_EQ(V.eval("k(li, 40L)").show(), BaseI)
            << "strategy " << static_cast<int>(S) << " call " << K;
      EXPECT_GT(stats().NativeEnters, 0u);
      EXPECT_GT(stats().InjectedFailures, 0u);
    }
  }
}

TEST(NativeV2, FusionFiresAndPreservesResults) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // A typed reduction whose inner loop is exactly the fusion targets:
  // extract feeding arithmetic, and arithmetic results moved between raw
  // slots. Parity against the interpreter backend plus a counter proof
  // that superinstructions were actually emitted.
  const char *Setup = R"(
    dot <- function(v, n) {
      s <- 0
      for (i in 1:n) s <- s + v[[i]] * 1.5
      s
    }
  )";
  std::string Interp = runUnder(cfg(TierStrategy::Normal, false),
                                Setup + std::string("v <- as.numeric(1:64)"),
                                "dot(v, 64L)");
  resetStats();
  std::string Native = runUnder(v2cfg(TierStrategy::Normal),
                                Setup + std::string("v <- as.numeric(1:64)"),
                                "dot(v, 64L)");
  EXPECT_EQ(Interp, Native);
  EXPECT_GT(stats().NativeCompiles, 0u);
  EXPECT_GT(stats().NativeFusedOps, 0u)
      << "the extract+arith / arith+move pairs must have fused";
}

TEST(NativeV2, RetireWhileLinkedPatchesBackBeforeReclaim) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // The linking soundness invariant: when a linked callee version is
  // retired, every predecessor's direct transfer is severed at retire
  // time — strictly before the graveyard safepoint can unmap the target
  // block — and the site falls back to full dispatch, then relinks once
  // a replacement version is published.
  Vm::Config C = v2cfg(TierStrategy::Normal);
  C.Inlining = false; // keep g an out-of-line call so the site links
  C.SafepointInterval = 1;
  Vm V(C);
  V.eval(R"(
    g <- function(x) x + 1L
    h <- function(n) {
      s <- 0L
      for (i in 1:n) s <- s + g(i)
      s
    }
  )");
  for (int K = 0; K < 6; ++K)
    ASSERT_EQ(V.eval("h(50L)").asIntUnchecked(), 1325);
  ASSERT_GT(stats().NativeEnters, 0u);
  ASSERT_GT(stats().NativeLinkedTransfers, 0u)
      << "h's call site must have linked to g's published version";

  Function *GFn = V.eval("g").closObj()->Fn;
  FnVersion *Ver = V.stateFor(GFn).Versions.dispatch(genericContext(1));
  ASSERT_NE(Ver, nullptr);
  ExecutableCode *GCode = Ver->code();
  ASSERT_NE(GCode, nullptr);
  ASSERT_GE(V.backend()->linkedPredecessors(GCode), 1u)
      << "the link registry must know h's site points into g's code";

  // Type change: g's int-speculated version deopts and is retired. The
  // eval finishes in the baseline with no further closure dispatch, so
  // the safepoint has NOT run yet: the dead code is graveyarded but not
  // reclaimed — and the predecessor count must already be zero. That
  // ordering (unlink at retire, reclaim at the later safepoint) is what
  // keeps a linked jump from ever targeting unmapped memory.
  uint64_t Retired = stats().GraveyardSize;
  V.eval("g(1.5)");
  EXPECT_GT(stats().Deopts, 0u);
  EXPECT_GT(stats().GraveyardSize, Retired)
      << "the deopted version must be graveyarded, not freed";
  EXPECT_EQ(V.backend()->linkedPredecessors(GCode), 0u)
      << "retire must sever every predecessor link before reclamation";

  // The severed site must fall back to dispatch (correctness) and relink
  // once g republishes: linked transfers resume growing.
  for (int K = 0; K < 6; ++K)
    ASSERT_EQ(V.eval("h(50L)").asIntUnchecked(), 1325);
  uint64_t AfterRepublish = stats().NativeLinkedTransfers;
  for (int K = 0; K < 4; ++K)
    ASSERT_EQ(V.eval("h(50L)").asIntUnchecked(), 1325);
  EXPECT_GT(stats().NativeLinkedTransfers, AfterRepublish)
      << "the site must relink to the republished version";
}

//===----------------------------------------------------------------------===//
// Live-home sync and inline boxing

/// Options with register allocation on or off and the other v2 layers
/// pinned, so a test's code shape does not depend on RJIT_NATIVE_V2.
NativeTierOptions regallocOpts(bool Regalloc) {
  NativeTierOptions O;
  O.Regalloc = Regalloc;
  O.Fusion = false;
  O.Linking = false;
  return O;
}

/// An ArithTyped / CmpBranch C field: (op << 2) | rank (1 = int, 2 = real).
uint16_t typedOp(BinOp Op, int Rank) {
  return static_cast<uint16_t>((static_cast<uint16_t>(Op) << 2) | Rank);
}

uint16_t cls(SlotClass K) { return static_cast<uint16_t>(K); }

/// Hand-built LowCode for the liveness and sync-count tests. Params: boxed
/// s0 (an Int), raw real d0, raw int i1. The loop [1, 5] computes d1 and
/// d2; d2's only reader is the guard's deferred box, and d1 is read after
/// the loop. pc 7 is unreachable (the jump at pc 6 skips it).
///
///   0: ldc  i0 <- 0
///   1: d1 <- d0 + d0            (loop header)
///   2: d2 <- d1 * d0
///   3: guard s0 is Int          [box s1 <- d2]
///   4: i0 <- i0 + i1
///   5: cmpbr i0 < i1 -> 1       (back edge)
///   6: jump -> 8
///   7: box s1 <- d0
///   8: box s2 <- d1
///   9: ret s2
std::unique_ptr<LowFunction> loopWithGuardBox() {
  auto F = std::make_unique<LowFunction>();
  F->NumSlots = 3;
  F->NumSlotsD = 3;
  F->NumSlotsI = 2;
  F->NumParams = 3;
  F->ParamClasses = {SlotClass::Boxed, SlotClass::RawReal, SlotClass::RawInt};
  F->ParamSlots = {0, 0, 1};
  F->Consts.push_back(Value::integer(0));
  DeoptMeta M;
  M.ExpectedTag = Tag::Int;
  M.ValueSlot = 0;
  M.HasValueSlot = true;
  M.Boxes.push_back(
      LowInstr{LowOp::Box, 1, 2, 0, cls(SlotClass::RawReal)});
  F->Deopts.push_back(M);
  F->Code = {
      LowInstr{LowOp::LoadConst, 0, 0, cls(SlotClass::RawInt), 0, 0},
      LowInstr{LowOp::ArithTyped, 1, 0, 0, typedOp(BinOp::Add, 2)},
      LowInstr{LowOp::ArithTyped, 2, 1, 0, typedOp(BinOp::Mul, 2)},
      LowInstr{LowOp::GuardCond, 0, 0, 0, 0, 0},
      LowInstr{LowOp::ArithTyped, 0, 0, 1, typedOp(BinOp::Add, 1)},
      LowInstr{LowOp::CmpBranch, 0, 0, 1,
               static_cast<uint16_t>(typedOp(BinOp::Lt, 1) | 0x8000), 1},
      LowInstr{LowOp::JumpLow, 0, 0, 0, 0, 8},
      LowInstr{LowOp::Box, 1, 0, 0, cls(SlotClass::RawReal)},
      LowInstr{LowOp::Box, 2, 1, 0, cls(SlotClass::RawReal)},
      LowInstr{LowOp::RetLow, 0, 2},
  };
  F->GuardCount = 1;
  return F;
}

TEST(RegAlloc, LiveOutMasksFollowControlFlowAndGuardBoxes) {
  std::unique_ptr<LowFunction> F = loopWithGuardBox();
  RegAllocation RA = allocateRegisters(*F);
  auto D = [&](uint16_t Slot) {
    return RA.homeBit({SlotClass::RawReal, Slot});
  };
  auto I = [&](uint16_t Slot) {
    return RA.homeBit({SlotClass::RawInt, Slot});
  };
  for (uint16_t S = 0; S < 3; ++S)
    ASSERT_NE(D(S), 0u) << "d" << S << " must be homed";
  for (uint16_t S = 0; S < 2; ++S)
    ASSERT_NE(I(S), 0u) << "i" << S << " must be homed";
  ASSERT_EQ(RA.LiveOut.size(), F->Code.size());

  uint32_t Loop = D(0) | D(1) | I(0) | I(1);
  EXPECT_EQ(RA.EntryLive, D(0) | I(1)) << "only the read params";
  EXPECT_EQ(RA.LiveOut[0], D(0) | I(0) | I(1));
  EXPECT_EQ(RA.LiveOut[1], Loop);
  EXPECT_EQ(RA.LiveOut[2], Loop | D(2))
      << "the guard's deferred box is d2's only reader";
  EXPECT_EQ(RA.LiveOut[3], Loop) << "d2 is dead once the guard passed";
  EXPECT_EQ(RA.LiveOut[4], Loop);
  EXPECT_EQ(RA.LiveOut[5], Loop)
      << "back edge to the header joined with the exit path";
  EXPECT_EQ(RA.LiveOut[6], D(1)) << "the jump skips pc 7's read of d0";
  EXPECT_EQ(RA.LiveOut[7], D(1));
  EXPECT_EQ(RA.LiveOut[8], 0u);
  EXPECT_EQ(RA.LiveOut[9], 0u) << "nothing is live after a return";
}

TEST(NativeV2, HomeSyncCountIsExact) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // loopWithGuardBox's homes: d0-d2 in XMMs (caller-saved), i0 and i1 in
  // rbp and r15 (callee-saved: the pool hands those out first). The helper sites
  // and side exits sync:
  //   guard fail stub:  store d2 (its box)                          1
  //   guard tick stub:  store d2 + live d0, d1; reload d0, d1       5
  //   pc 7 box slow:    store d0 (read) + live d1; reload d1        3
  //   pc 8 box slow:    store d1 (read); nothing live after         1
  // The prologue's entry loads are not helper syncs.
  {
    std::unique_ptr<LowFunction> F = loopWithGuardBox();
    RegAllocation RA = allocateRegisters(*F);
    ASSERT_EQ(RA.homeBit({SlotClass::RawInt, 0}), natGprBit(RBP));
    ASSERT_EQ(RA.homeBit({SlotClass::RawInt, 1}), natGprBit(R15));
  }
  for (bool Regalloc : {true, false}) {
    std::unique_ptr<ExecBackend> B =
        makeNativeBackend(regallocOpts(Regalloc));
    ASSERT_NE(B, nullptr);
    resetStats();
    std::unique_ptr<ExecutableCode> X = B->prepare(loopWithGuardBox());
    EXPECT_EQ(stats().NativeHomeSyncs, Regalloc ? 10u : 0u)
        << "regalloc " << Regalloc;
    Value R = X->run({Value::integer(1), Value::real(1.5), Value::integer(3)},
                     nullptr, nullptr);
    EXPECT_EQ(R.show(), "3");
  }
}

TEST(NativeInline, BoxOverHeapDestinationTakesTheSlowStub) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // s0 holds the vector argument on the first iteration, so the Box must
  // release it through the handler; on the later iterations it holds the
  // previous Int and the inline store runs. A missed release would leave
  // the vector's reference count raised after the activation.
  auto Make = [] {
    auto F = std::make_unique<LowFunction>();
    F->NumSlots = 1;
    F->NumSlotsI = 3;
    F->NumParams = 1;
    F->ParamClasses = {SlotClass::Boxed};
    F->ParamSlots = {0};
    for (int K : {0, 1, 3})
      F->Consts.push_back(Value::integer(K));
    F->Code = {
        LowInstr{LowOp::LoadConst, 0, 0, cls(SlotClass::RawInt), 0, 0},
        LowInstr{LowOp::LoadConst, 1, 0, cls(SlotClass::RawInt), 0, 1},
        LowInstr{LowOp::LoadConst, 2, 0, cls(SlotClass::RawInt), 0, 2},
        LowInstr{LowOp::ArithTyped, 0, 0, 1, typedOp(BinOp::Add, 1)},
        LowInstr{LowOp::Box, 0, 0, 0, cls(SlotClass::RawInt)},
        LowInstr{LowOp::CmpBranch, 0, 0, 2,
                 static_cast<uint16_t>(typedOp(BinOp::Lt, 1) | 0x8000), 3},
        LowInstr{LowOp::RetLow, 0, 0},
    };
    return F;
  };
  Value Vec = Value::realVec({1.0, 2.0, 3.0});
  const GcObject *Obj = Vec.object();
  for (bool Regalloc : {true, false}) {
    std::unique_ptr<ExecBackend> B = makeNativeBackend(regallocOpts(Regalloc));
    std::unique_ptr<ExecutableCode> X = B->prepare(Make());
    EXPECT_EQ(X->run({Vec}, nullptr, nullptr).show(), "3L");
    EXPECT_EQ(Obj->refCount(), 1u) << "regalloc " << Regalloc;
  }
}

TEST(NativeInline, StealNullsTheSourceAndSelfMoveIsANoOp) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // Params: s0 a Real scalar, s1 a vector. Every boxed-move shape, then
  // the six slots are returned as a list:
  //   s2 <- move(s0)   scalar steal               (inline)
  //   s3 <- move(s1)   heap steal into Null       (inline)
  //   s4 <- s2         scalar copy                (inline)
  //   s4 <- s4         self copy                  (no-op)
  //   s3 <- move(s3)   self steal                 (no-op)
  //   s5 <- s3         heap copy: needs a retain  (slow stub)
  auto Make = [] {
    auto F = std::make_unique<LowFunction>();
    F->NumSlots = 7;
    F->NumParams = 2;
    F->ParamClasses = {SlotClass::Boxed, SlotClass::Boxed};
    F->ParamSlots = {0, 1};
    uint16_t Boxed = cls(SlotClass::Boxed);
    F->Code = {
        LowInstr{LowOp::Move, 2, 0, Boxed, 1},
        LowInstr{LowOp::Move, 3, 1, Boxed, 1},
        LowInstr{LowOp::Move, 4, 2, Boxed, 0},
        LowInstr{LowOp::Move, 4, 4, Boxed, 0},
        LowInstr{LowOp::Move, 3, 3, Boxed, 1},
        LowInstr{LowOp::Move, 5, 3, Boxed, 0},
        LowInstr{LowOp::CallBiLow, 6, 0, 0,
                 static_cast<uint16_t>(BuiltinId::ListCtor), 6},
        LowInstr{LowOp::RetLow, 0, 6},
    };
    return F;
  };
  Value Vec = Value::realVec({1.0, 2.0});
  const GcObject *Obj = Vec.object();
  std::string Want =
      interpBackend().prepare(Make())->run({Value::real(2.5), Vec}, nullptr,
                                           nullptr)
          .show();
  EXPECT_EQ(Obj->refCount(), 1u);
  for (bool Regalloc : {true, false}) {
    std::unique_ptr<ExecBackend> B = makeNativeBackend(regallocOpts(Regalloc));
    std::unique_ptr<ExecutableCode> X = B->prepare(Make());
    Value R = X->run({Value::real(2.5), Vec}, nullptr, nullptr);
    EXPECT_EQ(R.show(), Want) << "regalloc " << Regalloc;
    const auto &L = R.listObj()->D;
    ASSERT_EQ(L.size(), 6u);
    EXPECT_TRUE(L[0].isNull()) << "a steal leaves its source Null";
    EXPECT_TRUE(L[1].isNull());
    EXPECT_EQ(L[4].asRealUnchecked(), 2.5);
    EXPECT_EQ(L[3].object(), Obj);
    EXPECT_EQ(L[5].object(), Obj);
    EXPECT_EQ(Obj->refCount(), 3u) << "the test's copy plus two in the list";
  }
  EXPECT_EQ(Obj->refCount(), 1u);
}

TEST(NativeInline, BoxedVectorMovesKeepCopyOnWrite) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // v and u swap every iteration (boxed phi moves of vectors), then v is
  // written element-wise. The callers' a and b stay shared, so every
  // first store per call must copy: a move that skipped a retain would
  // let the store mutate a or b in place, and the copy counts of the two
  // backends would differ.
  const char *Setup = R"(
    f <- function(v, u, n) {
      for (i in 1:n) {
        t <- v; v <- u; u <- t
        v[[i]] <- v[[i]] + 0.5
      }
      c(v[[1L]], u[[1L]], v[[n]], u[[n]])
    }
    a <- as.numeric(1:8)
    b <- as.numeric(11:18)
  )";
  const char *Driver = "c(f(a, b, 8L), a[[1L]], b[[8L]])";
  std::string Want;
  uint64_t WantCow = 0;
  for (bool Native : {false, true}) {
    Vm::Config C = v2cfg(TierStrategy::Deoptless);
    C.NativeTier = Native;
    std::string Got = runUnder(C, Setup, Driver, 8);
    if (!Native) {
      Want = Got;
      WantCow = stats().CowCopies;
      continue;
    }
    EXPECT_EQ(Got, Want);
    EXPECT_GT(stats().NativeEnters, 0u);
    EXPECT_EQ(stats().CowCopies, WantCow)
        << "copy-on-write copies must match the LowCode backend";
  }
  EXPECT_GT(WantCow, 0u);
}

TEST(NativeV2, LiveHomesSurviveHelperCalls) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // Ten raw reals and four raw ints stay live across in-loop helper
  // calls: a builtin (max), generic list extracts, and boxed moves of
  // vectors (the t/w/v swap). q is computed before the loop and only the
  // in-loop guards' frame states read it. sv[[1L]] * 2.0 is a fused
  // extract+arith pair; contextual dispatch runs the version specialized
  // for a vector sv on a length-one scalar, so its extract takes the
  // slow stub. The in-loop type guard on e fails for real on lr (its
  // 23rd element is a double) and by injection under InvalidationRate.
  const char *Setup = R"(
    k <- function(l, v, sv, n) {
      a1 <- 0.5; a2 <- 1.5; a3 <- 2.5; a4 <- 3.5; a5 <- 4.5
      a6 <- 5.5; a7 <- 6.5; a8 <- 7.5; a9 <- 8.5; a10 <- 9.5
      j1 <- 1L; j2 <- 2L; j3 <- 3L; j4 <- 4L
      s <- 0
      q <- a9 * 0.5
      w <- rev(v)
      for (i in 1:n) {
        e <- l[[i]]
        t <- w; w <- v; v <- t
        m <- max(i, 3L)
        a1 <- a1 + 0.25; a2 <- a2 + a1; a3 <- a3 * 0.5 + a2
        a4 <- a4 + a3; a5 <- a5 - a4 * 0.125; a6 <- a6 + a5
        a7 <- a7 * 0.75 + a6; a8 <- a8 + a7; a9 <- a9 - a8 * 0.0625
        a10 <- a10 * 0.5 + a9
        j1 <- j1 + e; j2 <- j2 + j1; j3 <- j3 + m; j4 <- j4 + j3
        s <- s + sv[[1L]] * 2.0
      }
      c(a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, j1, j2, j3, j4, s,
        w[[1L]], v[[1L]])
    }
    li <- vector("list", 40L)
    for (p in 1:40) li[[p]] <- p %% 5L
    lr <- li
    lr[[23L]] <- 2.5
    vv <- as.numeric(1:8)
  )";
  const char *Warm = "k(li, vv, vv, 40L)";
  const char *Scalar = "k(li, vv, 2.5, 40L)";
  const char *Fail = "k(lr, vv, 2.5, 40L)";
  auto Base = [&](const char *Driver) {
    return runUnder(cfg(TierStrategy::BaselineOnly, false), Setup, Driver,
                    1);
  };
  std::string BaseWarm = Base(Warm), BaseScalar = Base(Scalar),
              BaseFail = Base(Fail);
  std::string BaseErr;
  {
    Vm V(cfg(TierStrategy::BaselineOnly, false));
    V.eval(Setup);
    try {
      V.eval("k(li, vv, vv, 41L)");
    } catch (const RError &E) {
      BaseErr = E.what();
    }
    ASSERT_FALSE(BaseErr.empty()) << "l[[41]] must raise";
  }

  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless})
    for (bool Regalloc : {true, false}) {
      Vm::Config C = v2cfg(S);
      C.ContextDispatch = true;
      C.NativeV2.Regalloc = Regalloc;
      std::string Label = std::string(S == TierStrategy::Normal
                                          ? "normal"
                                          : "deoptless") +
                          (Regalloc ? "/regalloc" : "/no-regalloc");
      // A real type-change failure, after the scalar calls.
      {
        Vm V(C);
        V.eval(Setup);
        for (int K = 0; K < 5; ++K)
          EXPECT_EQ(V.eval(Warm).show(), BaseWarm) << Label;
        ASSERT_GT(stats().NativeEnters, 0u) << Label;
        for (int K = 0; K < 2; ++K)
          EXPECT_EQ(V.eval(Scalar).show(), BaseScalar) << Label;
        ASSERT_EQ(stats().AssumeFailures, 0u) << Label;
        EXPECT_EQ(V.eval(Fail).show(), BaseFail) << Label;
        EXPECT_GT(stats().AssumeFailures, 0u) << Label;
        EXPECT_EQ(V.eval(Warm).show(), BaseWarm) << Label;
        // A helper raising mid-loop: the same error as the baseline.
        std::string Err;
        try {
          V.eval("k(li, vv, vv, 41L)");
        } catch (const RError &E) {
          Err = E.what();
        }
        EXPECT_EQ(Err, BaseErr) << Label;
        EXPECT_EQ(V.eval(Warm).show(), BaseWarm) << Label;
      }
      // Injected failures through the guard-tick stub.
      {
        Vm::Config CI = C;
        CI.InvalidationRate = 7;
        CI.InvalidationSeed = 5;
        Vm V(CI);
        V.eval(Setup);
        for (int K = 0; K < 16; ++K) {
          EXPECT_EQ(V.eval(Warm).show(), BaseWarm) << Label << " call " << K;
          if (K >= 4)
            EXPECT_EQ(V.eval(Scalar).show(), BaseScalar)
                << Label << " call " << K;
        }
        EXPECT_GT(stats().NativeEnters, 0u) << Label;
        EXPECT_GT(stats().InjectedFailures, 0u) << Label;
      }
    }
}

TEST(NativeJit, BackgroundCompilePublishesNativeCode) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  Vm::Config C = cfg(TierStrategy::Normal, true);
  C.BackgroundCompile = true;
  C.CompilerThreads = 2;
  Vm V(C);
  V.eval("f <- function(n) { s <- 0L\n for (i in 1:n) s <- s + i\n s }");
  for (int K = 0; K < 4; ++K)
    V.eval("f(50L)");
  V.drainCompiles();
  Value R = V.eval("f(50L)");
  EXPECT_EQ(R.asIntUnchecked(), 1275);
  EXPECT_GT(stats().NativeEnters, 0u)
      << "the drained background compile must have published native "
         "code through the snapshot/COW discipline";
}

//===----------------------------------------------------------------------===//
// Typed element stores and integer %% / %/%

namespace {

/// s_dst <- s0 with [[i0]] <- value, stealing s0, for element kind \p K
/// (value: i1 for Int, d0 for Real); returns s_dst. Params: s0 the
/// container, s1 the destination's old content, i0 the index, then the
/// value. \p InPlace stores back into s0 (Dst == A).
std::unique_ptr<LowFunction> typedStore(Tag K, bool InPlace) {
  auto F = std::make_unique<LowFunction>();
  F->NumSlots = 2;
  F->NumSlotsI = 2;
  F->NumSlotsD = 1;
  F->NumParams = 4;
  bool Int = K == Tag::Int;
  F->ParamClasses = {SlotClass::Boxed, SlotClass::Boxed, SlotClass::RawInt,
                     Int ? SlotClass::RawInt : SlotClass::RawReal};
  F->ParamSlots = {0, 1, 0, static_cast<uint16_t>(Int ? 1 : 0)};
  uint16_t Dst = InPlace ? 0 : 1;
  LowInstr St{LowOp::SetElem2Typed, Dst, 0, 0,
              static_cast<uint16_t>(static_cast<uint16_t>(K) | 0x100),
              Int ? 1 : 0};
  F->Code = {St, LowInstr{LowOp::RetLow, 0, Dst}};
  return F;
}

/// The outcome of one run: the result (or the error text) and the
/// copy-on-write copies it made.
struct StoreRun {
  std::string Out;
  uint64_t Cow = 0;
};

/// Runs typedStore(K, InPlace) over (container, old destination, index,
/// value). The arguments are moved, not copied out of an initializer
/// list, so a container only the caller's argument holds reaches the
/// store unshared.
StoreRun runStore(ExecBackend &B, Tag K, bool InPlace, Value Container,
                  Value OldDst, int32_t Idx, Value Elem) {
  std::vector<Value> Args;
  Args.push_back(std::move(Container));
  Args.push_back(std::move(OldDst));
  Args.push_back(Value::integer(Idx));
  Args.push_back(std::move(Elem));
  std::unique_ptr<ExecutableCode> X = B.prepare(typedStore(K, InPlace));
  uint64_t Cow0 = stats().CowCopies;
  StoreRun R;
  try {
    R.Out = X->run(std::move(Args), nullptr, nullptr).show();
  } catch (const RError &E) {
    R.Out = std::string("error: ") + E.what();
  }
  R.Cow = stats().CowCopies - Cow0;
  return R;
}

/// An ArithTyped int op over params i0, i1, boxed: the %% / %/% template
/// under test. With \p ConstDivisor the divisor is a LoadConst instead,
/// which register allocation folds into an immediate.
std::unique_ptr<LowFunction> intDivMod(BinOp Op, bool ConstDivisor,
                                       int32_t Divisor) {
  auto F = std::make_unique<LowFunction>();
  F->NumSlots = 1;
  F->NumSlotsI = 3;
  F->NumParams = 2;
  F->ParamClasses = {SlotClass::RawInt, SlotClass::RawInt};
  F->ParamSlots = {0, 1};
  F->Consts.push_back(Value::integer(Divisor));
  if (ConstDivisor)
    F->Code.push_back(
        LowInstr{LowOp::LoadConst, 1, 0, cls(SlotClass::RawInt), 0, 0});
  F->Code.push_back(LowInstr{LowOp::ArithTyped, 2, 0, 1, typedOp(Op, 1)});
  F->Code.push_back(LowInstr{LowOp::Box, 0, 2, 0, cls(SlotClass::RawInt)});
  F->Code.push_back(LowInstr{LowOp::RetLow, 0, 0});
  return F;
}

std::string runDivMod(ExecBackend &B, BinOp Op, bool ConstDivisor,
                      int32_t X, int32_t Y) {
  std::unique_ptr<ExecutableCode> E =
      B.prepare(intDivMod(Op, ConstDivisor, Y));
  try {
    return E->run({Value::integer(X), Value::integer(Y)}, nullptr, nullptr)
        .show();
  } catch (const RError &Err) {
    return std::string("error: ") + Err.what();
  }
}

} // namespace

TEST(NativeInline, TypedStoreMatchesTheHandler) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // Every shape of a stealing typed store — unshared in place, shared
  // (copy-on-write), growth past the end, a length-one scalar container,
  // out-of-range indices, a destination holding a heap value — in both
  // element kinds and both slot shapes: the native result, error text and
  // copy count equal the LowCode interpreter's.
  for (Tag K : {Tag::Int, Tag::Real}) {
    bool Int = K == Tag::Int;
    auto Vec = [Int] {
      return Int ? Value::intVec({1, 2, 3}) : Value::realVec({1, 2, 3});
    };
    Value Elem = Int ? Value::integer(40) : Value::real(40.5);
    Value Scalar = Int ? Value::integer(7) : Value::real(7.5);
    for (bool InPlace : {true, false})
      for (bool Regalloc : {true, false}) {
        std::unique_ptr<ExecBackend> B =
            makeNativeBackend(regallocOpts(Regalloc));
        std::string Label = std::string(Int ? "int" : "real") +
                            (InPlace ? " in place" : " moved") +
                            (Regalloc ? " regalloc" : "");
        for (int32_t Idx : {1, 3, 5, 0, -2}) {
          // Unshared: the args vector holds the only reference.
          StoreRun Want = runStore(interpBackend(), K, InPlace, Vec(),
                                   Value::nil(), Idx, Elem);
          StoreRun Got =
              runStore(*B, K, InPlace, Vec(), Value::nil(), Idx, Elem);
          EXPECT_EQ(Got.Out, Want.Out) << Label << " idx " << Idx;
          EXPECT_EQ(Got.Cow, 0u) << Label << " idx " << Idx;
          EXPECT_EQ(Want.Cow, 0u);
        }
        // Shared: the store must copy and leave the caller's vector
        // alone.
        Value Keep = Vec();
        StoreRun Got = runStore(*B, K, InPlace, Keep, Value::nil(), 2, Elem);
        StoreRun Want = runStore(interpBackend(), K, InPlace, Keep,
                                 Value::nil(), 2, Elem);
        EXPECT_EQ(Got.Out, Want.Out) << Label;
        EXPECT_EQ(Got.Cow, 1u) << Label;
        EXPECT_EQ(Keep.show(), Vec().show()) << Label;
        EXPECT_EQ(Keep.object()->refCount(), 1u) << Label;
        // A length-one scalar container widens to a vector.
        for (int32_t Idx : {1, 2}) {
          StoreRun S =
              runStore(*B, K, InPlace, Scalar, Value::nil(), Idx, Elem);
          StoreRun SW = runStore(interpBackend(), K, InPlace, Scalar,
                                 Value::nil(), Idx, Elem);
          EXPECT_EQ(S.Out, SW.Out) << Label << " scalar idx " << Idx;
        }
        // The destination slot holds a heap value: overwriting it needs a
        // release, so the store takes the handler, and the value's count
        // returns to the test's own reference.
        Value Old = Value::list({Value::integer(1)});
        StoreRun H = runStore(*B, K, InPlace, Vec(), Old, 2, Elem);
        StoreRun HW =
            runStore(interpBackend(), K, InPlace, Vec(), Old, 2, Elem);
        EXPECT_EQ(H.Out, HW.Out) << Label;
        EXPECT_EQ(Old.object()->refCount(), 1u) << Label;
      }
  }
}

TEST(NativeInline, TypedStoreErrorsMatchBaselineOnly) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // A compiled store whose index leaves the vector — below 1, or more
  // than the generic store's growth bound past the end: the typed
  // store's error text must be the baseline interpreter's.
  const char *Setup = R"(
    fill <- function(n, at) {
      v <- integer(n)
      for (i in 1:n) v[[i]] <- i
      v[[at]] <- 0L
      v[[1L]]
    }
  )";
  for (const char *At : {"0L", "-3L", "2000000L"}) {
    std::string Driver = std::string("fill(20L, ") + At + ")";
    auto Run = [&](Vm::Config C) {
      Vm V(C);
      V.eval(Setup);
      for (int K = 0; K < 4; ++K)
        V.eval("fill(20L, 2L)");
      try {
        return V.eval(Driver).show();
      } catch (const RError &E) {
        return std::string("error: ") + E.what();
      }
    };
    std::string Base = Run(cfg(TierStrategy::BaselineOnly, false));
    EXPECT_NE(Base.find("error: "), std::string::npos) << Base;
    for (bool Regalloc : {true, false}) {
      Vm::Config C = v2cfg(TierStrategy::Deoptless);
      C.NativeV2.Regalloc = Regalloc;
      EXPECT_EQ(Run(C), Base) << At << " regalloc " << Regalloc;
    }
  }
}

TEST(NativeInline, TypedStoreCopiesLikeLowCode) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // A fill loop over a vector the caller still holds: exactly one
  // copy-on-write copy per call on both backends, and the caller's
  // vector unchanged.
  const char *Setup = R"(
    bump <- function(v, n) {
      for (i in 1:n) v[[i]] <- v[[i]] + 1L
      v[[n]]
    }
    data <- 1:50
  )";
  const char *Driver = "c(bump(data, 50L), data[[50L]])";
  std::string Want;
  uint64_t WantCow = 0;
  for (bool Native : {false, true})
    for (bool Regalloc : {true, false}) {
      Vm::Config C = v2cfg(TierStrategy::Normal);
      C.NativeTier = Native;
      C.NativeV2.Regalloc = Regalloc;
      std::string Got = runUnder(C, Setup, Driver, 8);
      if (!Native && Regalloc) {
        Want = Got;
        WantCow = stats().CowCopies;
        continue;
      }
      EXPECT_EQ(Got, Want) << "native " << Native << " regalloc " << Regalloc;
      EXPECT_EQ(stats().CowCopies, WantCow)
          << "native " << Native << " regalloc " << Regalloc;
    }
  EXPECT_EQ(Want, "c(51L, 50L)");
  EXPECT_EQ(WantCow, 8u);
}

TEST(NativeInline, IntDivModMatchesTheHandler) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  // R's floored %% and %/% over a sign matrix with the extremes, the
  // divisor -1 (INT_MIN %/% -1 wraps) and 0 (an error), with the divisor
  // in a slot and as a folded constant.
  const int32_t Min = std::numeric_limits<int32_t>::min();
  const int32_t Max = std::numeric_limits<int32_t>::max();
  const std::vector<int32_t> Vals{0, 1, -1, 2, -2, 7, -7, 13, -13, Max, Min};
  for (bool Regalloc : {true, false}) {
    std::unique_ptr<ExecBackend> B = makeNativeBackend(regallocOpts(Regalloc));
    for (BinOp Op : {BinOp::Mod, BinOp::IDiv})
      for (bool Const : {false, true})
        for (int32_t X : Vals)
          for (int32_t Y : Vals)
            EXPECT_EQ(runDivMod(*B, Op, Const, X, Y),
                      runDivMod(interpBackend(), Op, Const, X, Y))
                << (Op == BinOp::Mod ? "%%" : "%/%") << " " << X << " "
                << Y << " const " << Const << " regalloc " << Regalloc;
  }
  std::unique_ptr<ExecBackend> B = makeNativeBackend(regallocOpts(true));
  EXPECT_EQ(runDivMod(*B, BinOp::Mod, false, -7, 3), "2L");
  EXPECT_EQ(runDivMod(*B, BinOp::IDiv, false, -7, 2), "-4L");
  EXPECT_EQ(runDivMod(*B, BinOp::IDiv, false, Min, -1),
            std::to_string(Min) + "L");
  EXPECT_EQ(runDivMod(*B, BinOp::Mod, false, 5, 0),
            "error: integer modulo by zero");
  EXPECT_EQ(runDivMod(*B, BinOp::IDiv, true, 5, 0),
            "error: integer division by zero");
}

TEST(NativeInline, IntDivModErrorsMatchBaselineOnly) {
  if (!nativeBackendSupported())
    GTEST_SKIP() << "no native backend on this host";
  const char *Setup = R"(
    digits <- function(n, q) {
      s <- 0L
      for (k in 1:n) s <- s + (k * 7L) %/% q + (k * 7L) %% q
      s
    }
  )";
  for (const char *Driver : {"digits(50L, 0L)", "digits(50L, -1L)",
                             "digits(50L, -7L)"}) {
    auto Run = [&](Vm::Config C) {
      Vm V(C);
      V.eval(Setup);
      for (int K = 0; K < 4; ++K)
        V.eval("digits(50L, 9L)");
      try {
        return V.eval(Driver).show();
      } catch (const RError &E) {
        return std::string("error: ") + E.what();
      }
    };
    std::string Base = Run(cfg(TierStrategy::BaselineOnly, false));
    for (bool Regalloc : {true, false}) {
      Vm::Config C = v2cfg(TierStrategy::Normal);
      C.NativeV2.Regalloc = Regalloc;
      EXPECT_EQ(Run(C), Base) << Driver << " regalloc " << Regalloc;
    }
  }
}
