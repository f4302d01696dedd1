//===-- tests/lowcode_test.cpp - Lowering & engine unit tests --------------===//

#include "lowcode/exec.h"
#include "lowcode/lower.h"
#include "native/native.h"
#include "opt/pipeline.h"
#include "support/stats.h"
#include "support/timer.h"
#include "testutil.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rjit;

namespace {

class LowFixture : public ::testing::Test {
protected:
  BaselineSession S;

  /// Warms and optimizes the first closure of \p Source (FullElided when
  /// possible) and returns its IR.
  std::unique_ptr<IrCode> optimize(const std::string &Source, int FnIdx = 1,
                                   const OptOptions &Opts = {}) {
    S.eval(Source);
    Function *Fn = S.lastModule()->Fns[FnIdx].get();
    auto Ir = optimizeToIr(Fn, CallConv::FullElided, EntryState(), Opts);
    if (!Ir)
      Ir = optimizeToIr(Fn, CallConv::FullEnv, EntryState(), Opts);
    EXPECT_TRUE(Ir);
    return Ir;
  }

  /// Like optimize(), lowered to a LowFunction.
  std::unique_ptr<LowFunction> compile(const std::string &Source,
                                       int FnIdx = 1,
                                       const OptOptions &Opts = {}) {
    auto Ir = optimize(Source, FnIdx, Opts);
    return Ir ? lowerToLow(*Ir) : nullptr;
  }

  static int countOps(const LowFunction &F, LowOp Op) {
    int N = 0;
    for (const LowInstr &I : F.Code)
      N += I.Op == Op;
    return N;
  }
};

} // namespace

TEST_F(LowFixture, UnboxedSlotClassesAssigned) {
  auto F = compile(R"(
    f <- function(v) {
      s <- 0
      for (i in 1:length(v)) s <- s + v[[i]]
      s
    }
    x <- c(1.5, 2.5); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  EXPECT_GT(F->NumSlotsD, 0u) << "the accumulator must live in raw doubles";
  EXPECT_GT(F->NumSlotsI, 0u) << "loop counters must live in raw ints";
}

TEST_F(LowFixture, ParamClassesFollowTypes) {
  auto F = compile(R"(
    f <- function(v) v[[1]] + v[[2]]
    x <- c(1.5, 2.5); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  ASSERT_EQ(F->ParamClasses.size(), 1u);
  EXPECT_EQ(F->ParamClasses[0], SlotClass::Boxed)
      << "vector parameters stay boxed";
}

TEST_F(LowFixture, GuardsCarryDeoptMetadata) {
  auto F = compile(R"(
    f <- function(v) v[[1]]
    x <- c(1L); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  EXPECT_GT(F->GuardCount, 0u);
  ASSERT_FALSE(F->Deopts.empty());
  for (const DeoptMeta &M : F->Deopts) {
    EXPECT_GE(M.BcPc, 0) << "resume pc must be set";
    EXPECT_GE(M.ReasonPc, 0);
  }
}

TEST_F(LowFixture, GuardsAreEntryHoistedForParams) {
  auto F = compile(R"(
    f <- function(v) {
      s <- 0
      for (i in 1:length(v)) s <- s + v[[i]]
      s
    }
    x <- as.numeric(1:10); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  // All guards should appear before the loop's first backedge target:
  // no guard after the first backward jump.
  int32_t FirstBackTarget = -1;
  for (size_t Pc = 0; Pc < F->Code.size(); ++Pc) {
    const LowInstr &I = F->Code[Pc];
    if ((I.Op == LowOp::JumpLow || I.Op == LowOp::CmpBranch ||
         I.Op == LowOp::BranchFalseLow || I.Op == LowOp::BranchTrueLow) &&
        I.Imm <= static_cast<int32_t>(Pc))
      FirstBackTarget = std::max(FirstBackTarget, I.Imm);
  }
  ASSERT_GE(FirstBackTarget, 0) << "expected a loop";
  for (size_t Pc = FirstBackTarget; Pc < F->Code.size(); ++Pc)
    EXPECT_NE(F->Code[Pc].Op, LowOp::GuardCond)
        << "guard inside the hot loop at pc " << Pc;
}

TEST_F(LowFixture, CompareBranchFusion) {
  auto F = compile(R"(
    f <- function(n) {
      s <- 0L
      for (i in 1:n) s <- s + i
      s
    }
    f(10L); f(10L); f(10L)
  )");
  ASSERT_TRUE(F);
  EXPECT_GT(countOps(*F, LowOp::CmpBranch), 0)
      << "loop exit compare must fuse into the branch";
}

TEST_F(LowFixture, RunLowExecutesDirectly) {
  auto F = compile(R"(
    f <- function(a, b) a * b + 1L
    f(2L, 3L); f(2L, 3L); f(2L, 3L)
  )");
  ASSERT_TRUE(F);
  std::vector<Value> Args;
  Args.push_back(Value::integer(6));
  Args.push_back(Value::integer(7));
  Value R = runLow(*F, std::move(Args), nullptr, S.global());
  EXPECT_EQ(R.asIntUnchecked(), 43);
}

TEST_F(LowFixture, AccumulatorStealKeepsContainersUnshared) {
  // The fill-then-read pattern must stay O(n): time ratio between n and
  // 4n should be roughly linear (far below the quadratic 16x).
  S.eval(R"(
    fill <- function(n) {
      v <- integer(n)
      for (i in 1:n) v[[i]] <- i
      s <- 0L
      for (i in 1:n) s <- s + v[[i]]
      s
    }
  )");
  Function *Fn = S.lastModule()->Fns[1].get();
  S.eval("fill(1000L)");
  S.eval("fill(1000L)");
  OptOptions Opts;
  auto Ir = optimizeToIr(Fn, CallConv::FullElided, EntryState(), Opts);
  ASSERT_TRUE(Ir);
  auto F = lowerToLow(*Ir);

  auto TimeN = [&](int32_t N) {
    std::vector<Value> Args;
    Args.push_back(Value::integer(N));
    uint64_t Start = nowNanos();
    Value R = runLow(*F, std::move(Args), nullptr, S.global());
    uint64_t Elapsed = nowNanos() - Start;
    EXPECT_EQ(R.toInt(), N * (N + 1) / 2);
    return Elapsed;
  };
  TimeN(4000); // warm caches
  double T1 = static_cast<double>(TimeN(4000));
  double T4 = static_cast<double>(TimeN(16000));
  EXPECT_LT(T4 / T1, 9.0) << "fill loop must not be quadratic";
}

TEST_F(LowFixture, PrintLowIsReadable) {
  auto F = compile(R"(
    f <- function(x) x + 1L
    f(1L); f(1L); f(1L)
  )");
  ASSERT_TRUE(F);
  std::string P = printLow(*F);
  EXPECT_NE(P.find("lowfn"), std::string::npos);
  EXPECT_NE(P.find("ret"), std::string::npos);
}

TEST_F(LowFixture, GuardFailureWithoutHandlerRaises) {
  auto F = compile(R"(
    f <- function(v) v[[1]]
    x <- c(1L); f(x); f(x); f(x)
  )");
  ASSERT_TRUE(F);
  ASSERT_GT(F->GuardCount, 0u);
  // Passing a double vector violates the IntVec speculation; without an
  // installed deopt handler the engine must fail loudly, not silently.
  std::vector<Value> Args;
  Args.push_back(Value::realVec({1.5}));
  EXPECT_THROW(runLow(*F, std::move(Args), nullptr, S.global()), RError);
}

//===----------------------------------------------------------------------===//
// Deferred frame-state boxing: a guard's raw frame-state values are boxed
// by the Box ops of its DeoptMeta, which run only when the guard fails.

namespace {

/// A loop whose in-loop guard (the type of a list element) has eight raw
/// ints and three raw reals in its frame state.
const char *RawFrameKernel = R"(
  k <- function(l, n) {
    i1 <- 0L; i2 <- 1L; i3 <- 2L; i4 <- 3L
    i5 <- 4L; i6 <- 5L; i7 <- 6L; i8 <- 7L
    x <- 0.5; y <- 1.5; z <- 2.5
    for (i in 1:n) {
      v <- l[[i]]
      i1 <- i1 + v; i2 <- i2 + i1; i3 <- i3 + 2L; i4 <- i4 + i3
      i5 <- i5 + i; i6 <- i6 + i5; i7 <- i7 + 3L; i8 <- i8 + i7
      x <- x + 0.25; y <- y + x; z <- z * 0.5 + y
    }
    c(i1, i2, i3, i4, i5, i6, i7, i8, x, y, z)
  }
  li <- vector("list", 40L)
  for (j in 1:40) li[[j]] <- j %% 5L
)";

std::vector<bool> backends() {
  return nativeBackendSupported() ? std::vector<bool>{false, true}
                                  : std::vector<bool>{false};
}

bool isRaw(const Instr *V) {
  return V->Type.isExactly(Tag::Int) || V->Type.isExactly(Tag::Real);
}

} // namespace

TEST_F(LowFixture, FrameStateBoxesAreDeferredToTheGuard) {
  auto Ir = optimize(std::string(RawFrameKernel) +
                     "k(li, 40L); k(li, 40L); k(li, 40L)");
  ASSERT_TRUE(Ir);
  // Raw values per guard's frame-state chain, in lowering (RPO) order.
  std::vector<size_t> RawPerGuard;
  for (const BB *B : Ir->rpo())
    for (auto &IP : B->Instrs) {
      if (IP->Op != IrOp::AssumeIr)
        continue;
      size_t Raw = 0;
      for (const Instr *Fs = IP->op(1)->op(0); Fs; Fs = Fs->parentFs())
        for (const Instr *V : Fs->Ops)
          Raw += isRaw(V);
      RawPerGuard.push_back(Raw);
    }
  auto F = lowerToLow(*Ir);
  ASSERT_EQ(F->Deopts.size(), RawPerGuard.size());
  size_t Deferred = 0;
  for (size_t K = 0; K < F->Deopts.size(); ++K) {
    const DeoptMeta &M = F->Deopts[K];
    EXPECT_EQ(M.Boxes.size(), RawPerGuard[K])
        << "guard " << K << ": one deferred Box per raw frame-state value";
    Deferred += M.Boxes.size();
    for (const LowInstr &Bx : M.Boxes) {
      EXPECT_EQ(Bx.Op, LowOp::Box);
      SlotClass Cls = static_cast<SlotClass>(Bx.C);
      ASSERT_NE(Cls, SlotClass::Boxed);
      EXPECT_LT(Bx.A,
                Cls == SlotClass::RawReal ? F->NumSlotsD : F->NumSlotsI);
      EXPECT_LT(Bx.Dst, F->NumSlots);
      auto Names = [&](const std::vector<uint16_t> &Stack,
                       const std::vector<std::pair<Symbol, uint16_t>> &Env) {
        return std::count(Stack.begin(), Stack.end(), Bx.Dst) > 0 ||
               std::any_of(Env.begin(), Env.end(),
                           [&](auto &E) { return E.second == Bx.Dst; });
      };
      bool Named = Names(M.StackSlots, M.EnvSlots);
      for (const DeoptFrame &Fr : M.Callers)
        Named = Named || Names(Fr.StackSlots, Fr.EnvSlots);
      EXPECT_TRUE(Named) << "a deferred Box fills a frame-state slot";
    }
  }
  EXPECT_GE(Deferred, 11u) << "the in-loop guard sees 8 raw ints and 3 "
                              "raw reals\n"
                           << printLow(*F);
  // No Box left in the code writes a temp that only the metadata reads.
  // The one exception is an edge Box into a boxed phi that only
  // framestates use (here `i` and `v`, unbound before the loop): a phi
  // home, written on each incoming edge, not a guard's temp.
  for (size_t Pc = 0; Pc < F->Code.size(); ++Pc) {
    const LowInstr &Bx = F->Code[Pc];
    if (Bx.Op != LowOp::Box)
      continue;
    bool Read = std::any_of(F->Code.begin(), F->Code.end(),
                            [&](const LowInstr &I) {
                              return lowReadsBoxed(I, Bx.Dst);
                            });
    auto Writes = std::count_if(
        F->Code.begin(), F->Code.end(), [&](const LowInstr &I) {
          return I.Dst == Bx.Dst &&
                 (I.Op == LowOp::Box ||
                  (I.Op == LowOp::Move &&
                   static_cast<SlotClass>(I.B) == SlotClass::Boxed));
        });
    EXPECT_TRUE(Read || Writes > 1)
        << "box at pc " << Pc << " feeds only deopt metadata\n"
        << printLow(*F);
  }
  std::string P = printLow(*F);
  EXPECT_NE(P.find(" box d"), std::string::npos)
      << "dumps list each guard's deferred boxes:\n"
      << P;
}

namespace {

/// The caller's frame holds raw values across the inlined call: locals
/// and the partial sum `b + a` on its operand stack.
const char *InlinedRawCaller = R"(
  inner <- function(l, i) l[[i]] * 2L
  outer <- function(l, n) {
    a <- 0L; b <- 1L; x <- 0.5
    for (i in 1:n) {
      a <- a + i
      b <- b + a + inner(l, i)
      x <- x * 0.5 + a
    }
    c(a, b, x)
  }
  li <- vector("list", 40L)
  for (j in 1:40) li[[j]] <- j %% 5L
  lr <- li
  lr[[20L]] <- 2.5
)";

} // namespace

TEST_F(LowFixture, InlinedGuardsDeferCallerFrameBoxes) {
  OptOptions Opts;
  Opts.Inline.Enabled = true;
  auto F = compile(std::string(InlinedRawCaller) +
                       "outer(li, 40L); outer(li, 40L); outer(li, 40L)",
                   2, Opts);
  ASSERT_TRUE(F);
  bool Found = false;
  for (const DeoptMeta &M : F->Deopts)
    for (const DeoptFrame &Fr : M.Callers)
      for (const LowInstr &Bx : M.Boxes)
        Found = Found || std::count(Fr.StackSlots.begin(),
                                    Fr.StackSlots.end(), Bx.Dst) > 0;
  EXPECT_TRUE(Found) << "an inlined guard's caller frame holds `b + a` "
                        "through a deferred box\n"
                     << printLow(*F);
}

TEST(DeferredBoxes, InlinedCalleeFailureRebuildsRawCallerFrames) {
  // The callee's guard fails on a real list element, so the caller frames
  // are rebuilt from the deferred boxes: by OSR-out under Normal, from the
  // deoptless continuation's arguments under Deoptless.
  auto Run = [](TierStrategy S, bool Native) {
    Vm::Config Cfg;
    Cfg.Strategy = S;
    Cfg.NativeTier = Native;
    Cfg.Inlining = true;
    Vm V(Cfg);
    V.eval(InlinedRawCaller);
    for (int K = 0; K < 6; ++K)
      V.eval("outer(li, 40L)");
    std::string R = V.eval("outer(lr, 40L)").show();
    return R + " | " + V.eval("outer(lr, 40L)").show() + " | " +
           V.eval("outer(li, 40L)").show();
  };
  std::string Base = Run(TierStrategy::BaselineOnly, false);
  for (bool Native : backends()) {
    resetStats();
    EXPECT_EQ(Run(TierStrategy::Normal, Native), Base) << "native=" << Native;
    EXPECT_GT(stats().InlinedCalls, 0u) << "inner must be inlined";
    EXPECT_GT(stats().MultiFrameDeopts, 0u) << "native=" << Native;
    resetStats();
    EXPECT_EQ(Run(TierStrategy::Deoptless, Native), Base)
        << "native=" << Native;
    EXPECT_GT(stats().DeoptlessInlineDispatches, 0u) << "native=" << Native;
  }
}

//===----------------------------------------------------------------------===//
// Last-use moves: a boxed slot is moved from, not copied, exactly where
// nothing reads its value afterwards.

namespace {

/// A hand-built loop over a boxed container: E -> H, the header H with
/// the container phi P = phi(Init [E], Next [B]), the body B and the exit
/// X. Params V, Cond, Idx and Val are boxed; the cases wire the rest.
struct LoopIr {
  IrCode C;
  BB *E, *H, *B, *X;
  Instr *V, *Cond, *Idx, *Val;

  LoopIr() {
    E = C.newBlock();
    H = C.newBlock();
    B = C.newBlock();
    X = C.newBlock();
    C.Entry = E;
    V = param();
    Cond = param();
    Idx = param();
    Val = param();
  }

  Instr *add(BB *In, IrOp Op, std::vector<Instr *> Ops,
             RType T = RType::any()) {
    auto I = C.make(Op, T);
    I->Ops = std::move(Ops);
    return In->append(std::move(I));
  }
  Instr *param() {
    Instr *P = add(E, IrOp::Param, {});
    P->Idx = static_cast<int32_t>(C.Params.size());
    C.Params.push_back(P);
    return P;
  }
  /// The header phi over \p Init; its back-edge input is filled by loop().
  Instr *phi(Instr *Init) {
    Instr *P = add(H, IrOp::Phi, {Init});
    P->Incoming = {E};
    return P;
  }
  Instr *setElem(Instr *Obj) {
    return add(B, IrOp::SetElem2Gen, {Obj, Idx, Val});
  }
  /// Closes the CFG. Rotated: H falls into B, whose branch either takes
  /// the back edge or leaves. Otherwise H tests and B jumps back.
  void loop(Instr *P, Instr *Next, bool Rotated) {
    add(E, IrOp::Jump, {});
    E->setSuccs(H);
    if (Rotated) {
      add(H, IrOp::Jump, {});
      H->setSuccs(B);
      add(B, IrOp::BranchIr, {Cond});
      B->setSuccs(H, X);
    } else {
      add(H, IrOp::BranchIr, {Cond});
      H->setSuccs(B, X);
      add(B, IrOp::Jump, {});
      B->setSuccs(H);
    }
    P->Ops.push_back(Next);
    P->Incoming.push_back(B);
  }
  std::unique_ptr<LowFunction> lower(Instr *Result) {
    add(X, IrOp::Ret, {Result});
    EXPECT_EQ(verify(C), "");
    return lowerToLow(C);
  }
};

/// The one instruction with opcode \p Op, or null when there is not
/// exactly one.
const LowInstr *onlyOp(const LowFunction &F, LowOp Op) {
  auto Is = [&](const LowInstr &I) { return I.Op == Op; };
  if (std::count_if(F.Code.begin(), F.Code.end(), Is) != 1)
    return nullptr;
  return &*std::find_if(F.Code.begin(), F.Code.end(), Is);
}

/// The boxed Move of slot \p From into slot \p To.
const LowInstr *boxedMove(const LowFunction &F, uint16_t From, uint16_t To) {
  for (const LowInstr &I : F.Code)
    if (I.Op == LowOp::Move && I.A == From && I.Dst == To &&
        static_cast<SlotClass>(I.B) == SlotClass::Boxed)
      return &I;
  return nullptr;
}

} // namespace

TEST(LastUseMoves, RotatedLoopMovesStoreResultOnBackEdge) {
  // The deoptless continuation shape: the store's result R feeds the
  // back edge *and* is read after the loop. On the back edge R is dead
  // (the exit reads it only from B, never through H), so it is moved;
  // a copy would leave the phi's container shared and make every later
  // store copy the whole vector.
  LoopIr L;
  Instr *P = L.phi(L.V);
  Instr *R = L.setElem(P);
  L.loop(P, R, /*Rotated=*/true);
  auto F = L.lower(R);
  ASSERT_TRUE(F);
  const LowInstr *Store = onlyOp(*F, LowOp::SetElem2Low);
  ASSERT_TRUE(Store);
  EXPECT_TRUE(Store->C & 0x100) << "the container dies at the store";
  const LowInstr *Back = boxedMove(*F, Store->Dst, Store->A);
  ASSERT_TRUE(Back) << printLow(*F);
  EXPECT_EQ(Back->C, 1) << printLow(*F);
  const LowInstr *In = boxedMove(*F, F->ParamSlots[0], Store->A);
  ASSERT_TRUE(In);
  EXPECT_EQ(In->C, 1) << "a dead Param is moved like any other value";
}

TEST(LastUseMoves, SourceReadAfterEdgeIsCopied) {
  LoopIr L;
  Instr *P = L.phi(L.V);
  Instr *R = L.setElem(P);
  L.loop(P, R, /*Rotated=*/false);
  auto F = L.lower(L.V); // the exit reads V after the entry edge
  ASSERT_TRUE(F);
  const LowInstr *Store = onlyOp(*F, LowOp::SetElem2Low);
  ASSERT_TRUE(Store);
  const LowInstr *In = boxedMove(*F, F->ParamSlots[0], Store->A);
  ASSERT_TRUE(In);
  EXPECT_EQ(In->C, 0) << printLow(*F);
  const LowInstr *Back = boxedMove(*F, Store->Dst, Store->A);
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->C, 1);
}

TEST(LastUseMoves, FramestateReadsKeepValuesAlive) {
  // The body's framestate captures V and the container; its guard sits
  // after the store. Both stay live: the entry edge copies V, and the
  // store may not empty P's slot, which a failing guard still reads.
  LoopIr L;
  Instr *P = L.phi(L.V);
  Instr *Fs = L.add(L.B, IrOp::FrameStateIr, {L.V, P}, RType::none());
  Fs->BcPc = 0;
  Fs->StackCount = 2;
  Instr *Cp = L.add(L.B, IrOp::CheckpointIr, {Fs}, RType::none());
  Instr *R = L.setElem(P);
  Instr *Test = L.add(L.B, IrOp::IsTagIr, {L.Idx}, RType::of(Tag::Lgl));
  Test->TagArg = Tag::Int;
  L.add(L.B, IrOp::AssumeIr, {Test, Cp}, RType::none());
  L.loop(P, R, /*Rotated=*/false);
  auto F = L.lower(P);
  ASSERT_TRUE(F);
  const LowInstr *Store = onlyOp(*F, LowOp::SetElem2Low);
  ASSERT_TRUE(Store);
  EXPECT_FALSE(Store->C & 0x100) << "the guard's framestate reads P";
  const LowInstr *In = boxedMove(*F, F->ParamSlots[0], Store->A);
  ASSERT_TRUE(In);
  EXPECT_EQ(In->C, 0) << "a framestate in the loop reads the Param";
}

TEST(LastUseMoves, ConstPhiInputIsNeverMoved) {
  // Constants are loaded once up front; moving one out would leave the
  // slot empty for the next entry into the loop.
  LoopIr L;
  Instr *K = L.add(L.E, IrOp::Const, {}, RType::of(Tag::IntVec));
  K->Cst = Value::intVec({1, 2});
  Instr *P = L.phi(K);
  Instr *R = L.setElem(P);
  L.loop(P, R, /*Rotated=*/false);
  auto F = L.lower(P);
  ASSERT_TRUE(F);
  const LowInstr *Load = onlyOp(*F, LowOp::LoadConst);
  const LowInstr *Store = onlyOp(*F, LowOp::SetElem2Low);
  ASSERT_TRUE(Load && Store);
  const LowInstr *In = boxedMove(*F, Load->Dst, Store->A);
  ASSERT_TRUE(In);
  EXPECT_EQ(In->C, 0);
}

TEST(LastUseMoves, SelfAliasingStoreKeepsTheStoredValue) {
  // `v[[2L]] <- v` reads the container twice: as the store's target and
  // as the stored value. Moving the target out would store an emptied
  // slot.
  for (TierStrategy S :
       {TierStrategy::BaselineOnly, TierStrategy::Normal,
        TierStrategy::Deoptless, TierStrategy::ProfileDrivenReopt})
    for (bool Native : backends())
      for (uint64_t Rate : {0u, 7u}) {
        Vm::Config Cfg;
        Cfg.Strategy = S;
        Cfg.NativeTier = Native;
        Cfg.InvalidationRate = Rate;
        Vm V(Cfg);
        V.eval("f <- function(n) { v <- list(1L, 2L); for (i in 1:n) "
               "v[[2L]] <- v; length(v[[2L]]) }");
        for (int K = 0; K < 6; ++K)
          EXPECT_EQ(V.eval("f(5L)").show(), "2L")
              << "strategy " << static_cast<int>(S) << " native=" << Native
              << " rate=" << Rate << " call " << K;
      }
}

TEST(LastUseMoves, FillLoopStaysLinearAfterFailures) {
  // The deoptless fill-loop cliff: after an injected failure, the
  // continuation re-entered this loop mid-body and every element store
  // copied the whole vector. Copy-on-write copies are the deterministic
  // check: each call and each failure (a deopt or a continuation
  // re-entering the loop) may copy the vector a bounded number of times,
  // independent of n. The wall-clock ratio is the asymptotic one: the
  // minimum of five runs each, n and 2n timed alternately so that a burst
  // of host noise hits both sides.
  const int32_t N = 40000;
  for (TierStrategy S : {TierStrategy::Normal, TierStrategy::Deoptless})
    for (bool Native : backends()) {
      Vm::Config Cfg;
      Cfg.Strategy = S;
      Cfg.NativeTier = Native;
      Cfg.InvalidationRate = 2000;
      Vm V(Cfg);
      V.eval("fill <- function(n) { set.seed(7L); seqv <- integer(n); "
             "for (i in 1:n) seqv[[i]] <- as.integer(runif(1L) * 4); "
             "sum(seqv) }");
      for (int K = 0; K < 5; ++K)
        V.eval("fill(2000L)");
      const std::string Calls[2] = {"fill(" + std::to_string(N) + "L)",
                                    "fill(" + std::to_string(2 * N) + "L)"};
      for (const std::string &Call : Calls) {
        V.eval(Call);
        resetStats();
        for (int K = 0; K < 3; ++K)
          V.eval(Call);
        uint64_t Failures = stats().AssumeFailures;
        EXPECT_GT(Failures, 0u) << "the loop must run after a failure";
        EXPECT_LE(stats().CowCopies, 3 * (Failures + 3))
            << "strategy " << static_cast<int>(S) << " native=" << Native
            << " " << Call << ": copies grow with n";
      }
      // Up to three attempts: host noise can inflate one attempt's ratio,
      // while the quadratic cliff measured ~4 in every attempt.
      double Ratio = 1e300;
      for (int Attempt = 0; Attempt < 3 && Ratio >= 2.5; ++Attempt) {
        double Best[2] = {1e300, 1e300};
        for (int K = 0; K < 5; ++K)
          for (int Side : {0, 1}) {
            uint64_t Start = nowNanos();
            V.eval(Calls[Side]);
            Best[Side] = std::min(Best[Side],
                                  static_cast<double>(nowNanos() - Start));
          }
        Ratio = Best[1] / Best[0];
      }
      EXPECT_LT(Ratio, 2.5)
          << "strategy " << static_cast<int>(S) << " native=" << Native
          << ": time(2n)/time(n) is not linear";
    }
}
