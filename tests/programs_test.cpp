//===-- tests/programs_test.cpp - Suite programs under every strategy ------===//
//
// Runs every benchmark program under BaselineOnly / Normal / Deoptless and
// checks that the results agree — the broadest integration coverage in the
// repository: every optimizer feature is exercised by some program.
//
//===----------------------------------------------------------------------===//

#include "native/native.h"
#include "suite/programs.h"
#include "support/stats.h"
#include "vm/vm.h"

#include <gtest/gtest.h>

using namespace rjit;
using namespace rjit::suite;

namespace {

Vm::Config cfg(TierStrategy S) {
  Vm::Config C;
  C.Strategy = S;
  C.CompileThreshold = 2;
  C.OsrThreshold = 100;
  return C;
}

double runProgram(const Program &P, TierStrategy S, int Iters = 3) {
  Vm V(cfg(S));
  V.eval(P.Setup);
  Value R;
  double Sum = 0;
  for (int K = 0; K < Iters; ++K) {
    R = V.eval(P.Driver);
    Sum += R.toReal();
  }
  return Sum;
}

class SuitePrograms : public ::testing::TestWithParam<const Program *> {};

} // namespace

TEST_P(SuitePrograms, StrategiesAgree) {
  const Program &P = *GetParam();
  double Base = runProgram(P, TierStrategy::BaselineOnly);
  double Norm = runProgram(P, TierStrategy::Normal);
  double DL = runProgram(P, TierStrategy::Deoptless);
  EXPECT_DOUBLE_EQ(Base, Norm) << P.Name;
  EXPECT_DOUBLE_EQ(Base, DL) << P.Name;
}

TEST_P(SuitePrograms, SurvivesRandomInvalidation) {
  const Program &P = *GetParam();
  double Base = runProgram(P, TierStrategy::BaselineOnly, 2);
  Vm::Config C = cfg(TierStrategy::Deoptless);
  C.InvalidationRate = 5000;
  double Sum = 0;
  {
    Vm V(C);
    V.eval(P.Setup);
    for (int K = 0; K < 2; ++K)
      Sum += V.eval(P.Driver).toReal();
  }
  EXPECT_DOUBLE_EQ(Base, Sum) << P.Name;
}

namespace {

std::vector<const Program *> allPrograms() {
  std::vector<const Program *> All;
  size_t N;
  const Program *P = mainSuite(N);
  for (size_t K = 0; K < N; ++K)
    All.push_back(&P[K]);
  P = extras(N);
  for (size_t K = 0; K < N; ++K)
    All.push_back(&P[K]);
  return All;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(All, SuitePrograms,
                         ::testing::ValuesIn(allPrograms()),
                         [](const ::testing::TestParamInfo<const Program *>
                                &Info) {
                           std::string N = Info.param->Name;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

TEST(SuiteLookup, ByNameFindsEverything) {
  for (const Program *P : allPrograms())
    EXPECT_EQ(byName(P->Name), P);
  EXPECT_EQ(byName("no-such-program"), nullptr);
}

TEST(GuardGate, BuiltinReadsLeaveTheHotLoops) {
  // Deterministic guard counts of a warm op (the perfbench suite setting:
  // Deoptless, default thresholds). Mandelbrot calls Mod and
  // fasta_naive_2 calls runif in their inner loops; when those builtin
  // reads were per-iteration identity guards, one op executed 26,293 and
  // 24,007 guard checks. As epoch-guarded constants the reads hoist out
  // of the loops: at least a 10x cut.
  struct Gate {
    const char *Name;
    uint64_t Before;
  };
  std::vector<bool> Backends{false};
  if (nativeBackendSupported())
    Backends.push_back(true);
  for (Gate G : {Gate{"Mandelbrot", 26293}, Gate{"fasta_naive_2", 24007}})
    for (bool Native : Backends) {
      const Program *P = byName(G.Name);
      ASSERT_NE(P, nullptr);
      Vm::Config C;
      C.Strategy = TierStrategy::Deoptless;
      C.NativeTier = Native;
      Vm V(C);
      V.eval(P->Setup);
      for (int K = 0; K < 3; ++K)
        V.eval(P->Driver);
      uint64_t Checks = stats().AssumeChecks;
      V.eval(P->Driver);
      Checks = stats().AssumeChecks - Checks;
      EXPECT_LE(Checks * 10, G.Before)
          << G.Name << (Native ? " native" : " lowcode") << ": " << Checks
          << " guard checks per op";
      EXPECT_GT(stats().HoistedGuards, 0u) << G.Name;
    }
}
