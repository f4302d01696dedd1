//===-- lowcode/lowcode.cpp - Low-level code format ----------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lowcode/lowcode.h"

using namespace rjit;

const char *rjit::lowOpName(LowOp Op) {
  switch (Op) {
  case LowOp::LoadConst:
    return "ldc";
  case LowOp::Move:
    return "mov";
  case LowOp::Box:
    return "box";
  case LowOp::Unbox:
    return "unbox";
  case LowOp::Coerce:
    return "coerce";
  case LowOp::LdEnv:
    return "ldenv";
  case LowOp::StEnv:
    return "stenv";
  case LowOp::StEnvSuper:
    return "stenv<<";
  case LowOp::MkClosLow:
    return "mkclos";
  case LowOp::CallValLow:
    return "call";
  case LowOp::CallBiLow:
    return "callbi";
  case LowOp::CallStaticLow:
    return "callstatic";
  case LowOp::ArithTyped:
    return "arith.t";
  case LowOp::BinGenLow:
    return "bin";
  case LowOp::NegLow:
    return "neg";
  case LowOp::NotLow:
    return "not";
  case LowOp::AsCondLow:
    return "ascond";
  case LowOp::Extract2Low:
    return "idx2";
  case LowOp::Extract1Low:
    return "idx1";
  case LowOp::Extract2Typed:
    return "idx2.t";
  case LowOp::SetElem2Low:
    return "setelem2";
  case LowOp::SetElem2Typed:
    return "setelem2.t";
  case LowOp::SetIdx2EnvLow:
    return "setidx2env";
  case LowOp::SetIdx1EnvLow:
    return "setidx1env";
  case LowOp::LengthLow:
    return "length";
  case LowOp::GuardCond:
    return "guard";
  case LowOp::JumpLow:
    return "jump";
  case LowOp::BranchFalseLow:
    return "brfalse";
  case LowOp::BranchTrueLow:
    return "brtrue";
  case LowOp::CmpBranch:
    return "cmpbr";
  case LowOp::RetLow:
    return "ret";
  }
  return "?";
}

bool rjit::lowReadsBoxed(const LowInstr &I, uint16_t Slot) {
  auto InArgRange = [&I, Slot] {
    return Slot >= I.B &&
           static_cast<int32_t>(Slot) < static_cast<int32_t>(I.B) + I.Imm;
  };
  // Every op is listed, so a new one breaks the -Wswitch build here
  // instead of silently reading nothing.
  switch (I.Op) {
  case LowOp::Move:
    return static_cast<SlotClass>(I.B) == SlotClass::Boxed && I.A == Slot;
  case LowOp::Coerce:
    return static_cast<SlotClass>(I.C >> 8) == SlotClass::Boxed &&
           I.A == Slot;
  case LowOp::CallValLow:
  case LowOp::CallStaticLow:
    return I.A == Slot || InArgRange();
  case LowOp::CallBiLow:
    return InArgRange();
  case LowOp::ArithTyped:
  case LowOp::CmpBranch:
    return ((I.C & 0x7FFF) & 3) == 0 && (I.A == Slot || I.B == Slot);
  case LowOp::BinGenLow:
  case LowOp::Extract2Low:
  case LowOp::Extract1Low:
  case LowOp::SetIdx2EnvLow:
  case LowOp::SetIdx1EnvLow:
    return I.A == Slot || I.B == Slot;
  case LowOp::SetElem2Low:
    return I.A == Slot || I.B == Slot ||
           (I.Imm >= 0 && static_cast<uint16_t>(I.Imm) == Slot);
  case LowOp::SetElem2Typed:
    // The stored element (Imm) is boxed for non-real/int kinds;
    // conservatively treat it as boxed for any kind.
    return I.A == Slot ||
           (I.Imm >= 0 && static_cast<uint16_t>(I.Imm) == Slot);
  case LowOp::Unbox:
  case LowOp::StEnv:
  case LowOp::StEnvSuper:
  case LowOp::NegLow:
  case LowOp::NotLow:
  case LowOp::AsCondLow:
  case LowOp::LengthLow:
  case LowOp::Extract2Typed:
  case LowOp::BranchFalseLow:
  case LowOp::BranchTrueLow:
  case LowOp::RetLow:
    return I.A == Slot;
  case LowOp::GuardCond:
    return I.C != GuardEpoch && I.A == Slot;
  case LowOp::LoadConst:
  case LowOp::Box:
  case LowOp::LdEnv:
  case LowOp::MkClosLow:
  case LowOp::JumpLow:
    return false;
  }
  return true;
}

LowRawUseDef rjit::lowRawUseDef(const LowFunction &F, const LowInstr &I) {
  LowRawUseDef UD;
  auto Read = [&UD](SlotClass K, uint16_t Slot) {
    if (K != SlotClass::Boxed)
      UD.Reads.push_back({K, Slot});
  };
  auto Write = [&UD](SlotClass K, uint16_t Slot) {
    if (K != SlotClass::Boxed)
      UD.Writes.push_back({K, Slot});
  };
  // The raw class of a typed op's rank (ArithTyped, CmpBranch); rank 0
  // (complex) operands are boxed.
  auto RankClass = [](int Rank) {
    return Rank == 2   ? SlotClass::RawReal
           : Rank == 1 ? SlotClass::RawInt
                       : SlotClass::Boxed;
  };
  auto KindClass = [](Tag K) {
    return K == Tag::Real  ? SlotClass::RawReal
           : K == Tag::Int ? SlotClass::RawInt
                           : SlotClass::Boxed;
  };
  // Every op is listed, so a new one breaks the -Wswitch build here.
  switch (I.Op) {
  case LowOp::LoadConst:
    Write(static_cast<SlotClass>(I.B), I.Dst);
    break;
  case LowOp::Move:
    Read(static_cast<SlotClass>(I.B), I.A);
    Write(static_cast<SlotClass>(I.B), I.Dst);
    break;
  case LowOp::Box:
    Read(static_cast<SlotClass>(I.C), I.A);
    break;
  case LowOp::Unbox:
    Write(static_cast<SlotClass>(I.C), I.Dst);
    break;
  case LowOp::Coerce:
    Read(static_cast<SlotClass>(I.C >> 8), I.A);
    Write(static_cast<SlotClass>(I.B), I.Dst);
    break;
  case LowOp::ArithTyped: {
    BinOp Op = static_cast<BinOp>(I.C >> 2);
    SlotClass K = RankClass(I.C & 3);
    Read(K, I.A);
    Read(K, I.B);
    bool Cmp = Op == BinOp::Eq || Op == BinOp::Ne || Op == BinOp::Lt ||
               Op == BinOp::Le || Op == BinOp::Gt || Op == BinOp::Ge;
    if (!Cmp) // compares box their result
      Write(K, I.Dst);
    break;
  }
  case LowOp::CmpBranch: {
    SlotClass K = RankClass((I.C & 0x7FFF) & 3);
    Read(K, I.A);
    Read(K, I.B);
    break;
  }
  case LowOp::Extract2Typed:
    Read(SlotClass::RawInt, I.B);
    Write(KindClass(static_cast<Tag>(I.C)), I.Dst);
    break;
  case LowOp::SetElem2Typed:
    Read(SlotClass::RawInt, I.B);
    if (I.Imm >= 0)
      Read(KindClass(static_cast<Tag>(I.C & 0xFF)),
           static_cast<uint16_t>(I.Imm));
    break;
  case LowOp::LengthLow:
    Write(SlotClass::RawInt, I.Dst);
    break;
  case LowOp::GuardCond:
    for (const LowInstr &B : F.Deopts[I.Imm].Boxes)
      Read(static_cast<SlotClass>(B.C), B.A);
    break;
  case LowOp::LdEnv:
  case LowOp::StEnv:
  case LowOp::StEnvSuper:
  case LowOp::MkClosLow:
  case LowOp::CallValLow:
  case LowOp::CallBiLow:
  case LowOp::CallStaticLow:
  case LowOp::BinGenLow:
  case LowOp::NegLow:
  case LowOp::NotLow:
  case LowOp::AsCondLow:
  case LowOp::Extract2Low:
  case LowOp::Extract1Low:
  case LowOp::SetElem2Low:
  case LowOp::SetIdx2EnvLow:
  case LowOp::SetIdx1EnvLow:
  case LowOp::JumpLow:
  case LowOp::BranchFalseLow:
  case LowOp::BranchTrueLow:
  case LowOp::RetLow:
    break; // boxed operands only
  }
  return UD;
}

std::string rjit::printLow(const LowFunction &F) {
  std::string S = "lowfn ";
  S += F.Origin ? symbolName(F.Origin->Name) : "?";
  S += " slots=" + std::to_string(F.NumSlots) +
       " params=" + std::to_string(F.NumParams) +
       " guards=" + std::to_string(F.GuardCount) + "\n";
  for (size_t Pc = 0; Pc < F.Code.size(); ++Pc) {
    const LowInstr &I = F.Code[Pc];
    S += std::to_string(Pc) + ": " + lowOpName(I.Op);
    S += " d" + std::to_string(I.Dst) + " a" + std::to_string(I.A) + " b" +
         std::to_string(I.B) + " c" + std::to_string(I.C);
    if (I.Op == LowOp::JumpLow || I.Op == LowOp::BranchFalseLow ||
        I.Op == LowOp::BranchTrueLow || I.Op == LowOp::CmpBranch)
      S += " -> " + std::to_string(I.Imm);
    else if (I.Imm)
      S += " imm=" + std::to_string(I.Imm);
    if (I.Op == LowOp::GuardCond) {
      const DeoptMeta &M = F.Deopts[I.Imm];
      S += std::string(" [") + deoptReasonName(M.RKind) +
           " pc=" + std::to_string(M.BcPc);
      // The frame state's deferred boxes: boxed temp <- raw home.
      for (const LowInstr &B : M.Boxes)
        S += " box d" + std::to_string(B.Dst) + "<-" +
             (static_cast<SlotClass>(B.C) == SlotClass::RawReal ? "r" : "i") +
             std::to_string(B.A);
      S += "]";
    }
    S += "\n";
  }
  return S;
}
