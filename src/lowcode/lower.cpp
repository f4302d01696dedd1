//===-- lowcode/lower.cpp - IR to LowCode lowering ------------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Slot discipline: every SSA value has a *home* determined by its static
// type — exactly-Int values live in a raw int32 array, exactly-Real values
// in a raw double array, everything else in boxed Value slots. Producers
// that can only deliver boxed results (calls, environment reads, generic
// ops) are followed by an Unbox when their result type is raw; consumers
// that need boxed inputs (calls, environment stores, returns) get a Box.
// Guards always guard boxed values (a guard exists precisely because the
// type is not statically known). A framestate's raw values are boxed only
// when its guard fails: their Box ops go into the DeoptMeta, not the code.
//
//===----------------------------------------------------------------------===//

#include "lowcode/lower.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace rjit;

namespace {

int kindRank(Tag T) {
  switch (T) {
  case Tag::Lgl:
    return 0;
  case Tag::Int:
    return 1;
  case Tag::Real:
    return 2;
  case Tag::Cplx:
    return 3;
  default:
    assert(false && "not a scalar kind");
    return 1;
  }
}

SlotClass classOfType(RType T) {
  if (T.isExactly(Tag::Real))
    return SlotClass::RawReal;
  if (T.isExactly(Tag::Int))
    return SlotClass::RawInt;
  return SlotClass::Boxed;
}

class Lowerer {
public:
  explicit Lowerer(const IrCode &C) : C(const_cast<IrCode &>(C)) {}

  std::unique_ptr<LowFunction> run() {
    F = std::make_unique<LowFunction>();
    F->Origin = C.Origin;
    F->Conv = C.Conv;
    F->EntryPc = C.EntryPc;
    F->NeedsEnv = C.UsesRealEnv;
    F->EnvParamSyms = C.EnvParamSyms;
    F->NumStackParams = C.NumStackParams;
    F->NumParams = static_cast<uint32_t>(C.Params.size());

    resolveAliases();
    countUses();
    assignSlots();
    for (BB *B : C.rpo())
      Rpo.push_back(B);
    computeLiveness();
    emitBlocks();
    emitTrampolines();
    applyFixups();

    F->NumSlots = NextB;
    F->NumSlotsD = NextD;
    F->NumSlotsI = NextI;
    return std::move(F);
  }

private:
  IrCode &C;
  std::unique_ptr<LowFunction> F;

  std::unordered_map<const Instr *, const Instr *> Alias;
  std::unordered_map<const Instr *, uint16_t> Slot;
  std::unordered_map<const Instr *, SlotClass> Class;
  std::unordered_map<const Instr *, uint32_t> AllUses;
  /// Dense index of the boxed values a move may empty: Params and computed
  /// values (Consts and Undefs are loaded once, up front, and reused).
  std::unordered_map<const Instr *, uint32_t> LiveIdx;
  std::vector<std::vector<bool>> LiveIn; ///< by block id; phis excluded
  std::unordered_set<const Instr *> LastUseStores; ///< container dies here
  uint16_t NextB = 0, NextD = 0, NextI = 0;

  std::map<const BB *, int32_t> BlockStart;
  struct Fixup {
    size_t LowPc;
    const BB *Target;
    int32_t Tramp = -1;
  };
  std::vector<Fixup> Fixups;

  struct Trampoline {
    const BB *From;
    const BB *To;
    int32_t StartPc = -1;
  };
  std::vector<Trampoline> Trampolines;

  std::vector<const BB *> Rpo;

  //===-- Setup --------------------------------------------------------------//

  const Instr *canon(const Instr *I) const {
    auto It = Alias.find(I);
    return It == Alias.end() ? I : It->second;
  }

  void resolveAliases() {
    // A CastType aliases its operand only when both have the same home;
    // raw-typed casts of boxed values materialize as Unbox instead.
    C.eachInstr([&](Instr *I) {
      if (I->Op != IrOp::CastType)
        return;
      const Instr *Root = I->op(0);
      while (Root->Op == IrOp::CastType &&
             classOfType(Root->Type) == classOfType(Root->op(0)->Type))
        Root = Root->op(0);
      if (classOfType(I->Type) == classOfType(Root->Type))
        Alias[I] = Root;
    });
  }

  void countUses() {
    C.eachInstr([&](Instr *I) {
      for (Instr *Op : I->Ops)
        ++AllUses[canon(Op)];
    });
  }

  static bool producesValue(const Instr &I) {
    switch (I.Op) {
    case IrOp::FrameStateIr:
    case IrOp::CheckpointIr:
    case IrOp::AssumeIr:
    case IrOp::BuiltinsIntactIr:
    case IrOp::StVarEnv:
    case IrOp::StVarSuperEnv:
    case IrOp::Jump:
    case IrOp::BranchIr:
    case IrOp::Ret:
      return false;
    default:
      return true;
    }
  }

  uint16_t allocSlot(SlotClass K) {
    switch (K) {
    case SlotClass::RawReal:
      return NextD++;
    case SlotClass::RawInt:
      return NextI++;
    default:
      return NextB++;
    }
  }

  void assignSlots() {
    for (Instr *P : C.Params) {
      SlotClass K = classOfType(P->Type);
      Class[P] = K;
      Slot[P] = allocSlot(K);
      F->ParamClasses.push_back(K);
      F->ParamSlots.push_back(Slot[P]);
    }
    C.eachInstr([&](Instr *I) {
      if (!producesValue(*I) || Slot.count(I) || Alias.count(I))
        return;
      SlotClass K = classOfType(I->Type);
      Class[I] = K;
      Slot[I] = allocSlot(K);
    });
  }

  SlotClass classOf(const Instr *I) const {
    auto It = Class.find(canon(I));
    assert(It != Class.end() && "value without class");
    return It->second;
  }
  uint16_t slotOf(const Instr *I) const {
    auto It = Slot.find(canon(I));
    assert(It != Slot.end() && "value without slot");
    return It->second;
  }
  uint16_t boxedSlotOf(const Instr *I) const {
    assert(classOf(I) == SlotClass::Boxed && "expected boxed home");
    return slotOf(I);
  }

  //===-- Emission helpers ----------------------------------------------------//

  size_t emit(LowInstr I) {
    F->Code.push_back(I);
    return F->Code.size() - 1;
  }

  int32_t addConst(Value V) {
    F->Consts.push_back(std::move(V));
    return static_cast<int32_t>(F->Consts.size() - 1);
  }

  /// Returns a boxed slot holding \p V's value at this point, boxing raw
  /// homes into a fresh temporary. With \p Deferred the Box goes there
  /// instead of into the code: a guard's framestate boxes run only when
  /// the guard fails.
  uint16_t ensureBoxed(const Instr *V,
                       std::vector<LowInstr> *Deferred = nullptr) {
    SlotClass K = classOf(V);
    if (K == SlotClass::Boxed)
      return slotOf(V);
    LowInstr B{LowOp::Box};
    B.Dst = NextB++;
    B.A = slotOf(V);
    B.C = static_cast<uint16_t>(K);
    if (Deferred)
      Deferred->push_back(B);
    else
      emit(B);
    return B.Dst;
  }

  /// Emits \p L (which writes a boxed result to L.Dst); when the value's
  /// home is raw, routes through a boxed temp + Unbox.
  void emitBoxedProducer(const Instr *I, LowInstr L) {
    SlotClass K = classOf(I);
    if (K == SlotClass::Boxed) {
      L.Dst = slotOf(I);
      emit(L);
      return;
    }
    uint16_t Tmp = NextB++;
    L.Dst = Tmp;
    emit(L);
    LowInstr U{LowOp::Unbox};
    U.Dst = slotOf(I);
    U.A = Tmp;
    U.C = static_cast<uint16_t>(K);
    emit(U);
  }

  //===-- Last-use moves ------------------------------------------------------//

  using EdgeMoves = std::vector<std::pair<const Instr *, const Instr *>>;

  /// The (phi, incoming value) pairs of the edge \p From -> \p To.
  static EdgeMoves phiInputs(const BB *From, const BB *To) {
    EdgeMoves Moves;
    auto &Preds = To->Preds;
    size_t P = static_cast<size_t>(
        std::find(Preds.begin(), Preds.end(), From) - Preds.begin());
    for (auto &IP : To->Instrs)
      if (IP->Op == IrOp::Phi && P < IP->Ops.size())
        Moves.push_back({IP.get(), IP->Ops[P]});
    return Moves;
  }

  /// Calls \p Fn on every value whose slot \p I reads where it is lowered:
  /// its operands, framestates included, and for a guard also the tested
  /// value and its whole framestate chain, which buildMeta reads there. A
  /// phi reads its operands on the incoming edges instead.
  template <typename Fn> void forEachRead(const Instr &I, Fn F) const {
    if (I.Op == IrOp::Phi)
      return;
    for (const Instr *Op : I.Ops)
      F(canon(Op));
    if (I.Op != IrOp::AssumeIr)
      return;
    for (const Instr *Op : I.op(0)->Ops)
      F(canon(Op));
    for (const Instr *Fs = I.op(1)->op(0); Fs; Fs = Fs->parentFs())
      for (const Instr *Op : Fs->Ops)
        F(canon(Op));
  }

  /// Backward liveness of the boxed values, to a fixpoint over the CFG; a
  /// phi operand is live at the end of its predecessor. A slot is moved
  /// from (left empty) instead of copied wherever its value is dead
  /// afterwards, so a container reaches its element store unshared and is
  /// updated in place: `v[[i]] <- x` loops stay O(n) whatever else reads
  /// v, before the loop, after it, or from a framestate.
  void computeLiveness() {
    for (auto &[I, K] : Class)
      if (K == SlotClass::Boxed && I->Op != IrOp::Const &&
          I->Op != IrOp::Undef)
        LiveIdx.emplace(I, static_cast<uint32_t>(LiveIdx.size()));
    LiveIn.assign(C.NextBlockId, std::vector<bool>(LiveIdx.size()));
    auto Set = [&](std::vector<bool> &Live, const Instr *V, bool On) {
      auto It = LiveIdx.find(V);
      if (It != LiveIdx.end())
        Live[It->second] = On;
    };
    auto Scan = [&](const BB *B) {
      std::vector<bool> Live(LiveIdx.size());
      for (const BB *S : B->Succs)
        if (S) {
          for (size_t K = 0; K < Live.size(); ++K)
            Live[K] = Live[K] || LiveIn[S->Id][K];
          for (auto &[Phi, Src] : phiInputs(B, S))
            Set(Live, canon(Src), true);
        }
      for (auto It = B->Instrs.rbegin(); It != B->Instrs.rend(); ++It) {
        const Instr &I = **It;
        Set(Live, &I, false);
        if (I.Op == IrOp::SetElem2Gen || I.Op == IrOp::SetElem2Typed) {
          // Dead afterwards, and neither the index nor the stored value.
          const Instr *Obj = canon(I.op(0));
          auto Ix = LiveIdx.find(Obj);
          if (Ix != LiveIdx.end() && !Live[Ix->second] &&
              canon(I.op(1)) != Obj && canon(I.op(2)) != Obj)
            LastUseStores.insert(&I);
        }
        forEachRead(I, [&](const Instr *V) { Set(Live, V, true); });
      }
      return Live;
    };
    for (bool Changed = true; Changed;) {
      Changed = false;
      LastUseStores.clear();
      for (auto It = Rpo.rbegin(); It != Rpo.rend(); ++It) {
        std::vector<bool> In = Scan(*It);
        Changed = Changed || In != LiveIn[(*It)->Id];
        LiveIn[(*It)->Id] = std::move(In);
      }
    }
  }

  /// Emits the phi copies for the edge From -> To.
  void emitEdgeMoves(const BB *From, const BB *To) {
    EdgeMoves Moves = phiInputs(From, To);
    if (Moves.empty())
      return;

    bool NeedTemps = false;
    for (auto &[Phi, Src] : Moves)
      for (auto &[OtherPhi, OtherSrc] : Moves)
        if (OtherPhi != Phi && classOf(OtherPhi) == classOf(Src) &&
            slotOf(OtherPhi) == slotOf(Src))
          NeedTemps = true;

    // The edge is \p Src's last read when it is dead in \p To and no other
    // phi on the edge reads it too.
    auto DiesOnEdge = [&](const Instr *Src) {
      auto It = LiveIdx.find(canon(Src));
      if (It == LiveIdx.end() || LiveIn[To->Id][It->second])
        return false;
      size_t Reads = 0;
      for (auto &[Phi, Other] : Moves)
        Reads += canon(Other) == canon(Src);
      return Reads == 1;
    };
    auto EmitOne = [&](uint16_t Dst, SlotClass DstK, const Instr *Src) {
      SlotClass SrcK = classOf(Src);
      if (SrcK != DstK) {
        // Box/unbox into the destination class. (Classes can only differ
        // when the phi is boxed and the source raw: a phi's type joins its
        // inputs, so a raw — precise — phi implies raw same-kind inputs.)
        if (DstK == SlotClass::Boxed) {
          LowInstr B{LowOp::Box};
          B.Dst = Dst;
          B.A = slotOf(Src);
          B.C = static_cast<uint16_t>(SrcK);
          emit(B);
          return;
        }
        Tag Target = DstK == SlotClass::RawReal ? Tag::Real : Tag::Int;
        LowInstr Co{LowOp::Coerce};
        Co.Dst = Dst;
        Co.A = slotOf(Src);
        Co.C = static_cast<uint16_t>(static_cast<uint16_t>(Target) |
                                     (static_cast<uint16_t>(SrcK) << 8));
        Co.B = static_cast<uint16_t>(DstK);
        emit(Co);
        return;
      }
      LowInstr M{LowOp::Move};
      M.Dst = Dst;
      M.A = slotOf(Src);
      M.B = static_cast<uint16_t>(DstK);
      M.C = DstK == SlotClass::Boxed && DiesOnEdge(Src) ? 1 : 0;
      emit(M);
    };

    if (!NeedTemps) {
      for (auto &[Phi, Src] : Moves) {
        SlotClass K = classOf(Phi);
        if (classOf(Src) == K && slotOf(Phi) == slotOf(Src))
          continue;
        EmitOne(slotOf(Phi), K, Src);
      }
      return;
    }
    std::vector<std::pair<uint16_t, SlotClass>> Temps;
    for (auto &[Phi, Src] : Moves) {
      SlotClass K = classOf(Phi);
      uint16_t T = allocSlot(K);
      Temps.push_back({T, K});
      EmitOne(T, K, Src);
    }
    for (size_t K = 0; K < Moves.size(); ++K) {
      LowInstr M{LowOp::Move};
      M.Dst = slotOf(Moves[K].first);
      M.A = Temps[K].first;
      M.B = static_cast<uint16_t>(Temps[K].second);
      M.C = Temps[K].second == SlotClass::Boxed ? 1 : 0;
      emit(M);
    }
  }

  void jumpTo(const BB *Target) {
    LowInstr I{LowOp::JumpLow};
    size_t Pc = emit(I);
    Fixups.push_back({Pc, Target, -1});
  }

  const BB *nextInLayout(const BB *B) const {
    for (size_t K = 0; K + 1 < Rpo.size(); ++K)
      if (Rpo[K] == B)
        return Rpo[K + 1];
    return nullptr;
  }

  bool fuseCompare(const Instr *Cond, LowInstr &Br, bool SenseTrue) {
    const Instr *R = canon(Cond);
    if (R->Op != IrOp::BinTyped || AllUses[R] != 1)
      return false;
    switch (R->Bop) {
    case BinOp::Eq:
    case BinOp::Ne:
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
      break;
    default:
      return false;
    }
    if (F->Code.empty())
      return false;
    const LowInstr &Last = F->Code.back();
    if (Last.Op != LowOp::ArithTyped || Last.Dst != slotOf(R))
      return false;
    Br.Op = LowOp::CmpBranch;
    Br.A = Last.A;
    Br.B = Last.B;
    Br.C = static_cast<uint16_t>(Last.C | (SenseTrue ? 0x8000u : 0u));
    F->Code.pop_back();
    return true;
  }

  //===-- Block emission --------------------------------------------------------//

  void emitBlocks() {
    // Materialize constants and undefs once up front.
    for (const BB *B : Rpo)
      for (auto &IP : B->Instrs)
        if (IP->Op == IrOp::Const || IP->Op == IrOp::Undef) {
          LowInstr L{LowOp::LoadConst};
          L.Dst = slotOf(IP.get());
          L.B = static_cast<uint16_t>(classOf(IP.get()));
          L.Imm = addConst(IP->Op == IrOp::Const ? IP->Cst : Value::nil());
          emit(L);
        }
    for (const BB *B : Rpo) {
      BlockStart[B] = static_cast<int32_t>(F->Code.size());
      for (auto &IP : B->Instrs)
        emitInstr(*IP, B);
    }
  }

  void emitTrampolines() {
    for (auto &T : Trampolines) {
      T.StartPc = static_cast<int32_t>(F->Code.size());
      emitEdgeMoves(T.From, T.To);
      jumpTo(T.To);
    }
  }

  void applyFixups() {
    for (const Fixup &Fx : Fixups) {
      if (Fx.Tramp >= 0)
        F->Code[Fx.LowPc].Imm = Trampolines[Fx.Tramp].StartPc;
      else
        F->Code[Fx.LowPc].Imm = BlockStart.at(Fx.Target);
    }
  }

  void branchFixup(size_t LowPc, const BB *From, const BB *To) {
    if (!phiInputs(From, To).empty()) {
      Trampolines.push_back({From, To, -1});
      Fixups.push_back(
          {LowPc, To, static_cast<int32_t>(Trampolines.size() - 1)});
      return;
    }
    Fixups.push_back({LowPc, To, -1});
  }

  void emitInstr(const Instr &I, const BB *B) {
    switch (I.Op) {
    case IrOp::Const:
    case IrOp::Undef:
    case IrOp::Param:
    case IrOp::Phi:
      return; // prologue / call convention / edge moves

    case IrOp::CoerceNum: {
      LowInstr L{LowOp::Coerce};
      L.Dst = slotOf(&I);
      L.A = slotOf(I.op(0));
      L.B = static_cast<uint16_t>(classOf(&I));
      L.C = static_cast<uint16_t>(
          static_cast<uint16_t>(I.Knd) |
          (static_cast<uint16_t>(classOf(I.op(0))) << 8));
      emit(L);
      return;
    }

    case IrOp::CastType: {
      if (Alias.count(&I))
        return;
      // Materialized cast: boxed -> raw (the value is now known precise).
      LowInstr U{LowOp::Unbox};
      U.Dst = slotOf(&I);
      U.A = ensureBoxed(I.op(0));
      U.C = static_cast<uint16_t>(classOf(&I));
      assert(classOf(&I) != SlotClass::Boxed && "cast alias expected");
      emit(U);
      return;
    }

    case IrOp::LdVarEnv: {
      LowInstr L{LowOp::LdEnv};
      L.Imm = static_cast<int32_t>(I.Sym);
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::StVarEnv: {
      LowInstr L{LowOp::StEnv};
      L.A = ensureBoxed(I.op(0));
      L.Imm = static_cast<int32_t>(I.Sym);
      emit(L);
      return;
    }
    case IrOp::StVarSuperEnv: {
      LowInstr L{LowOp::StEnvSuper};
      L.A = ensureBoxed(I.op(0));
      L.Imm = static_cast<int32_t>(I.Sym);
      emit(L);
      return;
    }
    case IrOp::MkClosureIr: {
      LowInstr L{LowOp::MkClosLow};
      L.Imm = I.Idx;
      emitBoxedProducer(&I, L);
      return;
    }

    case IrOp::CallVal:
    case IrOp::CallStatic: {
      size_t NArgs = I.Ops.size() - 1;
      uint16_t Base = NextB;
      NextB = static_cast<uint16_t>(NextB + NArgs);
      for (size_t K = 0; K < NArgs; ++K)
        emitArgMove(static_cast<uint16_t>(Base + K), I.op(K + 1));
      LowInstr L{I.Op == IrOp::CallVal ? LowOp::CallValLow
                                       : LowOp::CallStaticLow};
      L.A = ensureBoxed(I.op(0));
      L.B = Base;
      L.Imm = static_cast<int32_t>(NArgs);
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::CallBuiltinKnown: {
      size_t NArgs = I.Ops.size();
      uint16_t Base = NextB;
      NextB = static_cast<uint16_t>(NextB + NArgs);
      for (size_t K = 0; K < NArgs; ++K)
        emitArgMove(static_cast<uint16_t>(Base + K), I.op(K));
      LowInstr L{LowOp::CallBiLow};
      L.B = Base;
      L.C = static_cast<uint16_t>(I.Bid);
      L.Imm = static_cast<int32_t>(NArgs);
      emitBoxedProducer(&I, L);
      return;
    }

    case IrOp::BinGen: {
      LowInstr L{LowOp::BinGenLow};
      L.A = ensureBoxed(I.op(0));
      L.B = ensureBoxed(I.op(1));
      L.C = static_cast<uint16_t>(I.Bop);
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::BinTyped: {
      // Operands of rank 1/2 are raw by construction; rank 3 (complex) and
      // rank 0 do not occur after strength reduction.
      LowInstr L{LowOp::ArithTyped};
      L.Dst = slotOf(&I);
      L.A = slotOf(I.op(0));
      L.B = slotOf(I.op(1));
      L.C = static_cast<uint16_t>((static_cast<unsigned>(I.Bop) << 2) |
                                  kindRank(I.Knd));
      emit(L);
      return;
    }
    case IrOp::NegGen: {
      LowInstr L{LowOp::NegLow};
      L.A = ensureBoxed(I.op(0));
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::NotGen: {
      LowInstr L{LowOp::NotLow};
      L.A = ensureBoxed(I.op(0));
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::AsCond: {
      LowInstr L{LowOp::AsCondLow};
      L.A = ensureBoxed(I.op(0));
      emitBoxedProducer(&I, L);
      return;
    }

    case IrOp::Extract2Gen:
    case IrOp::Extract1Gen: {
      LowInstr L{I.Op == IrOp::Extract2Gen ? LowOp::Extract2Low
                                           : LowOp::Extract1Low};
      L.A = ensureBoxed(I.op(0));
      L.B = ensureBoxed(I.op(1));
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::Extract2Typed: {
      // Obj boxed, index raw int; destination per element kind.
      LowInstr L{LowOp::Extract2Typed};
      L.Dst = slotOf(&I);
      L.A = boxedSlotOf(I.op(0));
      L.B = slotOf(I.op(1));
      assert(classOf(I.op(1)) == SlotClass::RawInt && "index must be raw");
      L.C = static_cast<uint16_t>(I.Knd);
      emit(L);
      return;
    }
    case IrOp::SetElem2Gen:
    case IrOp::SetElem2Typed: {
      LowInstr L{I.Op == IrOp::SetElem2Gen ? LowOp::SetElem2Low
                                           : LowOp::SetElem2Typed};
      L.Dst = boxedSlotOf(&I);
      L.A = boxedSlotOf(I.op(0));
      bool Steal = LastUseStores.count(&I);
      if (I.Op == IrOp::SetElem2Typed) {
        L.B = slotOf(I.op(1)); // raw int index
        assert(classOf(I.op(1)) == SlotClass::RawInt);
        L.Imm = slotOf(I.op(2)); // value in its (kind-implied) home
        L.C = static_cast<uint16_t>(static_cast<uint16_t>(I.Knd) |
                                    (Steal ? 0x100u : 0u));
      } else {
        L.B = ensureBoxed(I.op(1));
        L.Imm = ensureBoxed(I.op(2));
        L.C = static_cast<uint16_t>(Steal ? 0x100u : 0u);
      }
      emit(L);
      return;
    }
    case IrOp::SetIdx2Env:
    case IrOp::SetIdx1Env: {
      LowInstr L{I.Op == IrOp::SetIdx2Env ? LowOp::SetIdx2EnvLow
                                          : LowOp::SetIdx1EnvLow};
      L.A = ensureBoxed(I.op(0));
      L.B = ensureBoxed(I.op(1));
      L.Imm2 = static_cast<int32_t>(I.Sym);
      emitBoxedProducer(&I, L);
      return;
    }
    case IrOp::LengthIr: {
      LowInstr L{LowOp::LengthLow};
      L.Dst = slotOf(&I);
      L.A = ensureBoxed(I.op(0));
      assert(classOf(&I) == SlotClass::RawInt && "length is a raw int");
      emit(L);
      return;
    }

    case IrOp::IsTagIr:
    case IrOp::IsFunIr:
    case IrOp::IsBuiltinIr:
    case IrOp::BuiltinsIntactIr:
      return; // evaluated by the guard

    case IrOp::AssumeIr: {
      const Instr *Cond = I.op(0);
      int32_t MetaIdx = buildMeta(I, Cond);
      LowInstr L{LowOp::GuardCond};
      L.Imm = MetaIdx;
      L.A = F->Deopts[MetaIdx].ValueSlot;
      L.C = Cond->Op == IrOp::IsTagIr            ? GuardTag
            : Cond->Op == IrOp::IsFunIr          ? GuardClosure
            : Cond->Op == IrOp::IsBuiltinIr      ? GuardBuiltin
            : Cond->Op == IrOp::BuiltinsIntactIr ? GuardEpoch
                                                 : GuardTruth;
      emit(L);
      ++F->GuardCount;
      return;
    }
    case IrOp::FrameStateIr:
    case IrOp::CheckpointIr:
      return;

    case IrOp::Jump: {
      const BB *To = B->Succs[0];
      emitEdgeMoves(B, To);
      if (nextInLayout(B) != To)
        jumpTo(To);
      return;
    }
    case IrOp::BranchIr: {
      const BB *TrueBb = B->Succs[0];
      const BB *FalseBb = B->Succs[1];
      const BB *Next = nextInLayout(B);
      bool SenseTrue = Next == FalseBb;
      const BB *Taken = SenseTrue ? TrueBb : FalseBb;
      const BB *Fall = SenseTrue ? FalseBb : TrueBb;
      LowInstr Br{SenseTrue ? LowOp::BranchTrueLow : LowOp::BranchFalseLow};
      if (!fuseCompare(I.op(0), Br, SenseTrue))
        Br.A = ensureBoxed(I.op(0));
      size_t BrPc = emit(Br);
      branchFixup(BrPc, B, Taken);
      emitEdgeMoves(B, Fall);
      if (nextInLayout(B) != Fall)
        jumpTo(Fall);
      return;
    }
    case IrOp::Ret: {
      LowInstr L{LowOp::RetLow};
      L.A = ensureBoxed(I.op(0));
      emit(L);
      return;
    }
    default:
      assert(false && "unhandled IR op in lowering");
      return;
    }
  }

  /// Copies or boxes an argument into a boxed call-window slot.
  void emitArgMove(uint16_t Dst, const Instr *Src) {
    SlotClass K = classOf(Src);
    if (K == SlotClass::Boxed) {
      LowInstr M{LowOp::Move};
      M.Dst = Dst;
      M.A = slotOf(Src);
      M.B = static_cast<uint16_t>(SlotClass::Boxed);
      emit(M);
      return;
    }
    LowInstr Bx{LowOp::Box};
    Bx.Dst = Dst;
    Bx.A = slotOf(Src);
    Bx.C = static_cast<uint16_t>(K);
    emit(Bx);
  }

  int32_t buildMeta(const Instr &Assume, const Instr *Cond) {
    DeoptMeta M;
    M.RKind = Assume.RKind;
    M.ReasonPc = Assume.BcPc;
    M.FailedFeedbackSlot = Assume.Idx;
    if (Cond->Op == IrOp::IsTagIr || Cond->Op == IrOp::IsFunIr ||
        Cond->Op == IrOp::IsBuiltinIr) {
      if (Cond->Op == IrOp::IsTagIr)
        M.ExpectedTag = Cond->TagArg;
      if (Cond->Op == IrOp::IsFunIr)
        M.ExpectedFun = Cond->Target;
      if (Cond->Op == IrOp::IsBuiltinIr) {
        M.ExpectedBuiltin = Cond->Bid;
        M.HasExpectedBuiltin = true;
        M.ExpectedTag = Tag::Builtin;
      }
      M.ValueSlot = ensureBoxed(Cond->op(0));
      M.HasValueSlot = true;
    } else if (Cond->Op == IrOp::BuiltinsIntactIr) {
      M.Epoch = Cond->Epoch;
    } else {
      M.ValueSlot = ensureBoxed(Cond);
      M.HasValueSlot = false;
    }

    const Instr *Cp = Assume.op(1);
    const Instr *Fs = Cp->op(0);
    M.BcPc = Fs->BcPc;
    M.FrameFn = Fs->Target;
    for (uint32_t K = 0; K < Fs->StackCount; ++K)
      M.StackSlots.push_back(ensureBoxed(Fs->stackOp(K), &M.Boxes));
    for (size_t K = 0; K < Fs->EnvSyms.size(); ++K)
      M.EnvSlots.push_back(
          {Fs->EnvSyms[K], ensureBoxed(Fs->envOp(K), &M.Boxes)});

    // Inlined guards: encode the chain of caller return-framestates so the
    // runtime can materialize every synthesized frame on OSR-out.
    for (const Instr *P = Fs->parentFs(); P; P = P->parentFs()) {
      DeoptFrame Fr;
      Fr.Fn = P->Target;
      Fr.BcPc = P->BcPc;
      for (uint32_t K = 0; K < P->StackCount; ++K)
        Fr.StackSlots.push_back(ensureBoxed(P->stackOp(K), &M.Boxes));
      for (size_t K = 0; K < P->EnvSyms.size(); ++K)
        Fr.EnvSlots.push_back(
            {P->EnvSyms[K], ensureBoxed(P->envOp(K), &M.Boxes)});
      M.Callers.push_back(std::move(Fr));
    }

    F->Deopts.push_back(std::move(M));
    return static_cast<int32_t>(F->Deopts.size() - 1);
  }
};

} // namespace

std::unique_ptr<LowFunction> rjit::lowerToLow(const IrCode &C) {
  Lowerer L(C);
  return L.run();
}
