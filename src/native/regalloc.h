//===-- native/regalloc.h - Linear-scan raw-slot allocator -------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register allocation for the native tier's raw slot classes. LowCode's
/// raw int32/double slots are the unboxed values the fig kernels spend
/// their time in; the template tier stores every one of them to the slot
/// arrays between ops. This unit computes live ranges and use weights from
/// LowCode and assigns the hottest raw slots *whole-function register
/// homes* in deterministic linear-scan order.
///
/// Why whole-function homes rather than per-range interval sharing:
/// LowCode branches are arbitrary (a jump from outside a textual live
/// range can land inside it), so two slots time-sharing a register would
/// need per-edge fixup moves. A fixed home keeps the slot-to-register map
/// pc-independent, and one backward liveness pass over the homed slots
/// (RegAllocation::LiveOut) gives the invariant "every *live* homed
/// slot's current value is in its register at every instruction
/// boundary". That is what keeps helper calls and side exits cheap and
/// sound: before a helper the stitcher stores the homes the op reads
/// (lowRawUseDef) plus the live caller-saved homes the call clobbers;
/// after it, it reloads the live homes the op writes plus those same
/// caller-saved homes. A failing guard reads exactly its deferred Box
/// operands (DeoptMeta::Boxes) from the arrays, so its side exit stores
/// only those. Dead homes are never synced: nothing reads them before
/// the next definition.
///
/// The linear-scan part is the *assignment order*: candidates are sorted
/// by descending use weight (uses × loop depth, backedge-interval
/// approximation) and granted registers from the class pools until a pool
/// runs dry; every denied candidate counts as a spill (it keeps the
/// template tier's load/store-per-op behavior).
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_NATIVE_REGALLOC_H
#define RJIT_NATIVE_REGALLOC_H

#include "lowcode/lowcode.h"
#include "native/emitter.h"

#include <cstdint>
#include <vector>

namespace rjit {

/// GPR pool for raw-int homes, callee-saved first so the hottest slots
/// survive helper calls for free. rbx/r12-r14 are the frame anchors,
/// rax/rdx/rsi stay template scratch. rcx and rdi join the pool last:
/// the stitcher never uses rcx as an inline scratch register, and only
/// touches rdi when marshalling helper arguments — every helper call
/// site stores the live caller-saved homes first (or exits the
/// activation), so homes in either are sound, just the most expensive
/// ones.
constexpr uint8_t NatGprPool[] = {RBP, R15, R8, R9, R10, R11, RCX, RDI};
constexpr size_t NatGprPoolSize = sizeof(NatGprPool);

/// XMM pool for raw-real homes; xmm0/xmm1 stay template scratch. All XMMs
/// are caller-saved in the SysV ABI, so every real home round-trips
/// through memory at helper calls.
constexpr uint8_t NatXmmFirst = 2;
constexpr uint8_t NatXmmLast = 15;
constexpr size_t NatXmmPoolSize = NatXmmLast - NatXmmFirst + 1;

/// Home-register masks (RegAllocation::LiveOut): bit R for GPR R, bit
/// 16 + X for XMM X. Each home register holds one slot for the whole
/// function, so a register mask is a slot mask.
constexpr uint32_t natGprBit(uint8_t R) { return 1u << R; }
constexpr uint32_t natXmmBit(uint8_t X) { return 1u << (16 + X); }

/// The homes that survive a C call (SysV callee-saved GPRs); every other
/// home, all XMMs included, is clobbered by it.
constexpr uint32_t NatCalleeSavedHomes = natGprBit(RBP) | natGprBit(R15);

/// A loop-invariant vector pin: inside one backedge interval whose body
/// the stitcher compiles entirely inline, the typed-extract source in
/// boxed slot VecSlot cannot change identity — so its tag check and data
/// pointer hoist to the loop header. Gpr holds the element pointer for
/// the whole interval; the element count lives in NativeFrame::PinLen
/// [Cell] (one memory load per bounds check, off the dependency chain).
/// A pin register is never RBP: the indexed-load SIB encoding cannot use
/// it as a base.
struct PinInfo {
  uint16_t VecSlot; ///< boxed slot holding the vector
  uint8_t ElemTag;  ///< Tag::Real or Tag::Int, as uint8_t
  uint8_t Gpr;      ///< pool register pinned to the element pointer
  uint8_t Cell;     ///< NativeFrame::PinLen index for the element count
  int32_t HeaderPc; ///< loop header: hoist code precedes this pc's label
  int32_t EndPc;    ///< backedge pc (interval end, inclusive)
};

/// NativeFrame::PinLen capacity — and thus the per-function pin budget.
constexpr size_t NatMaxPins = 4;

/// The allocation result: a register home (or -1) per raw slot, the
/// homes' liveness, plus the spill count the NativeRegSpills counter
/// reports.
struct RegAllocation {
  std::vector<int16_t> IntHome;  ///< per RawInt slot: GPR number or -1
  std::vector<int16_t> RealHome; ///< per RawReal slot: XMM number or -1
  std::vector<PinInfo> Pins;     ///< loop-invariant vector pins
  /// Per pc: the homes whose slot is live after the op executes (on any
  /// successor), and the homes the op reads and writes (its lowRawUseDef
  /// operands that have a home). All empty when no slot is homed.
  std::vector<uint32_t> LiveOut, Uses, Defs;
  uint32_t EntryLive = 0; ///< homes live on entry (the prologue loads)
  uint32_t Spills = 0; ///< candidates with uses that were denied a home
  bool UsesRbp = false; ///< prologue must push rbp (+ re-align rsp)

  int16_t intHome(uint16_t Slot) const {
    return Slot < IntHome.size() ? IntHome[Slot] : -1;
  }
  int16_t realHome(uint16_t Slot) const {
    return Slot < RealHome.size() ? RealHome[Slot] : -1;
  }
  /// The home bit of raw slot \p R, or 0 when it has no home.
  uint32_t homeBit(const RawSlotRef &R) const {
    int16_t H = R.K == SlotClass::RawInt ? intHome(R.Slot) : realHome(R.Slot);
    if (H < 0)
      return 0;
    return R.K == SlotClass::RawInt ? natGprBit(static_cast<uint8_t>(H))
                                    : natXmmBit(static_cast<uint8_t>(H));
  }
  uint32_t homeMask(const std::vector<RawSlotRef> &Refs) const {
    uint32_t M = 0;
    for (const RawSlotRef &R : Refs)
      M |= homeBit(R);
    return M;
  }
  bool any() const {
    for (int16_t H : IntHome)
      if (H >= 0)
        return true;
    for (int16_t H : RealHome)
      if (H >= 0)
        return true;
    return false;
  }
};

/// Compile-time-known raw-int slots. A slot qualifies when its only
/// definition in the whole function is one RawInt LoadConst that executes
/// before any branch (so it dominates every use), and the slot is not a
/// parameter. The stitcher folds reads of such slots into immediates;
/// the allocator skips them as candidates — an immediate needs no home.
struct IntConstMap {
  std::vector<uint8_t> Known; ///< per RawInt slot: 1 = constant
  std::vector<int32_t> Val;   ///< the constant, valid where Known
  bool known(uint16_t Slot) const {
    return Slot < Known.size() && Known[Slot];
  }
  int32_t val(uint16_t Slot) const { return Val[Slot]; }
};

/// Computes the constant-int-slot map for \p F. Deterministic.
IntConstMap intConstSlots(const LowFunction &F);

/// Computes live ranges/weights over \p F's raw slots, assigns homes and
/// computes the homes' per-pc liveness.
/// With \p AllowPins (the stitcher passes it only when the inline typed-
/// extract fast path is available) loop-invariant vector pins join the
/// GPR candidate ranking. Known-constant int slots (see intConstSlots)
/// are skipped as candidates. Deterministic: identical LowCode yields
/// identical allocations.
RegAllocation allocateRegisters(const LowFunction &F,
                                bool AllowPins = false);

} // namespace rjit

#endif // RJIT_NATIVE_REGALLOC_H
