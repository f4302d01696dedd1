//===-- osr/deoptless.h - Dispatched specialized continuations ---*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution: deoptimization points become
/// assumption-polymorphic dispatch sites over specialized optimized
/// continuations. Each function owns a bounded dispatch table of
/// continuations keyed by DeoptContext; on a failing guard the handler
/// computes the current context, dispatches (first entry whose context is
/// >= the current one in the partial order), possibly compiles a new
/// continuation (with repaired feedback, see opt/cleanup), and invokes it
/// directly with the live state — never leaving optimized code.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OSR_DEOPTLESS_H
#define RJIT_OSR_DEOPTLESS_H

#include "exec/backend.h"
#include "opt/translate.h"
#include "osr/reason.h"
#include "support/cowlist.h"

#include <memory>
#include <mutex>
#include <vector>

namespace rjit {

class CompilerPool;

/// One compiled continuation with its compilation context. Immutable after
/// publication except Hits, which only the owning executor touches.
struct Continuation {
  DeoptContext Ctx;
  std::unique_ptr<ExecutableCode> Code;
  uint32_t Hits = 0;
};

/// Per-function dispatch table (paper §4.3: at most 5 entries; the table
/// is kept sorted from most to least specialized and scanned for the first
/// compatible entry).
///
/// Concurrency: like VersionTable, the sorted linearization is published
/// copy-on-write (release store / acquire load), so the executor's guard
/// failure path dispatches lock-free while a background continuation job
/// publishes. insert() serializes writers internally. The capacity is
/// fixed at construction (Vm::Config::MaxContinuations).
class DeoptlessTable {
public:
  explicit DeoptlessTable(uint32_t Cap) : Cap(Cap) {}
  DeoptlessTable(const DeoptlessTable &) = delete;
  DeoptlessTable &operator=(const DeoptlessTable &) = delete;
  DeoptlessTable(DeoptlessTable &&) = delete;

  /// First continuation callable from \p Ctx, or null. Lock-free.
  Continuation *dispatch(const DeoptContext &Ctx);

  /// Inserts \p Code for \p Ctx; returns false when the table is full or
  /// an exact entry for \p Ctx already exists (a background job lost a
  /// publication race).
  bool insert(DeoptContext Ctx, std::unique_ptr<ExecutableCode> Code);

  size_t size() const { return snapshot().size(); }
  bool full() const { return size() >= Cap; }

  /// Snapshot of the entries, most specialized first.
  std::vector<Continuation *> entries() const { return snapshot(); }

private:
  const std::vector<Continuation *> &snapshot() const {
    return List.read();
  }

  CowList<Continuation> List;
  const uint32_t Cap;
  std::mutex WriterMu;
};

/// Attempts the deoptless path for a failing guard (paper Listing 6) in
/// code run under the Deoptless strategy with no materialized
/// environment. Returns true and sets \p Result when a continuation
/// handled the rest of the activation; returns false when the caller must
/// perform a true deoptimization. For a guard inside an inlined callee the
/// context lattice and the continuation table are keyed on the *innermost*
/// frame (the callee's function and pc): \p Table is the table of
/// Meta.FrameFn, else of F.Origin. The synthesized caller frames are then
/// resumed in the baseline interpreter so the activation still yields the
/// caller's value. A table miss compiles the continuation under \p Opts
/// inline when \p Pool is null; otherwise it requests a background compile
/// on \p Pool (for \p Owner's drain barrier) and deoptimizes this once.
bool tryDeoptless(const LowFunction &F, std::vector<Value> &Slots,
                  const DeoptMeta &Meta, Env *ParentEnv, bool Injected,
                  DeoptlessTable &Table, const OptOptions &Opts,
                  CompilerPool *Pool, const void *Owner, Value &Result);

/// The repaired profile a continuation for \p Ctx must be compiled
/// against (paper §4.3 "Incomplete Profile Data"). Reads live feedback:
/// call on the executor thread (synchronous compile, or at enqueue time
/// of a background continuation job).
FeedbackTable repairedContinuationFeedback(Function *Fn,
                                           const DeoptContext &Ctx,
                                           bool CleanupEnabled);

/// Compiles the continuation code for \p Ctx (prepared for Opts.Backend).
/// The caller must have made the repaired profile visible to the
/// optimizer first (a SnapshotScope whose table for \p Fn is the repaired
/// feedback) — this is what keeps the compile readable from a background
/// thread while the interpreter keeps writing the live profile.
std::unique_ptr<ExecutableCode> compileContinuationCode(
    Function *Fn, const DeoptContext &Ctx, const OptOptions &Opts);

} // namespace rjit

#endif // RJIT_OSR_DEOPTLESS_H
