//===-- osr/osrin.h - OSR-in (tiering up) ------------------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OSR-in (paper §4.2): when a loop in the baseline interpreter becomes
/// hot, compile a one-shot continuation from the current bytecode pc — the
/// interpreter's operand stack values become call arguments — run it to
/// completion, and return its result as the activation's result. The next
/// invocation of the function is compiled from the beginning by the VM.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OSR_OSRIN_H
#define RJIT_OSR_OSRIN_H

#include "bc/interp.h"
#include "exec/backend.h"
#include "lowcode/lowcode.h"
#include "opt/translate.h"
#include "runtime/env.h"

namespace rjit {

/// Compiles the OSR-in continuation for \p Entry under \p Opts, prepared
/// for Opts.Backend. Returns null when \p Fn cannot be compiled from that
/// state. Shared by synchronous and background OSR-in.
std::unique_ptr<ExecutableCode> compileOsrIn(Function *Fn,
                                             const EntryState &Entry,
                                             const OptOptions &Opts);

/// The exact entry state of a hot backedge: the interpreter's operand
/// stack and (for elidable environments) the current binding types.
/// Shared by synchronous and background OSR-in.
EntryState buildOsrEntryState(Function *Fn, Env *E,
                              const std::vector<Value> &Stack, int32_t Pc);

/// Enters compiled OSR-in code with the interpreter's live values (stack
/// first, then — for elided code — the environment bindings in the entry
/// order) and returns the activation's result.
Value enterOsrContinuation(ExecutableCode &Code, const EntryState &Entry,
                           Env *E, std::vector<Value> &Stack);

} // namespace rjit

#endif // RJIT_OSR_OSRIN_H
