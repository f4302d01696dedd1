//===-- runtime/env.h - First-class environments ----------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// R environments: mutable symbol -> value bindings with a parent chain.
/// Environments are first class (they can be stored in values) and they are
/// what OSR-out must materialize from optimized state (the paper's MkEnv
/// instruction / Listing 2). Lookup is a linear scan over a small vector —
/// deliberately interpreter-grade; optimized code elides environments
/// entirely and touches them only when deoptimizing.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_RUNTIME_ENV_H
#define RJIT_RUNTIME_ENV_H

#include "runtime/value.h"
#include "support/interner.h"

#include <atomic>
#include <utility>
#include <vector>

namespace rjit {

/// A mutable variable scope with a parent chain.
class Env : public GcObject {
public:
  /// \p Parent may be null (the global environment's parent).
  explicit Env(Env *Parent);
  ~Env() override;

  Env *parent() const { return Parent; }

  /// Looks up \p S through the parent chain; raises RError if unbound.
  const Value &get(Symbol S) const;

  /// Returns the local binding slot or null. Handing out a mutable slot
  /// of a builtin's name counts as a rebind (see builtinEpoch()).
  Value *findLocal(Symbol S);
  const Value *findLocal(Symbol S) const;

  /// Defines or overwrites the local binding (R's <-).
  void set(Symbol S, Value V);

  /// R's <<-: assigns to the nearest enclosing binding, or defines in the
  /// outermost environment when unbound anywhere.
  void setSuper(Symbol S, Value V);

  /// Assigns to the nearest binding of \p S starting at this environment
  /// itself, or defines it in the outermost one when unbound anywhere
  /// (<<- from a frame whose own environment was elided).
  void assignNearest(Symbol S, Value V);

  /// The builtin-rebind epoch of a global (parentless) environment: how
  /// many times it bound a builtin's name to anything other than that
  /// builtin, or handed out a mutable slot of such a binding. While it is
  /// 0 every builtin name still denotes its builtin, so compiled code of
  /// top-level functions reads those names as constants under one epoch
  /// check; compiler threads read it concurrently.
  const std::atomic<uint32_t> &builtinEpoch() const { return Epoch; }

  /// True if \p S is bound locally.
  bool hasLocal(Symbol S) const { return findLocal(S) != nullptr; }

  /// Local bindings in definition order; exposed for deopt-context
  /// computation and environment materialization.
  std::vector<std::pair<Symbol, Value>> &bindings() { return Bindings; }
  const std::vector<std::pair<Symbol, Value>> &bindings() const {
    return Bindings;
  }

  size_t size() const { return Bindings.size(); }

  /// Environments are the hub of every reference cycle the language can
  /// build: bindings retain closures, closures retain their defining env.
  void gcTrace(GcVisitor &V) const override;
  void gcClear() override;

private:
  Env *Parent; ///< retained
  std::vector<std::pair<Symbol, Value>> Bindings;
  std::atomic<uint32_t> Epoch{0};

  Value *slot(Symbol S);
  /// Bumps the epoch when binding \p S to \p V rebinds a builtin's name.
  void noteBind(Symbol S, const Value *V);
};

inline Env *Value::env() const {
  assert(T == Tag::EnvTag);
  return static_cast<Env *>(P);
}

} // namespace rjit

#endif // RJIT_RUNTIME_ENV_H
