//===-- runtime/env.cpp - First-class environments -------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/env.h"
#include "runtime/builtins.h"

using namespace rjit;

Env::Env(Env *Parent) : Parent(Parent) {
  if (Parent)
    Parent->retain();
  trackAlloc(64);
  enrollGc();
}

Env::~Env() {
  if (Parent)
    Parent->release();
}

void Env::gcTrace(GcVisitor &V) const {
  if (Parent)
    V.visit(Parent);
  for (const auto &B : Bindings)
    if (GcObject *O = B.second.heapPayload())
      V.visit(O);
}

void Env::gcClear() {
  Bindings.clear();
  if (Parent) {
    Parent->release();
    Parent = nullptr;
  }
}

const Value &Env::get(Symbol S) const {
  for (const Env *E = this; E; E = E->Parent)
    if (const Value *V = E->findLocal(S))
      return *V;
  rerror("object '" + symbolName(S) + "' not found");
}

Value *Env::slot(Symbol S) {
  for (auto &B : Bindings)
    if (B.first == S)
      return &B.second;
  return nullptr;
}

const Value *Env::findLocal(Symbol S) const {
  for (const auto &B : Bindings)
    if (B.first == S)
      return &B.second;
  return nullptr;
}

void Env::noteBind(Symbol S, const Value *V) {
  if (Parent)
    return; // only the global environment's builtin bindings are watched
  int B = builtinOfSymbol(S);
  if (B < 0)
    return;
  if (V && V->tag() == Tag::Builtin &&
      V->builtinId() == static_cast<BuiltinId>(B))
    return;
  ++Epoch;
}

Value *Env::findLocal(Symbol S) {
  Value *Slot = slot(S);
  if (Slot)
    noteBind(S, nullptr); // the caller may store anything into it
  return Slot;
}

void Env::set(Symbol S, Value V) {
  noteBind(S, &V);
  if (Value *Slot = slot(S)) {
    *Slot = std::move(V);
    return;
  }
  Bindings.emplace_back(S, std::move(V));
}

void Env::setSuper(Symbol S, Value V) {
  if (Parent)
    Parent->assignNearest(S, std::move(V));
  else
    set(S, std::move(V));
}

void Env::assignNearest(Symbol S, Value V) {
  Env *Outer = this;
  for (Env *E = this; E; E = E->Parent) {
    if (Value *Slot = E->slot(S)) {
      E->noteBind(S, &V);
      *Slot = std::move(V);
      return;
    }
    Outer = E;
  }
  // Unbound anywhere: define in the outermost environment, like R's
  // assignment into globalenv().
  Outer->set(S, std::move(V));
}
