//===-- opt/lowertyped.h - Typed-op strength reduction -----------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replaces generic R-semantics operations with typed (unboxed scalar /
/// raw vector) equivalents wherever the inferred types allow — the
/// optimization whose payoff speculation exists to unlock, and whose loss
/// after over-generalizing recompiles is what Fig. 4/10 measure.
///
//===----------------------------------------------------------------------===//

#ifndef RJIT_OPT_LOWERTYPED_H
#define RJIT_OPT_LOWERTYPED_H

#include "ir/instr.h"

namespace rjit {

/// Runs strength reduction in place; returns true on any change.
bool lowerTyped(IrCode &C);

} // namespace rjit

#endif // RJIT_OPT_LOWERTYPED_H
