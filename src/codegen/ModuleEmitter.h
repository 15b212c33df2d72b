//===- codegen/ModuleEmitter.h - Emit C for whole modules -------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits one C translation unit for a compiled module: a kernel
/// `hac_array_<name>` per binding (the same emitC output the single-array
/// path produces: kernel plus two-argument wrapper) plus a driver
///
/// \code
///   int hac_module(double *out, const double *const *inputs);
/// \endcode
///
/// that runs the kernels in topological order over static buffers laid
/// out by the module's buffer plan — a recycled slot serves several
/// arrays, so the compiled footprint matches the planner's PeakBytes, not
/// one buffer per array. Each buffer is zeroed before its kernel runs
/// (kernels assume a freshly constructed target); the result binding
/// writes straight into the caller's `out`.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_CODEGEN_MODULEEMITTER_H
#define HAC_CODEGEN_MODULEEMITTER_H

#include "core/Module.h"

#include <string>

namespace hac {

/// Result of module emission.
struct ModuleEmitResult {
  bool OK = false;
  std::string Error; ///< why emission failed
  std::string Code;  ///< the full C translation unit
};

/// Emits the C translation unit for \p M, which must be thunkless.
/// Declines (OK == false) when the module expects external runtime
/// inputs — the static-buffer driver is self-contained — or when any
/// binding's kernel hits a construct the C backend does not support.
/// With \p Threads > 1, each kernel gets the OpenMP annotations emitC
/// produces for parallel loops at that thread count.
ModuleEmitResult emitModuleC(const CompiledModule &M, unsigned Threads = 1);

} // namespace hac

#endif // HAC_CODEGEN_MODULEEMITTER_H
