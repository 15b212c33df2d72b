//===- runtime/BufferPool.h - Slot-recycling array storage ------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage for the intermediates of a module run. The module buffer
/// planner assigns every binding a slot; bindings whose live ranges are
/// disjoint share a slot, and acquiring a slot a dead binding used
/// recycles its heap allocation instead of mallocing fresh storage. The
/// pool also keeps the telemetry the module counters report: live/peak
/// logical bytes, fresh allocations, and reuses.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_RUNTIME_BUFFERPOOL_H
#define HAC_RUNTIME_BUFFERPOOL_H

#include "runtime/DoubleArray.h"

#include <cstddef>
#include <vector>

namespace hac {

/// Fixed-slot array storage with reuse telemetry. Slots are assigned
/// statically by the module buffer planner; the pool only materializes
/// and recycles them.
class BufferPool {
public:
  explicit BufferPool(unsigned NumSlots)
      : Slots(NumSlots), Live(NumSlots, 0), Used(NumSlots, 0) {}

  unsigned numSlots() const { return static_cast<unsigned>(Slots.size()); }

  /// Returns slot \p Slot re-shaped for \p Dims (DoubleArray::reshape:
  /// contents unspecified, no defined bitmap). A first acquire of a slot
  /// is a fresh allocation; later acquires recycle the previous
  /// occupant's storage and count as reuses.
  DoubleArray &acquire(unsigned Slot, const DoubleArray::Dims &Dims);

  /// Folds storage held outside the pool (the module result array) into
  /// the live/peak byte accounting.
  void noteExternal(size_t Bytes);

  size_t liveBytes() const { return CurBytes; }
  size_t peakBytes() const { return PeakBytes; }
  unsigned allocations() const { return Allocations; }
  unsigned reuses() const { return Reuses; }

private:
  std::vector<DoubleArray> Slots;
  /// Logical bytes currently attributed to each slot.
  std::vector<size_t> Live;
  std::vector<char> Used;
  size_t CurBytes = 0;
  size_t PeakBytes = 0;
  unsigned Allocations = 0;
  unsigned Reuses = 0;
};

} // namespace hac

#endif // HAC_RUNTIME_BUFFERPOOL_H
