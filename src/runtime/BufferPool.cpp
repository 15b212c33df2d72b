//===- runtime/BufferPool.cpp - Slot-recycling array storage --------------===//

#include "runtime/BufferPool.h"

#include <cassert>

using namespace hac;

DoubleArray &BufferPool::acquire(unsigned Slot,
                                 const DoubleArray::Dims &Dims) {
  assert(Slot < Slots.size() && "buffer pool slot out of range");
  const size_t Bytes = DoubleArray::elementCount(Dims) * sizeof(double);

  if (Used[Slot]) {
    ++Reuses;
    CurBytes -= Live[Slot];
  } else {
    ++Allocations;
    Used[Slot] = 1;
  }
  Slots[Slot].reshape(Dims);
  Live[Slot] = Bytes;
  CurBytes += Bytes;
  if (CurBytes > PeakBytes)
    PeakBytes = CurBytes;
  return Slots[Slot];
}

void BufferPool::noteExternal(size_t Bytes) {
  CurBytes += Bytes;
  if (CurBytes > PeakBytes)
    PeakBytes = CurBytes;
}
