//===- runtime/DoubleArray.h - Flat numeric array storage -------*- C++ -*-===//
//
// Part of the hac project (Anderson & Hudak, PLDI 1990 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thunkless array representation: a flat buffer of doubles with
/// row-major layout and an optional "defined" bitmap used only when the
/// collision / empties analyses could not discharge the runtime checks
/// (Sections 4 and 7). This is what "performance comparable to Fortran"
/// concretely means: direct stores and loads, no per-element boxes.
///
//===----------------------------------------------------------------------===//

#ifndef HAC_RUNTIME_DOUBLEARRAY_H
#define HAC_RUNTIME_DOUBLEARRAY_H

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace hac {

/// An N-dimensional array of doubles with inclusive per-dimension bounds.
class DoubleArray {
public:
  using Dims = std::vector<std::pair<int64_t, int64_t>>;

  DoubleArray() = default;
  /// A zero-filled array of shape \p TheDims.
  explicit DoubleArray(Dims TheDims) : Bounds(std::move(TheDims)) {
    Data.assign(elementCount(Bounds), 0.0);
  }

  /// Number of elements of an array of shape \p TheDims.
  static size_t elementCount(const Dims &TheDims) {
    size_t Size = 1;
    for (const auto &[Lo, Hi] : TheDims)
      Size *= Hi >= Lo ? static_cast<size_t>(Hi - Lo + 1) : 0;
    return Size;
  }

  /// Re-shapes to \p TheDims for a run that overwrites the storage. The
  /// heap allocation is kept when its capacity suffices (sweeps into one
  /// result and the module buffer pool recycle storage this way); element
  /// values are unspecified afterwards, since growth is left
  /// uninitialised, and the defined bitmap is dropped. The Executor
  /// prefills a construction target whose program needs defined starting
  /// contents.
  void reshape(Dims TheDims) {
    Bounds = std::move(TheDims);
    const size_t Size = elementCount(Bounds);
    if (Size > Data.capacity())
      Data.clear(); // regrowing would copy the old elements for nothing
    Data.resize(Size);
    DefinedBits.clear();
  }

  const Dims &dims() const { return Bounds; }
  unsigned rank() const { return Bounds.size(); }
  size_t size() const { return Data.size(); }

  double *data() { return Data.data(); }
  const double *data() const { return Data.data(); }

  double &operator[](size_t Linear) { return Data[Linear]; }
  double operator[](size_t Linear) const { return Data[Linear]; }

  /// Row-major linearization; returns false when out of bounds.
  bool linearize(const int64_t *Index, size_t Rank, size_t &Out) const {
    if (Rank != Bounds.size())
      return false;
    size_t Linear = 0;
    for (size_t D = 0; D != Rank; ++D) {
      auto [Lo, Hi] = Bounds[D];
      if (Index[D] < Lo || Index[D] > Hi)
        return false;
      Linear = Linear * static_cast<size_t>(Hi - Lo + 1) +
               static_cast<size_t>(Index[D] - Lo);
    }
    Out = Linear;
    return true;
  }

  /// Row-major linearization without per-dimension bounds compares, for
  /// reads the read-bounds analysis proved in bounds. The caller vouches
  /// for Rank == rank() and Lo <= Index[D] <= Hi in every dimension.
  size_t linearizeUnchecked(const int64_t *Index, size_t Rank) const {
    assert(Rank == Bounds.size() && "rank mismatch in unchecked access");
    size_t Linear = 0;
    for (size_t D = 0; D != Rank; ++D) {
      auto [Lo, Hi] = Bounds[D];
      assert(Index[D] >= Lo && Index[D] <= Hi &&
             "proven-in-bounds read is out of bounds");
      Linear = Linear * static_cast<size_t>(Hi - Lo + 1) +
               static_cast<size_t>(Index[D] - Lo);
    }
    return Linear;
  }

  /// Convenience element access for tests (asserts in-bounds).
  double at(std::initializer_list<int64_t> Index) const {
    size_t Linear = 0;
    bool OK = linearize(Index.begin(), Index.size(), Linear);
    assert(OK && "DoubleArray::at out of bounds");
    (void)OK;
    return Data[Linear];
  }
  void set(std::initializer_list<int64_t> Index, double V) {
    size_t Linear = 0;
    bool OK = linearize(Index.begin(), Index.size(), Linear);
    assert(OK && "DoubleArray::set out of bounds");
    (void)OK;
    Data[Linear] = V;
  }

  /// Enables the defined bitmap (all elements undefined).
  void enableDefinedBits() { DefinedBits.assign(Data.size(), 0); }
  /// Marks every element defined (used for update targets).
  void markAllDefined() { DefinedBits.assign(Data.size(), 1); }
  bool hasDefinedBits() const { return !DefinedBits.empty(); }
  bool isDefined(size_t Linear) const {
    return DefinedBits.empty() || DefinedBits[Linear] != 0;
  }
  void setDefined(size_t Linear) {
    if (!DefinedBits.empty())
      DefinedBits[Linear] = 1;
  }
  /// Raw defined-bitmap storage (one byte per element), or null when
  /// the bitmap is disabled. Native JIT kernels update it in place.
  uint8_t *definedData() {
    return DefinedBits.empty() ? nullptr : DefinedBits.data();
  }
  const uint8_t *definedData() const {
    return DefinedBits.empty() ? nullptr : DefinedBits.data();
  }
  /// Index of the first undefined element, or size() if none.
  size_t firstUndefined() const {
    for (size_t I = 0; I != DefinedBits.size(); ++I)
      if (!DefinedBits[I])
        return I;
    return Data.size();
  }

  /// Maximum absolute elementwise difference (arrays must be same shape).
  static double maxAbsDiff(const DoubleArray &A, const DoubleArray &B) {
    assert(A.size() == B.size() && "shape mismatch");
    double Max = 0;
    for (size_t I = 0; I != A.size(); ++I) {
      double D = A[I] - B[I];
      if (D < 0)
        D = -D;
      if (D > Max)
        Max = D;
    }
    return Max;
  }

private:
  /// Value-less construction default-initialises, so resize() leaves new
  /// doubles unwritten instead of zero-filling them.
  template <typename T> struct DefaultInitAllocator : std::allocator<T> {
    template <typename U> struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    template <typename U> void construct(U *P) {
      ::new (static_cast<void *>(P)) U;
    }
    template <typename U, typename... Args>
    void construct(U *P, Args &&...As) {
      ::new (static_cast<void *>(P)) U(std::forward<Args>(As)...);
    }
  };

  Dims Bounds;
  std::vector<double, DefaultInitAllocator<double>> Data;
  std::vector<uint8_t> DefinedBits;
};

} // namespace hac

#endif // HAC_RUNTIME_DOUBLEARRAY_H
