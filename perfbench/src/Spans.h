//===- perfbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// The traced run's spans: one per call into a library layer, recorded
// from the benchmark's side of the call. A span's name is
// "<layer>.<call>"; spans of one op share its op id; a span's parent is
// the span open when it began. Spans stay in memory and are written out
// when the run ends.
//
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
public:
  struct Span {
    const char *Name; ///< "<layer>.<call>", a string literal
    uint64_t Start = 0, End = 0;
    int32_t Parent = -1;
    uint32_t Op = 0;
  };

  /// Spans open while recording is off are not recorded, and cost one
  /// branch.
  void setRecording(bool On) { Recording = On; }
  bool recording() const { return Recording; }

  class Scope {
  public:
    Scope(Tracer &T, const char *Name, uint32_t Op);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T = nullptr;
    int32_t Idx = -1;
  };

  const std::vector<Span> &spans() const { return Spans; }

  /// Durations in ns of every span called \p Name, or only of those
  /// whose parent span is called \p Parent.
  std::vector<double> durations(const std::string &Name,
                                const char *Parent = nullptr) const;
  /// Self time in ns per layer: each span's duration minus the part of
  /// it its child spans cover, summed by the name's layer prefix.
  std::map<std::string, uint64_t> selfTimeByLayer() const;

  void writeJson(std::ostream &OS) const;

private:
  std::vector<Span> Spans;
  int32_t Open = -1;
  bool Recording = false;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
