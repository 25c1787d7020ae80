//===- perfbench/src/Spans.h - Layer spans of the traced run -----*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. The driver opens a span around each
/// call it makes into a stird layer (name, start, end, parent, and a
/// request id shared by the spans of one request); spans the program
/// already records itself (the engine's trace events, the server's
/// request-stage traces) are imported under the call that produced them.
/// Everything stays in memory until the run ends, is then written out as
/// one JSON document and reduced to per-name self time. With tracing off
/// no span is recorded at all.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_PERFBENCH_SPANS_H
#define STIRD_PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
public:
  struct Span {
    std::string Name;
    double StartUs = 0;
    double EndUs = 0;
    long Parent = -1; ///< index into the span list, -1 for a root
    std::uint64_t Request = 0;
  };

  SpanRecorder();

  /// Microseconds since the recorder was created (steady clock).
  double nowUs() const;

  /// Opens a span on the calling thread; its parent is the innermost span
  /// the thread has open. Returns the span's index.
  long begin(std::string Name, std::uint64_t Request = 0);
  void end(long Id);

  /// Records an already-finished span (imported from the program's own
  /// trace output) under \p Parent.
  long add(std::string Name, double StartUs, double EndUs, long Parent,
           std::uint64_t Request);

  /// Start time of span \p Id, for rebasing imported timestamps.
  double startUs(long Id) const;

  /// Per-name self time in seconds: a span's duration minus the part of
  /// it its children cover.
  std::map<std::string, double> selfSeconds() const;

  /// Writes every span as one JSON document.
  bool write(const std::string &Path) const;

  std::size_t size() const;

private:
  std::int64_t Epoch;
  mutable std::mutex M;
  std::vector<Span> List;
};

/// The traced run's recorder; null in untraced runs.
extern SpanRecorder *Tracer;

/// Scoped span around one layer call; a no-op when tracing is off.
class SpanScope {
public:
  explicit SpanScope(const char *Name, std::uint64_t Request = 0)
      : Id(Tracer ? Tracer->begin(Name, Request) : -1) {}
  ~SpanScope() {
    if (Id >= 0)
      Tracer->end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  long id() const { return Id; }

private:
  long Id;
};

} // namespace perfbench

#endif // STIRD_PERFBENCH_SPANS_H
