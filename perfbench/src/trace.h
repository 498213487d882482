// In-memory span recorder for the trainer thread.
//
// Spans are recorded around the benchmark's own calls into each layer:
// name, start, end, the enclosing span, and the id of the checkpoint,
// restore or iteration the call belongs to. Nothing is recorded inside the
// program. The recorder is used from the trainer thread only, so the open
// span stack needs no lock. With tracing off, Span still times the call
// (the end-to-end metrics need those times) but records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "link_store.h"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  std::int64_t parent = -1;  // index into spans(), -1 = top level
  std::uint64_t id = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Span indices are handed out only when enabled; -1 otherwise.
  std::int64_t Open(const char* name, std::uint64_t id, Clock::time_point start);
  void Close(std::int64_t index, Clock::time_point end);

  // Per span name: summed duration minus the part covered by its children.
  std::map<std::string, double> SelfMs() const;
  // Summed duration of the top-level spans, excluding `except`.
  double TopLevelMs(const char* except) const;
  // Writes every span as one JSON array to `path`; returns false on failure.
  bool WriteJson(const std::string& path, Clock::time_point origin) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;
};

// Times one call into a layer; records it as a span when tracing is on.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t id = 0)
      : tracer_(tracer), start_(Clock::now()), index_(tracer.Open(name, id, start_)) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span (idempotent) and returns its duration in milliseconds.
  double End() {
    if (!ended_) {
      end_ = Clock::now();
      tracer_.Close(index_, end_);
      ended_ = true;
    }
    return std::chrono::duration<double, std::milli>(end_ - start_).count();
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  Clock::time_point end_{};
  std::int64_t index_;
  bool ended_ = false;
};

}  // namespace perfbench
