// TraceSink: span/instant/counter events with per-thread buffers and a
// deterministic merge.
//
// Events are timestamped with the *virtual* cycle of the simulated machine
// (never wall-clock), tagged with the logical lane (see obs.hpp) and a
// per-buffer sequence number. The merge sorts by (cycle, lane, seq); the
// sequence number never appears in exports, so a serial run and an 8-thread
// run of the same workload serialize to byte-identical JSON/CSV.
//
// Event names must be string literals (or otherwise outlive the sink):
// buffers store the `const char*` without copying.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace crs::obs {

enum class TraceKind : std::uint8_t {
  kSpanBegin,
  kSpanEnd,
  kInstant,
  kCounter,
};

struct TraceEvent {
  std::uint64_t cycle = 0;
  std::uint64_t seq = 0;  // per-buffer emission order; merge tie-break only
  std::uint32_t lane = 0;
  TraceKind kind = TraceKind::kInstant;
  const char* name = "";
  double value = 0.0;
};

class TraceSink {
 public:
  struct Buffer {
    std::vector<TraceEvent> events;
    std::uint64_t next_seq = 0;
  };

  static TraceSink& instance();

  /// Appends to the calling thread's buffer; lock-free after the thread's
  /// first emission (registration takes the sink mutex once per thread per
  /// generation).
  void emit(TraceKind kind, const char* name, std::uint64_t cycle,
            double value = 0.0);

  /// All events from all buffers in the canonical deterministic order.
  std::vector<TraceEvent> merged() const;

  /// Chrome trace_event JSON (load via chrome://tracing or ui.perfetto.dev).
  std::string chrome_json() const;

  /// Compact CSV: cycle,lane,kind,name,value.
  std::string csv() const;

  std::size_t event_count() const;

  /// Drops all buffers and invalidates thread-local registrations. Must not
  /// race with emit(); call only from quiesced points (tests, tool startup).
  void clear();

 private:
  TraceSink() = default;
  Buffer* local_buffer();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> generation_{1};
};

/// Free-function emission helpers; each compiles to a single
/// predicted-untaken branch when tracing is off at runtime.
inline void trace_event(TraceKind kind, const char* name, std::uint64_t cycle,
                        double value = 0.0) {
  if (tracing_enabled()) TraceSink::instance().emit(kind, name, cycle, value);
}

inline void trace_instant(const char* name, std::uint64_t cycle,
                          double value = 0.0) {
  trace_event(TraceKind::kInstant, name, cycle, value);
}

inline void trace_counter(const char* name, std::uint64_t cycle, double value) {
  trace_event(TraceKind::kCounter, name, cycle, value);
}

/// Scoped span. The begin event is emitted at construction with the given
/// cycle; the end event at close() (or destruction, with the begin cycle,
/// for zero-length fallback). Spans must nest properly within a lane.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t begin_cycle)
      : name_(name), begin_(begin_cycle), open_(tracing_enabled()) {
    if (open_) {
      TraceSink::instance().emit(TraceKind::kSpanBegin, name_, begin_, 0.0);
    }
  }
  ~ScopedSpan() { close(begin_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void close(std::uint64_t end_cycle) {
    if (open_) {
      TraceSink::instance().emit(TraceKind::kSpanEnd, name_, end_cycle, 0.0);
      open_ = false;
    }
  }

 private:
  const char* name_;
  std::uint64_t begin_;
  bool open_;
};

/// `s` escaped for the inside of a JSON string literal: `"`, `\` and every
/// control character. Shared by the Chrome trace, the miner's JSON report
/// and the --bench-json perf records.
std::string json_escape(std::string_view s);

/// Validates Chrome trace_event JSON produced by chrome_json() (and, more
/// loosely, anything structurally compatible): a traceEvents array whose
/// objects carry name/ph/ts/pid/tid with B/E events properly nested per
/// (pid, tid). Returns "" on success, a diagnostic otherwise.
std::string validate_chrome_trace(const std::string& json);

}  // namespace crs::obs
