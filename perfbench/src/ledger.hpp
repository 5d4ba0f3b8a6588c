// The benchmark's measurement arithmetic: percentiles, an in-memory span
// recorder, per-layer self time, span coverage and the Chrome trace-event
// export.  Spans are recorded by the benchmark around its own calls into
// each layer's public functions; nothing here reaches into the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b);

/// Linear-interpolated percentile of \p v at \p p in [0, 1]; 0 when empty.
double percentile(std::vector<double> v, double p);

/// Samples strictly greater than \p threshold (the tail a percentile rests
/// on; the benchmark wants at least ten beyond the highest one it reports).
std::size_t countAbove(const std::vector<double>& v, double threshold);

double median(std::vector<double> v);

/// One finished span.  Times are microseconds since the recorder's origin;
/// `parent` is the index of the enclosing span, -1 for a root.
struct Span {
  std::string name;
  double startUs = 0;
  double endUs = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;

  double durUs() const { return endUs - startUs; }
};

/// Thread-safe in-memory span store.  A disabled recorder records nothing
/// and returns -1 for every span, so callers trace unconditionally.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span starting now; close it with end().
  std::int64_t begin(const std::string& name, std::int64_t parent,
                     std::uint64_t request);
  void end(std::int64_t id);

  /// Records a span measured elsewhere.
  std::int64_t add(const std::string& name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent,
                   std::uint64_t request);

  std::vector<Span> spans() const;

 private:
  double usSinceOrigin(Clock::time_point t) const;
  std::uint32_t threadIndex();  // requires mutex_

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

/// Self time of every span: its duration minus the part of it that the
/// union of its direct children covers (children clipped to the parent).
std::vector<double> selfTimesUs(const std::vector<Span>& spans);

/// Per-name totals over a span set.
struct LayerTotal {
  std::size_t count = 0;
  double totalUs = 0;
  double selfUs = 0;
};
std::map<std::string, LayerTotal> layerTotals(const std::vector<Span>& spans);

/// Share of root-span time that named child spans cover (0..1); 0 when
/// there is no root time.
double coverage(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, one per span).
std::string chromeTraceJson(const std::vector<Span>& spans);

/// Minimal JSON string escaping for names and labels.
std::string jsonEscape(const std::string& s);

}  // namespace perfbench
