#include "ledger.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::size_t countAbove(const std::vector<double>& v, double threshold) {
  return static_cast<std::size_t>(std::count_if(
      v.begin(), v.end(), [&](double x) { return x > threshold; }));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double SpanRecorder::usSinceOrigin(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

std::uint32_t SpanRecorder::threadIndex() {
  const std::thread::id key = std::this_thread::get_id();
  const auto it = threads_.find(key);
  if (it != threads_.end()) return it->second;
  const auto idx = static_cast<std::uint32_t>(threads_.size());
  threads_.emplace(key, idx);
  return idx;
}

std::int64_t SpanRecorder::begin(const std::string& name, std::int64_t parent,
                                 std::uint64_t request) {
  if (!enabled_) return -1;
  const double now = usSinceOrigin(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, request, threadIndex()});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int64_t id) {
  if (id < 0) return;
  const double now = usSinceOrigin(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).endUs = now;
}

std::int64_t SpanRecorder::add(const std::string& name,
                               Clock::time_point start, Clock::time_point end,
                               std::int64_t parent, std::uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, usSinceOrigin(start), usSinceOrigin(end), parent,
                        request, threadIndex()});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> selfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> iv;
    for (const std::size_t c : children[i]) {
      const double a = std::max(spans[c].startUs, s.startUs);
      const double b = std::min(spans[c].endUs, s.endUs);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, curA = 0, curB = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= curB) {
        curB = std::max(curB, b);
        continue;
      }
      if (open) covered += curB - curA;
      curA = a;
      curB = b;
      open = true;
    }
    if (open) covered += curB - curA;
    self[i] = std::max(0.0, s.durUs() - covered);
  }
  return self;
}

std::map<std::string, LayerTotal> layerTotals(const std::vector<Span>& spans) {
  const std::vector<double> self = selfTimesUs(spans);
  std::map<std::string, LayerTotal> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotal& t = out[spans[i].name];
    t.count += 1;
    t.totalUs += spans[i].durUs();
    t.selfUs += self[i];
  }
  return out;
}

double coverage(const std::vector<Span>& spans) {
  const std::vector<double> self = selfTimesUs(spans);
  double rootUs = 0, rootSelfUs = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    rootUs += spans[i].durUs();
    rootSelfUs += self[i];
  }
  return rootUs > 0 ? (rootUs - rootSelfUs) / rootUs : 0.0;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string chromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += "{\"name\":\"" + jsonEscape(s.name) + "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf,
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%llu}}",
                  s.startUs, s.durUs(), s.thread, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
    out += i + 1 < spans.size() ? ",\n" : "\n";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace perfbench
