#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace crbench {

namespace {
const Clock::time_point kOrigin = Clock::now();
thread_local std::vector<int> open_stack;
}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const std::string& name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_stack.empty() ? -1 : open_stack.back();
  s.start_s = now_s();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  open_stack.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  const double end = now_s();
  if (!open_stack.empty() && open_stack.back() == index) open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_s = end;
}

void Tracer::record(const std::string& name, double start_s, double end_s,
                    std::uint64_t op) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_s, end_s, -1, op});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"deterministic\":false,\"clock\":\"steady_clock wall "
               "seconds\",\"fields\":[\"name\",\"start_s\",\"end_s\","
               "\"parent\",\"op\"]}\n");
  for (const Span& s : spans()) {
    std::fprintf(f, "[\"%s\",%.9f,%.9f,%d,%llu]\n", s.name.c_str(), s.start_s,
                 s.end_s, s.parent, static_cast<unsigned long long>(s.op));
  }
  std::fclose(f);
}

namespace {
/// Length of the union of [a, b) intervals, clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_a = 0.0, cur_b = -1.0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
    } else {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}
}  // namespace

std::map<std::string, double> self_time_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                            s.end_s);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double own = s.end_s - s.start_s;
    out[s.name] += (own - covered(kids[i], s.start_s, s.end_s)) * 1e3;
  }
  return out;
}

double unattributed_frac(const std::vector<Span>& spans, double start_s,
                         double end_s) {
  if (end_s <= start_s) return 0.0;
  std::vector<std::pair<double, double>> roots;
  for (const Span& s : spans) {
    if (s.parent < 0) roots.emplace_back(s.start_s, s.end_s);
  }
  return 1.0 - covered(roots, start_s, end_s) / (end_s - start_s);
}

std::map<std::string, double> wall_share_by_layer(
    const std::vector<Span>& spans, double start_s, double end_s) {
  std::map<std::string, std::vector<std::pair<double, double>>> by_layer;
  for (const Span& s : spans) {
    by_layer[s.name.substr(0, s.name.find('.'))].emplace_back(s.start_s,
                                                              s.end_s);
  }
  std::map<std::string, double> out;
  if (end_s <= start_s) return out;
  for (const auto& [layer, intervals] : by_layer) {
    out[layer] = covered(intervals, start_s, end_s) / (end_s - start_s);
  }
  return out;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

Tail tail(const std::vector<double>& xs) {
  const double n = static_cast<double>(xs.size());
  if (xs.size() < 11) return Tail{median(xs), 50.0};
  // Ten samples beyond percentile p: (1 - p/100) * n >= 10.
  const double highest = std::floor(100.0 * (1.0 - 10.0 / n));
  const double p = std::min(95.0, highest);
  if (p < 50.0) return Tail{median(xs), 50.0};
  return Tail{percentile(xs, p), p};
}

Digest& Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
  return *this;
}

Digest& Digest::f64(double v) {
  return u64(static_cast<std::uint64_t>(std::llround(v * 1e9)));
}

std::string Digest::hex() const { return hex64(h_); }

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples,
                 const std::string& note) {
  metrics[name] = Metric{value, unit, samples, note};
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

}  // namespace crbench
