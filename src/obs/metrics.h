#ifndef VGOD_OBS_METRICS_H_
#define VGOD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "obs/sketch.h"

namespace vgod::obs {

/// Monotonic counter. Recording is a single relaxed atomic add, safe to
/// call from any thread and cheap enough for per-kernel-call accounting.
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Relative accuracy of every registry histogram: each one is a
/// QuantileSketch (obs/sketch.h), so any quantile read from it is within
/// 1% of the exact value.
inline constexpr double kHistogramAlpha = 0.01;

/// Export ladder for histograms, in seconds: 1us .. ~100s, powers of 10
/// with a 1-3 split per decade. The JSON "buckets" and the Prometheus
/// `_bucket{le=...}` series report the sketch's mass at these edges.
const std::vector<double>& DefaultLatencyBounds();

/// Maps an arbitrary registry name onto the Prometheus metric-name
/// grammar [a-zA-Z_:][a-zA-Z0-9_:]*: every other character becomes '_'
/// and a leading digit gets a '_' prefix ("serve.requests.total" ->
/// "serve_requests_total").
std::string SanitizeMetricName(const std::string& name);

/// Escapes a Prometheus label value: backslash, double quote, and
/// newline become \\, \", and \n.
std::string EscapeLabelValue(const std::string& value);

/// Process-wide registry. Registration takes a mutex; the returned
/// pointers are stable for the process lifetime, so hot paths cache them
/// (the VGOD_COUNTER_* macros do this with a function-local static).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Histogram named `name`: a sketch with relative accuracy
  /// kHistogramAlpha. Read quantiles with QuantileSketch::Quantile.
  QuantileSketch* GetHistogram(const std::string& name);

  /// Reads the current value of a gauge or counter by exact registry
  /// name without creating it (gauges shadow counters on a name clash).
  /// NotFound when no such metric exists — the alert engine maps that to
  /// "metric unavailable" rather than a spurious zero.
  Result<double> ReadValue(const std::string& name) const;

  /// Info-style metric ("build.info"): a constant-1 gauge whose payload
  /// is its label set. JSON renders the labels as an object under
  /// "info"; Prometheus renders `name{k="v",...} 1`. Last write wins.
  void SetInfo(const std::string& name,
               std::map<std::string, std::string> labels);

  /// {"counters":{...},"gauges":{...},"histograms":{...}} with names in
  /// sorted order (deterministic output for golden tests).
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

  /// Prometheus text exposition format (version 0.0.4): one `# HELP` +
  /// `# TYPE` block per metric with the name sanitized by
  /// SanitizeMetricName. Histograms render as cumulative `_bucket{le=...}`
  /// series over DefaultLatencyBounds() ending in `le="+Inf"` plus `_sum`
  /// and `_count`, all read from one copy of the sketch, so a standard
  /// scraper pointed at `GET /metrics?format=prometheus` understands the
  /// same registry the JSON export carries.
  std::string ToPrometheus() const;

  /// Zeroes every metric value; registrations (and cached pointers) stay
  /// valid. Intended for tests and for per-run bench manifests.
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<QuantileSketch>> histograms_;
  std::map<std::string, std::map<std::string, std::string>> infos_;
};

}  // namespace vgod::obs

/// Cheap recording macros: one mutex-protected registry lookup on first
/// execution; afterwards a relaxed atomic add (counters) or one sketch
/// insert (histograms).
#define VGOD_COUNTER_ADD(name, delta)                                    \
  do {                                                                   \
    static ::vgod::obs::Counter* vgod_counter_ =                         \
        ::vgod::obs::MetricsRegistry::Global().GetCounter(name);         \
    vgod_counter_->Add(delta);                                           \
  } while (0)

#define VGOD_COUNTER_INC(name) VGOD_COUNTER_ADD(name, 1)

#define VGOD_HISTOGRAM_OBSERVE(name, value)                              \
  do {                                                                   \
    static ::vgod::obs::QuantileSketch* vgod_histogram_ =                \
        ::vgod::obs::MetricsRegistry::Global().GetHistogram(name);       \
    vgod_histogram_->Insert(value);                                      \
  } while (0)

#endif  // VGOD_OBS_METRICS_H_
