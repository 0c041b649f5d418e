#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "core/parallel.h"
#include "obs/json.h"
#include "obs/process_metrics.h"

namespace vgod::obs {
namespace {

/// Pull-model export of the vgod::par pool counters: every metrics dump
/// refreshes the par.pool.* gauges from the pool's own atomics, so the
/// JSON reflects the pool without the hot ParallelFor path ever touching
/// the registry. threads == 0 means no kernel has used the pool yet.
void PublishPoolGauges() {
  const par::PoolStats stats = par::Stats();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("par.pool.threads")
      ->Set(static_cast<double>(stats.threads));
  registry.GetGauge("par.pool.regions")
      ->Set(static_cast<double>(stats.regions));
  registry.GetGauge("par.pool.serial_regions")
      ->Set(static_cast<double>(stats.serial_regions));
  registry.GetGauge("par.pool.tasks")->Set(static_cast<double>(stats.tasks));
  registry.GetGauge("par.pool.idle_seconds")
      ->Set(static_cast<double>(stats.idle_ns) * 1e-9);
  registry.GetGauge("par.pool.busy_seconds")
      ->Set(static_cast<double>(stats.busy_ns) * 1e-9);
  registry.GetGauge("par.pool.inline_overflow")
      ->Set(static_cast<double>(stats.inline_overflow));
  registry.GetGauge("par.pool.pending_regions")
      ->Set(static_cast<double>(stats.pending_regions));
  for (size_t i = 0; i < stats.worker_busy_ns.size(); ++i) {
    const std::string worker = "par.pool.worker." + std::to_string(i);
    registry.GetGauge(worker + ".busy_seconds")
        ->Set(static_cast<double>(stats.worker_busy_ns[i]) * 1e-9);
    registry.GetGauge(worker + ".idle_seconds")
        ->Set(static_cast<double>(stats.worker_idle_ns[i]) * 1e-9);
  }
}

/// One scrape's reading of a histogram, taken from a single copy of the
/// sketch so that count, sum and every bucket agree (+Inf == _count ==
/// count) even while writers keep inserting.
struct HistogramReading {
  int64_t count = 0;
  double sum = 0.0;
  // Cumulative count at each DefaultLatencyBounds() edge, then +Inf.
  std::vector<int64_t> cumulative;
};

HistogramReading ReadHistogram(const QuantileSketch& live) {
  const QuantileSketch sketch(live);
  HistogramReading out;
  out.count = sketch.Count();
  out.sum = sketch.Sum();
  for (double le : DefaultLatencyBounds()) {
    out.cumulative.push_back(std::min<int64_t>(
        out.count, std::llround(sketch.MassBelow(le) *
                                static_cast<double>(out.count))));
  }
  out.cumulative.push_back(out.count);
  return out;
}

}  // namespace

std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(valid ? c : '_');
  }
  if (out.empty()) return "_";
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out.append("\\\\"); break;
      case '"': out.append("\\\""); break;
      case '\n': out.append("\\n"); break;
      default: out.push_back(c);
    }
  }
  return out;
}

const std::vector<double>& DefaultLatencyBounds() {
  static const std::vector<double>* bounds = new std::vector<double>{
      1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
      1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0,  10.0, 30.0, 100.0};
  return *bounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

QuantileSketch* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<QuantileSketch>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<QuantileSketch>(kHistogramAlpha);
  return slot.get();
}

Result<double> MetricsRegistry::ReadValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto gauge = gauges_.find(name);
  if (gauge != gauges_.end()) return gauge->second->Value();
  auto counter = counters_.find(name);
  if (counter != counters_.end()) {
    return static_cast<double>(counter->second->Value());
  }
  return Status::NotFound("no gauge or counter named '" + name + "'");
}

void MetricsRegistry::SetInfo(const std::string& name,
                              std::map<std::string, std::string> labels) {
  std::lock_guard<std::mutex> lock(mu_);
  infos_[name] = std::move(labels);
}

std::string MetricsRegistry::ToJson() const {
  PublishPoolGauges();  // Before taking mu_: GetGauge locks it too.
  PublishProcessGauges();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendJsonNumber(&out, static_cast<double>(counter->Value()));
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendJsonNumber(&out, gauge->Value());
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    const HistogramReading reading = ReadHistogram(*histogram);
    out.append(":{\"count\":");
    AppendJsonNumber(&out, static_cast<double>(reading.count));
    out.append(",\"sum\":");
    AppendJsonNumber(&out, reading.sum);
    out.append(",\"buckets\":[");
    // Per-bucket (not cumulative) counts, overflow last.
    const std::vector<double>& bounds = DefaultLatencyBounds();
    for (size_t i = 0; i < reading.cumulative.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.append("{\"le\":");
      if (i < bounds.size()) {
        AppendJsonNumber(&out, bounds[i]);
      } else {
        out.append("\"inf\"");
      }
      out.append(",\"count\":");
      const int64_t below = i > 0 ? reading.cumulative[i - 1] : 0;
      AppendJsonNumber(&out,
                       static_cast<double>(reading.cumulative[i] - below));
      out.push_back('}');
    }
    out.append("]}");
  }
  out.append("},\"info\":{");
  first = true;
  for (const auto& [name, labels] : infos_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.append(":{");
    bool first_label = true;
    for (const auto& [key, label_value] : labels) {
      if (!first_label) out.push_back(',');
      first_label = false;
      AppendJsonString(&out, key);
      out.push_back(':');
      AppendJsonString(&out, label_value);
    }
    out.push_back('}');
  }
  out.append("}}");
  return out;
}

std::string MetricsRegistry::ToPrometheus() const {
  PublishPoolGauges();  // Before taking mu_: GetGauge locks it too.
  PublishProcessGauges();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;

  const auto header = [&out](const std::string& name, const char* type,
                             const std::string& sanitized) {
    out.append("# HELP ");
    out.append(sanitized);
    out.append(" vgod metric ");
    out.append(name);  // The original (pre-sanitization) registry name.
    out.append("\n# TYPE ");
    out.append(sanitized);
    out.push_back(' ');
    out.append(type);
    out.push_back('\n');
  };
  const auto value = [&out](double v) {
    std::string text;
    AppendJsonNumber(&text, v);
    out.append(text);
    out.push_back('\n');
  };

  for (const auto& [name, counter] : counters_) {
    const std::string sanitized = SanitizeMetricName(name);
    header(name, "counter", sanitized);
    out.append(sanitized);
    out.push_back(' ');
    value(static_cast<double>(counter->Value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string sanitized = SanitizeMetricName(name);
    header(name, "gauge", sanitized);
    out.append(sanitized);
    out.push_back(' ');
    value(gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string sanitized = SanitizeMetricName(name);
    header(name, "histogram", sanitized);
    const HistogramReading reading = ReadHistogram(*histogram);
    const std::vector<double>& bounds = DefaultLatencyBounds();
    for (size_t i = 0; i < reading.cumulative.size(); ++i) {
      std::string le = "+Inf";
      if (i < bounds.size()) {
        le.clear();
        AppendJsonNumber(&le, bounds[i]);
      }
      out.append(sanitized);
      out.append("_bucket{le=\"");
      out.append(EscapeLabelValue(le));
      out.append("\"} ");
      value(static_cast<double>(reading.cumulative[i]));
    }
    out.append(sanitized);
    out.append("_sum ");
    value(reading.sum);
    out.append(sanitized);
    out.append("_count ");
    value(static_cast<double>(reading.count));
  }
  for (const auto& [name, labels] : infos_) {
    const std::string sanitized = SanitizeMetricName(name);
    header(name, "gauge", sanitized);
    out.append(sanitized);
    out.push_back('{');
    bool first = true;
    for (const auto& [key, label_value] : labels) {
      if (!first) out.push_back(',');
      first = false;
      out.append(SanitizeMetricName(key));
      out.append("=\"");
      out.append(EscapeLabelValue(label_value));
      out.push_back('"');
    }
    out.append("} 1\n");
  }
  return out;
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return Status::IoError("cannot write metrics to " + path);
  file << ToJson() << "\n";
  if (!file) return Status::IoError("failed writing metrics to " + path);
  return Status::Ok();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Clear();
}

}  // namespace vgod::obs
