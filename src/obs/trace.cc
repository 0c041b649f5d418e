#include "obs/trace.h"

#include <atomic>
#include <fstream>
#include <mutex>

#include "obs/json.h"
#include "obs/profile.h"

namespace vgod::obs {
namespace {

constexpr size_t kRingCapacity = 1 << 16;

/// Ring buffer of completed spans. Spans end at kernel-call frequency at
/// most, not per tensor element, so a mutex is cheap enough here; a scope
/// with the timeline off never reaches this.
struct Ring {
  std::mutex mu;
  std::vector<TraceEvent> events;  // Ring storage, capacity kRingCapacity.
  size_t next = 0;                 // Ring write position.
  int64_t total = 0;               // Events ever recorded.
};

Ring& GetRing() {
  static Ring* ring = new Ring();
  return *ring;
}

std::string& EnvPathStorage() {
  static std::string* path = new std::string();
  return *path;
}

}  // namespace

bool TraceEnabled() {
  return (profile_internal::g_scope_sinks.load(std::memory_order_relaxed) &
          profile_internal::kTimelineSink) != 0;
}

void SetTraceEnabled(bool enabled) {
  profile_internal::SetSink(profile_internal::kTimelineSink, enabled);
}

void InitTraceFromEnv() {
  if (profile_internal::ReadSinkEnv("VGOD_TRACE", &EnvPathStorage())) {
    SetTraceEnabled(true);
  }
}

std::string TraceEnvPath() { return EnvPathStorage(); }

int64_t TraceNowMicros() { return profile_internal::ProfileNowNs() / 1000; }

uint32_t TraceThreadId() {
  // Small per-thread id assigned in first-use order: stabler across runs
  // than hashed std::thread::id values, and readable in trace viewers.
  static std::atomic<uint32_t> next_id{1};
  thread_local const uint32_t id =
      next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void RecordCompleteEvent(std::string name, int64_t ts_us, int64_t dur_us) {
  if (!TraceEnabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.tid = TraceThreadId();
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  Ring& ring = GetRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  if (ring.events.size() < kRingCapacity) {
    ring.events.push_back(std::move(event));
  } else {
    ring.events[ring.next] = std::move(event);
  }
  ring.next = (ring.next + 1) % kRingCapacity;
  ++ring.total;
}

std::vector<TraceEvent> SnapshotTraceEvents() {
  Ring& ring = GetRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  if (ring.events.size() < kRingCapacity) return ring.events;
  // Unroll the ring: oldest event sits at the write position.
  std::vector<TraceEvent> out;
  out.reserve(kRingCapacity);
  for (size_t i = 0; i < kRingCapacity; ++i) {
    out.push_back(ring.events[(ring.next + i) % kRingCapacity]);
  }
  return out;
}

size_t TraceEventCount() {
  Ring& ring = GetRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  return ring.events.size();
}

int64_t TraceDroppedCount() {
  Ring& ring = GetRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  return ring.total - static_cast<int64_t>(ring.events.size());
}

void ClearTrace() {
  Ring& ring = GetRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  ring.events.clear();
  ring.next = 0;
  ring.total = 0;
}

std::string TraceToJson() {
  const std::vector<TraceEvent> events = SnapshotTraceEvents();
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append("{\"name\":");
    AppendJsonString(&out, events[i].name);
    out.append(",\"cat\":\"vgod\",\"ph\":\"X\",\"pid\":1,\"tid\":");
    AppendJsonNumber(&out, static_cast<double>(events[i].tid));
    out.append(",\"ts\":");
    AppendJsonNumber(&out, static_cast<double>(events[i].ts_us));
    out.append(",\"dur\":");
    AppendJsonNumber(&out, static_cast<double>(events[i].dur_us));
    out.push_back('}');
  }
  out.append("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":");
  AppendJsonNumber(&out, static_cast<double>(TraceDroppedCount()));
  out.append("}}");
  return out;
}

Status WriteTrace(const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::IoError("cannot write trace to " + path);
  file << TraceToJson() << "\n";
  if (!file) return Status::IoError("failed writing trace to " + path);
  return Status::Ok();
}

}  // namespace vgod::obs
