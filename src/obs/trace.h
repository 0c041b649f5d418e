#ifndef VGOD_OBS_TRACE_H_
#define VGOD_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace vgod::obs {

/// The timeline: a ring of Chrome trace complete ("X") events, the second
/// sink of ProfileScope (obs/profile.h) beside the call tree. Every
/// VGOD_PROFILE_SCOPE that opens while the timeline is on appends one
/// event when it closes; TrainingRun appends its `<Detector>/fit` and
/// `<Detector>/epoch` spans through RecordCompleteEvent. Timestamps are
/// microseconds on the profiler's clock.
struct TraceEvent {
  std::string name;
  uint32_t tid = 0;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
};

/// Timeline sink switch: its own bit of the scope-sink atomic, so turning
/// it on or off leaves the call tree untouched.
bool TraceEnabled();
void SetTraceEnabled(bool enabled);

/// Applies the VGOD_TRACE environment variable with the same rule as
/// VGOD_PROFILE: unset, "" or "0" leaves the timeline off; anything else
/// turns it on, and a value containing '/' or '.' also becomes the export
/// path returned by TraceEnvPath().
void InitTraceFromEnv();

/// Export path carried by VGOD_TRACE (empty when none was given).
std::string TraceEnvPath();

/// Microseconds on the timeline's clock.
int64_t TraceNowMicros();

/// Stable small id for the calling thread (used as "tid" in exports).
uint32_t TraceThreadId();

/// Appends a completed span to the in-process ring buffer (oldest events
/// are overwritten past the capacity). No-op when the timeline is off.
void RecordCompleteEvent(std::string name, int64_t ts_us, int64_t dur_us);

/// Events currently buffered, oldest first. Number dropped by ring
/// wrap-around is reported by TraceDroppedCount().
std::vector<TraceEvent> SnapshotTraceEvents();
size_t TraceEventCount();
int64_t TraceDroppedCount();
void ClearTrace();

/// Chrome trace_event JSON ("catapult" format): load via chrome://tracing
/// or https://ui.perfetto.dev.
std::string TraceToJson();
Status WriteTrace(const std::string& path);

}  // namespace vgod::obs

#endif  // VGOD_OBS_TRACE_H_
