#ifndef VGOD_OBS_PROFILE_H_
#define VGOD_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "obs/memory.h"

namespace vgod::obs {

/// Scoped regions (VGOD_PROFILE_SCOPE) are the one span primitive. A
/// scope reports to two independent sinks, each switched by its own bit
/// of one atomic:
///  - the call tree (SetProfileEnabled, VGOD_PROFILE, /debug/profile): a
///    thread-local call stack where each distinct stack path becomes a
///    node in a per-thread call tree holding relaxed-atomic accumulators
///    (inclusive ns, call count, bytes touched, peak tensor bytes).
///    SnapshotProfile() merges the per-thread trees by path into one
///    aggregate tree with deterministic (name-sorted) child order, from
///    which ProfileToJson() / ProfileToFolded() derive the exports;
///  - the timeline (SetTraceEnabled, VGOD_TRACE, obs/trace.h): one Chrome
///    trace complete event per scope exit.
///
/// Cost model: with both sinks off, a scope is one relaxed atomic load.
/// With the tree on, it is a thread-local lookup, a child search by
/// pointer/strcmp over a handful of siblings, and two steady-clock reads
/// — no locks on the hot path. Tree-structure mutation (first visit of a
/// path) takes a per-thread mutex shared only with snapshotters, so the
/// profiler stays TSan-clean, and it never reorders or partitions work,
/// so profiled runs produce bit-identical numeric output. The timeline
/// adds one append to the mutex-guarded trace ring per scope exit.
///
/// Scope names must be string literals (or otherwise outlive the
/// process); they are stored by pointer on the hot path.

/// Aggregated snapshot node. `exclusive_ns` is inclusive minus the sum of
/// child inclusive time (clamped at zero); the snapshot also raises each
/// parent's inclusive time to at least the sum of its children so the
/// tree invariant (sum of child inclusive <= parent inclusive) holds even
/// when a window closes while scopes are still open.
struct ProfileNode {
  std::string name;
  int64_t calls = 0;
  int64_t inclusive_ns = 0;
  int64_t exclusive_ns = 0;
  int64_t bytes = 0;
  int64_t peak_bytes = 0;
  std::vector<ProfileNode> children;  // sorted by name
};

namespace profile_internal {

struct LiveNode;  // one call-tree node; defined in profile.cc

/// Sink bits of g_scope_sinks, read once when a scope opens.
inline constexpr uint32_t kTreeSink = 1;
inline constexpr uint32_t kTimelineSink = 2;
extern std::atomic<uint32_t> g_scope_sinks;
void SetSink(uint32_t sink, bool enabled);

/// The one rule for VGOD_PROFILE and VGOD_TRACE: unset, "" or "0" leaves
/// the sink off (returns false); anything else turns it on, and a value
/// containing '/' or '.' (e.g. "out/profile.json", "run.trace") is also
/// stored in `*path` as the export destination.
bool ReadSinkEnv(const char* variable, std::string* path);

/// Steady-clock nanoseconds since the process's first call: the one time
/// base of the call tree and the timeline.
int64_t ProfileNowNs();

}  // namespace profile_internal

/// Call-tree sink switch. Toggling it leaves the timeline untouched.
inline bool ProfileEnabled() {
  return (profile_internal::g_scope_sinks.load(std::memory_order_relaxed) &
          profile_internal::kTreeSink) != 0;
}
void SetProfileEnabled(bool enabled);

/// Applies the VGOD_PROFILE environment variable (see ReadSinkEnv); a
/// path-like value becomes ProfileEnvPath().
void InitProfileFromEnv();

/// Export path parsed from VGOD_PROFILE by InitProfileFromEnv(), or "".
std::string ProfileEnvPath();

/// Zeroes every accumulator on every thread's tree. Node structure (and
/// any pointers held by live scopes) stays valid, so this is safe to call
/// while scopes are open — their time lands in the fresh window.
void ClearProfile();

/// Merges all per-thread trees into one aggregate tree. The root has an
/// empty name and zero counters of its own; its children are the
/// top-level regions. Safe to call from any thread at any time.
ProfileNode SnapshotProfile();

/// Deterministic JSON tree:
///   {"name":"","calls":N,"inclusive_ns":N,"exclusive_ns":N,
///    "bytes":N,"peak_bytes":N,"children":[...]}
/// The zero-arg form snapshots first.
std::string ProfileToJson(const ProfileNode& root);
std::string ProfileToJson();

/// Folded-stack export ("frame;frame;frame <exclusive_ns>" per line,
/// sorted), directly consumable by flamegraph.pl or speedscope. The
/// zero-arg form snapshots first.
std::string ProfileToFolded(const ProfileNode& root);
std::string ProfileToFolded();

/// Writes ProfileToJson() when `path` ends in ".json", else the folded
/// stacks.
Status WriteProfile(const std::string& path);

/// Attributes `bytes` of memory traffic to the innermost open scope on
/// this thread. No-op when profiling is off or no scope is open.
void ProfileAddBytes(int64_t bytes);

/// RAII profiling region. Prefer the VGOD_PROFILE_SCOPE macro. The sinks
/// are sampled once on entry; a scope that opened with a sink off never
/// reports to it.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) {
    const uint32_t sinks =
        profile_internal::g_scope_sinks.load(std::memory_order_relaxed);
    if (sinks != 0) Enter(name, sinks);
  }
  ~ProfileScope() {
    if (name_ != nullptr) Leave();
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  /// True when this scope reports to the call tree.
  bool active() const { return node_ != nullptr; }

  /// Max-merges a tensor-memory high-water mark into this scope's node.
  void MergePeakBytes(int64_t peak_bytes);

 private:
  void Enter(const char* name, uint32_t sinks);
  void Leave();

  const char* name_ = nullptr;  // Set when any sink records this scope.
  profile_internal::LiveNode* node_ = nullptr;  // Set for the tree sink.
  bool timeline_ = false;
  int64_t start_ns_ = 0;
};

/// RAII profiling region that additionally windows the global tensor
/// high-water mark (ResetPeakTensorBytes on entry, RaisePeakTensorBytes
/// on exit) and attributes the phase peak to the scope's tree node. The
/// enclosing peak is restored on exit, so outer accounting — e.g.
/// TrainingRun's per-epoch peaks — still reads the true maximum. The
/// global mark is only touched while profiling is enabled; phase peaks
/// are meaningful for single-flow phases (training), not for concurrent
/// scoring, which uses per-thread windows instead.
class MemoryPhase {
 public:
  explicit MemoryPhase(const char* name) : scope_(name) {
    if (scope_.active()) {
      outer_peak_ = PeakTensorBytes();
      ResetPeakTensorBytes();
    }
  }
  ~MemoryPhase() {
    if (scope_.active()) {
      scope_.MergePeakBytes(PeakTensorBytes());
      RaisePeakTensorBytes(outer_peak_);
    }
  }
  MemoryPhase(const MemoryPhase&) = delete;
  MemoryPhase& operator=(const MemoryPhase&) = delete;

 private:
  ProfileScope scope_;
  int64_t outer_peak_ = 0;
};

}  // namespace vgod::obs

#define VGOD_OBS_CONCAT_INNER(a, b) a##b
#define VGOD_OBS_CONCAT(a, b) VGOD_OBS_CONCAT_INNER(a, b)
#define VGOD_PROFILE_SCOPE(name)             \
  ::vgod::obs::ProfileScope VGOD_OBS_CONCAT( \
      vgod_profile_scope_, __LINE__)(name)
#define VGOD_PROFILE_MEMORY_PHASE(name)      \
  ::vgod::obs::MemoryPhase VGOD_OBS_CONCAT(  \
      vgod_profile_phase_, __LINE__)(name)

#endif  // VGOD_OBS_PROFILE_H_
