// Span tracing recorded from the benchmark's own files, around its calls into
// the public rotsv API (nothing inside src/ is instrumented).
//
// Two sources feed it:
//  - instants recorded on whichever thread hits them (a transient starting,
//    reported through RoRunOptions::transient_hook; a die finishing, reported
//    through the campaign progress callback or after screen_die returns).
//    They land in per-thread buffers without locks and become spans after
//    the run: on one thread, a transient lasts until the next transient
//    starts or its die finishes;
//  - explicit spans the benchmark opens around whole phases (a round, a probe).
//
// The trace file lists every span as {id, name, start, end, parent, die} with
// times in seconds on the run's steady clock. Self time is a span's duration
// minus the part its children cover.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rotsv_bench {

enum class EventKind : uint8_t { kTransient, kDieEnd };

struct TraceEvent {
  double t = 0.0;
  EventKind kind = EventKind::kTransient;
  int die = -1;
  double seconds = 0.0;  ///< kDieEnd: the die's own wall-clock
};

/// Per-thread instant buffers. Recording touches only the calling thread's
/// buffer; the buffer list itself is locked once per thread.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RoRunOptions::transient_hook target; `ctx` is the Tracer.
  static void transient_hook(void* ctx);

  void record(EventKind kind, int die = -1, double seconds = 0.0);

  /// Moves out every thread's events (one vector per recording thread, each
  /// in time order) and starts over.
  std::vector<std::vector<TraceEvent>> take();

 private:
  std::vector<TraceEvent>& local();

  const uint64_t id_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<TraceEvent>>> buffers_;
};

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;
  int die = -1;
};

class SpanLog {
 public:
  long add(std::string name, double start, double end, long parent = -1,
           int die = -1);
  /// Sets the end of a span opened before its children were known.
  void close(long id, double end) { spans_[static_cast<size_t>(id)].end = end; }
  size_t size() const { return spans_.size(); }

  /// Turns per-thread instants into spans: one campaign.screen_die span per
  /// kDieEnd (under `parent`) holding the ro.transient spans that started
  /// on its thread inside it. Transients that belong to no die (calibration
  /// threads) go under `orphan_parent`; the last one on a thread has no
  /// visible end and is recorded with zero length.
  void add_thread_events(const std::vector<std::vector<TraceEvent>>& threads,
                         long parent, long orphan_parent);

  /// Self time (duration minus the children's durations) of every span named
  /// `name` directly under `parent`. The children of one span here always
  /// run one after another on one thread, so their durations never overlap.
  std::vector<double> self_times(const std::string& name, long parent) const;

  /// Writes at most `limit` spans (the rest are counted as dropped).
  void write_json(const std::string& path, const std::string& workload,
                  uint64_t seed, size_t limit) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace rotsv_bench
