#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace rotsv_bench {
namespace {

std::atomic<uint64_t> next_tracer_id{1};

// A thread's buffer is cached per tracer id, never per address: a new Tracer
// can reuse a destroyed one's address, and its id is what tells them apart.
struct LocalCache {
  uint64_t tracer = 0;
  std::vector<TraceEvent>* buffer = nullptr;
};
thread_local LocalCache local_cache;

}  // namespace

Tracer::Tracer() : id_(next_tracer_id.fetch_add(1)) {}

void Tracer::transient_hook(void* ctx) {
  static_cast<Tracer*>(ctx)->record(EventKind::kTransient);
}

std::vector<TraceEvent>& Tracer::local() {
  if (local_cache.tracer != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<TraceEvent>>());
    buffers_.back()->reserve(4096);
    local_cache = {id_, buffers_.back().get()};
  }
  return *local_cache.buffer;
}

void Tracer::record(EventKind kind, int die, double seconds) {
  local().push_back({now_s(), kind, die, seconds});
}

std::vector<std::vector<TraceEvent>> Tracer::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<TraceEvent>> out;
  for (auto& buffer : buffers_) {
    if (!buffer->empty()) out.push_back(std::move(*buffer));
    buffer->clear();
  }
  return out;
}

long SpanLog::add(std::string name, double start, double end, long parent,
                  int die) {
  spans_.push_back({std::move(name), start, end, parent, die});
  return static_cast<long>(spans_.size()) - 1;
}

void SpanLog::add_thread_events(
    const std::vector<std::vector<TraceEvent>>& threads, long parent,
    long orphan_parent) {
  for (const std::vector<TraceEvent>& events : threads) {
    std::vector<double> starts;  // transients since the last die ended
    // Outside a die nothing marks where a thread's last transient ended, so
    // that one is recorded as a zero-length span at its start.
    auto flush_orphans = [&]() {
      for (size_t i = 0; i < starts.size(); ++i) {
        const double end = i + 1 < starts.size() ? starts[i + 1] : starts[i];
        add("ro.transient", starts[i], end, orphan_parent);
      }
      starts.clear();
    };
    for (const TraceEvent& e : events) {
      if (e.kind == EventKind::kTransient) {
        starts.push_back(e.t);
        continue;
      }
      const double die_start = e.t - e.seconds;
      // Transients recorded before this die began belong to earlier work on
      // the thread (calibration), not to the die.
      size_t first = 0;
      while (first < starts.size() && starts[first] < die_start) ++first;
      std::vector<double> own(starts.begin() + static_cast<long>(first), starts.end());
      starts.resize(first);
      flush_orphans();
      const long die_span = add("campaign.screen_die", die_start, e.t, parent, e.die);
      for (size_t i = 0; i < own.size(); ++i) {
        const double end = i + 1 < own.size() ? own[i + 1] : e.t;
        add("ro.transient", own[i], end, die_span, e.die);
      }
    }
    flush_orphans();
  }
}

std::vector<double> SpanLog::self_times(const std::string& name, long parent) const {
  std::vector<double> child_sum(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_sum[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent == parent && s.name == name) out.push_back(s.end - s.start - child_sum[i]);
  }
  return out;
}

void SpanLog::write_json(const std::string& path, const std::string& workload,
                         uint64_t seed, size_t limit) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw rotsv::IoError("trace: cannot write " + path);
  const size_t n = std::min(limit, spans_.size());
  std::fprintf(out,
               "{\"workload\": \"%s\", \"seed\": %llu, \"time_unit\": \"s\", "
               "\"dropped_spans\": %zu,\n \"spans\": [\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               spans_.size() - n);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    // A parent beyond the written prefix is reported as a root.
    const long parent = s.parent < static_cast<long>(n) ? s.parent : -1;
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": "
                 "%.9f, \"parent\": %ld, \"die\": %d}%s\n",
                 i, s.name.c_str(), s.start, s.end, parent, s.die,
                 i + 1 < n ? "," : "");
  }
  std::fprintf(out, " ]}\n");
  if (std::fclose(out) != 0) throw rotsv::IoError("trace: cannot write " + path);
}

}  // namespace rotsv_bench
