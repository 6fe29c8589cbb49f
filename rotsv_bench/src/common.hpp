// Shared plumbing of the rotsv benchmark binary: clocks, order statistics,
// the metric list a run prints, and the verdict digest.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/result_store.hpp"

namespace rotsv_bench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the process started its measurements.
double now_s();

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; NaN
/// when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// One reported number. `value` is printed with every digit it has.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string to_json() const;

 private:
  std::vector<Metric> items_;
};

/// The outcome of one benchmark run, as the final stdout line reports it.
struct RunOutcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  MetricList metrics;

  void check(bool ok, const std::string& what);
};

/// FNV-1a over the records sorted by die index, each contributing
/// (die, verdict, tsv_verdicts, sim_steps): the deterministic part of a
/// screen. Identical across thread counts, worker counts and transports.
uint64_t verdict_digest(const std::vector<rotsv::DieResult>& results);

/// FNV-1a over every field of every record (the die-record codec's text),
/// sorted by die index: byte-level equality of two record sets.
uint64_t record_digest(const std::vector<rotsv::DieResult>& results);

std::string hex64(uint64_t value);

/// Peak resident set size (VmHWM) of a live process since its last exec, in
/// MB; pid 0 is this process. NaN when it cannot be read. getrusage is no
/// use here: the kernel carries the spawning process's footprint into a
/// child's ru_maxrss across fork and exec.
double peak_rss_mb(int pid);

}  // namespace rotsv_bench
