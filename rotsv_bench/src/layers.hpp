// Per-layer probes of a traced run: each times one public entry point of a
// layer on the workload's own spec and records, so every workload reports
// every layer metric (see README.md for which end-to-end metric each moves).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/result_store.hpp"
#include "common.hpp"
#include "daemon.hpp"
#include "trace.hpp"

namespace rotsv_bench {

struct LayerInputs {
  const rotsv::CampaignSpec* spec = nullptr;
  /// The workload's die records (the last traced round, or the replay lot).
  const std::vector<rotsv::DieResult>* records = nullptr;
  /// True when `records` came from simulation: sampled dice are then
  /// re-screened and must reproduce them exactly.
  bool records_simulated = true;
  size_t threads = 1;
  bool smoke = false;
  std::string scratch_dir;
  DaemonConfig daemon;  ///< for the in-process vs serve probe (no store)
};

/// The probe numbers the run loop also needs for its residual.
struct ProbeTimes {
  double preflight_s = 0.0;
  double calibrate_s = 0.0;
  double aggregate_s = 0.0;
  double colstore_open_s = 0.0;
  std::vector<std::pair<double, double>> bands;
  /// Sample pass: screen_die wall-clock of each sampled die, and the pool
  /// share they kept busy.
  std::vector<double> sample_die_seconds;
  double sample_busy_frac = 0.0;
};

/// Runs every probe, adding its metrics to `metrics` and its spans under
/// `parent` to `log`. Failed cross-checks are recorded in `out`.
ProbeTimes measure_layers(const LayerInputs& in, SpanLog* log, long parent,
                          MetricList* metrics, RunOutcome* out);

}  // namespace rotsv_bench
