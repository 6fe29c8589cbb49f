// The four benchmark workloads and the run loop that measures them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "common.hpp"

namespace rotsv_bench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 20130318;
  double seconds = 10.0;  ///< measure for at least this long
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  bool smoke = false;     ///< tiny lots, minimum rounds
  size_t threads = 1;     ///< pool threads = daemon workers
  std::string out_dir;    ///< trace files and scratch stores
  std::string bin_dir;    ///< where rotsv_serve and rotsv_worker live
  /// Verdict digest the run must reproduce (hex); empty = not checked.
  std::string expected_digest;
};

const std::vector<std::string>& workload_names();

/// The generated input of a workload: a pure function of (name, seed).
rotsv::CampaignSpec workload_spec(const std::string& name, uint64_t seed,
                                  bool smoke, size_t threads);

/// Runs one workload for opts.seconds and returns its checked metrics.
RunOutcome run_workload(const BenchOptions& opts);

}  // namespace rotsv_bench
