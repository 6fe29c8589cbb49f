// rotsv_bench: one workload of the rotsv screening benchmark per invocation.
//
//   rotsv_bench --workload lot_4v --seed 7 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is a
// separate run that alternates traced and untraced rounds and adds the
// per-layer probes. The last stdout line is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad usage or an error that stopped the run (no JSON line then).
// run.py builds this binary and is the usual way to call it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/prctl.h>
#include <thread>

#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

using namespace rotsv_bench;

namespace {

constexpr uint64_t kDefaultSeed = 20130318;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: rotsv_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--threads N] [--smoke] [--out DIR] [--bin-dir DIR] "
               "[--expected FILE]\n",
               msg);
  std::exit(2);
}

std::string expected_digest(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  if (!in) throw rotsv::IoError("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  rotsv::JsonRecord record;
  std::string flat = text.str();
  while (!flat.empty() && (flat.back() == '\n' || flat.back() == ' ')) flat.pop_back();
  if (!rotsv::JsonRecord::parse(flat, &record)) {
    throw rotsv::IoError(path + " is not a flat JSON object");
  }
  return record.has(key) ? record.get_string(key) : std::string();
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts;
  opts.out_dir = ".bench_build/out";
  opts.bin_dir = std::filesystem::read_symlink("/proc/self/exe").parent_path().string();
  opts.threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  std::string expected_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((arg + " needs a value").c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opts.workload = value();
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opts.trace = v == "1";
      } else if (arg == "--threads") {
        opts.threads = std::stoul(value());
        if (opts.threads == 0) usage("--threads must be at least 1");
      } else if (arg == "--smoke") {
        opts.smoke = true;
      } else if (arg == "--out") {
        opts.out_dir = value();
      } else if (arg == "--bin-dir") {
        opts.bin_dir = value();
      } else if (arg == "--expected") {
        expected_path = value();
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : workload_names()) known = known || name == opts.workload;
  if (!known) usage(("unknown workload '" + opts.workload + "'").c_str());

  // Workers the daemon fails to reap would otherwise outlive the run; as a
  // subreaper this process inherits and collects them.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  try {
    std::filesystem::create_directories(opts.out_dir);
    if (!expected_path.empty() && opts.seed == kDefaultSeed) {
      opts.expected_digest =
          expected_digest(expected_path, (opts.smoke ? "smoke." : "") + opts.workload);
    }
    std::printf("build %s\n", ROTSV_BENCH_BUILD_TYPE);
    RunOutcome outcome = run_workload(opts);
    for (const Metric& m : outcome.metrics.items()) {
      outcome.check(std::isfinite(m.value), m.name + " could not be measured");
    }
    const std::string result = rotsv::format(
        "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}",
        outcome.correct ? "true" : "false", outcome.attempted, outcome.failed,
        outcome.metrics.to_json().c_str());
    // The same result, labelled, for `run.py --compare`.
    const std::string path = rotsv::format(
        "%s/RESULT_%s_s%llu_t%d.json", opts.out_dir.c_str(), opts.workload.c_str(),
        static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0);
    std::ofstream(path) << rotsv::format(
        "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"threads\": %zu, "
        "\"build_type\": \"%s\", ",
        opts.workload.c_str(), static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
        opts.threads, ROTSV_BENCH_BUILD_TYPE) << result.substr(1) << "\n";
    std::printf("%s\n", result.c_str());
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rotsv_bench: %s\n", e.what());
    return 2;
  }
}
