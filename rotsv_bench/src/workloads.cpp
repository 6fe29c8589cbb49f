#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "daemon.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/colstore.hpp"
#include "trace.hpp"
#include "util/strings.hpp"

namespace rotsv_bench {
namespace {

using rotsv::CampaignSpec;
using rotsv::DieResult;

// Rounds below this count make a median meaningless; a run keeps going past
// --seconds until it has them.
constexpr int kMinRounds = 3;
constexpr int kMinTracedRounds = 2;
// Daemon start-ups timed per serve run (the last one serves the jobs).
constexpr int kDaemonStarts = 21;
// Per-verdict spans beyond this many stay out of the trace file.
constexpr size_t kSpanCap = 20000;

struct Geometry {
  int wafers;
  int grid;
};

// Lot sizes: each full lot takes 1-4 s on a quiet 4-thread x86-64 host and
// up to twice that on a busy one, so a 28 s run holds the warm-up and at
// least three more rounds; the smoke lots take about a second.
Geometry geometry(const std::string& name, bool smoke) {
  if (name == "lot_4v") return smoke ? Geometry{1, 2} : Geometry{1, 5};
  if (name == "lot_1v_pair") return smoke ? Geometry{1, 3} : Geometry{1, 8};
  if (name == "serve_lot") return smoke ? Geometry{1, 2} : Geometry{1, 7};
  return smoke ? Geometry{4, 4} : Geometry{200, 16};  // serve_replay
}

/// One job: a lot screened (or replayed) start to finish.
struct Round {
  bool traced = false;
  double setup = 0.0;  ///< in-process: start until screening starts
  double first = 0.0;  ///< start/submit until the first verdict
  double last = 0.0;   ///< ... until the last verdict
  double done = 0.0;   ///< ... until the run returned / job-done arrived
  double calibration_s = 0.0;  ///< in-process only (executor's own clock)
  double screening_s = 0.0;    ///< in-process only
  int dice = 0;
  long failed = 0;
  int restarts = 0;
  uint64_t digest = 0;
  std::vector<double> gaps_ms;      ///< between consecutive verdicts
  std::vector<double> die_seconds;  ///< DieResult.seconds of each die
  std::vector<DieResult> results;   ///< kept for the last round only
  rotsv::CampaignAggregate aggregate;

  double dice_per_s() const { return dice / (last - first); }
};

std::vector<double> gaps_ms(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  std::vector<double> gaps;
  for (size_t i = 1; i < times.size(); ++i) gaps.push_back(1e3 * (times[i] - times[i - 1]));
  return gaps;
}

void check_lot(const CampaignSpec& spec, const std::vector<DieResult>& results,
               const char* what, RunOutcome* out) {
  std::set<int> dice;
  for (const DieResult& r : results) dice.insert(r.die);
  out->check(static_cast<int>(results.size()) == spec.total_dice() &&
                 static_cast<int>(dice.size()) == spec.total_dice(),
             rotsv::format("%s: %zu records for %zu distinct of %d dice", what,
                           results.size(), dice.size(), spec.total_dice()));
}

Round run_inprocess_round(const CampaignSpec& base, const std::string& log_path,
                          Tracer* tracer, SpanLog* log, RunOutcome* out) {
  CampaignSpec spec = base;
  if (tracer != nullptr) {
    spec.tester.run.transient_hook = &Tracer::transient_hook;
    spec.tester.run.transient_hook_ctx = tracer;
  }
  std::vector<double> times;
  times.reserve(static_cast<size_t>(spec.total_dice()));
  rotsv::CampaignRunOptions options;
  options.result_path = log_path;
  // Serialized by the executor; runs on the pool thread that screened the die.
  options.progress = [&](const DieResult& die, int, int) {
    times.push_back(now_s());
    if (tracer != nullptr) tracer->record(EventKind::kDieEnd, die.die, die.seconds);
  };

  const double t0 = now_s();
  rotsv::CampaignReport report = rotsv::run_campaign(spec, options);
  const double t_done = now_s();

  Round round;
  round.traced = tracer != nullptr;
  round.dice = static_cast<int>(times.size());
  round.first = times.front() - t0;
  round.last = times.back() - t0;
  round.done = t_done - t0;
  // The executor's screening clock stops right after its last verdict, so
  // everything before it started is preflight, store creation and calibration.
  round.screening_s = report.throughput.screening_seconds;
  round.setup = round.last - round.screening_s;
  round.calibration_s = report.throughput.calibration_seconds;
  round.failed = report.aggregate.die_bins.inconclusive +
                 static_cast<long>(report.throughput.io_failures);
  round.gaps_ms = gaps_ms(times);
  for (const DieResult& r : report.results) round.die_seconds.push_back(r.seconds);
  round.digest = verdict_digest(report.results);
  round.aggregate = report.aggregate;

  check_lot(spec, report.results, "in-process lot", out);
  // The JSONL checkpoint must hold exactly what the run reported.
  const rotsv::ResumeState resumed = rotsv::load_resume_state(log_path, spec);
  out->check(verdict_digest(resumed.completed) == round.digest &&
                 resumed.bands == report.bands,
             "checkpoint log does not reproduce the run's records and bands");

  if (tracer != nullptr) {
    const long run = log->add("campaign.run", t0, t_done);
    const long setup = log->add("campaign.setup", t0, t0 + round.setup, run);
    const long screen = log->add("campaign.screen", t0 + round.setup, times.back(), run);
    log->add_thread_events(tracer->take(), screen, setup);
  }
  round.results = std::move(report.results);
  return round;
}

Round run_serve_round(rotsv::ServeClient* client, const CampaignSpec& spec,
                      bool traced, SpanLog* log, RunOutcome* out) {
  std::vector<double> times;
  std::vector<DieResult> got;
  times.reserve(static_cast<size_t>(spec.total_dice()));
  got.reserve(static_cast<size_t>(spec.total_dice()));
  rotsv::StreamingAggregate agg(spec);

  const double t0 = now_s();
  const rotsv::JobSummary summary = client->submit_and_stream(
      spec, [&](const DieResult& die) {
        times.push_back(now_s());
        agg.add(die);
        got.push_back(die);
      });
  const double t_done = now_s();

  Round round;
  round.traced = traced;
  round.dice = static_cast<int>(times.size());
  round.first = times.front() - t0;
  round.last = times.back() - t0;
  round.done = t_done - t0;
  round.restarts = summary.restarts;
  round.failed = summary.quality.quarantined;
  round.gaps_ms = gaps_ms(times);
  for (const DieResult& r : got) round.die_seconds.push_back(r.seconds);
  round.digest = verdict_digest(got);
  round.aggregate = agg.aggregate();

  out->check(summary.state == "done", "serve job ended " + summary.state);
  check_lot(spec, got, "serve job", out);

  if (traced) {
    const long job = log->add("serve.job", t0, t_done);
    double prev = t0;
    for (size_t i = 0; i < got.size() && log->size() < kSpanCap; ++i) {
      log->add("serve.verdict", prev, times[i], job, got[i].die);
      prev = times[i];
    }
  }
  round.results = std::move(got);
  return round;
}

rotsv::TsvVerdict worse(rotsv::TsvVerdict a, rotsv::TsvVerdict b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

/// A complete colstore for `spec` whose records follow the ground truth
/// (every defect caught as its own class), so nothing is simulated.
std::vector<DieResult> write_replay_lot(const CampaignSpec& spec,
                                        const std::string& path) {
  std::vector<DieResult> records;
  auto writer = rotsv::ColStoreWriter::create(path, spec);
  for (const rotsv::DieSite& site : rotsv::campaign_sites(spec)) {
    const rotsv::DieGroundTruth truth =
        rotsv::die_ground_truth(spec, site.wafer, site.row, site.col);
    DieResult d;
    d.die = spec.die_index(site.wafer, site.row, site.col);
    d.wafer = site.wafer;
    d.row = site.row;
    d.col = site.col;
    d.truth = truth.worst_type();
    d.defective = truth.defective();
    for (const rotsv::TsvFault& f : truth.faults) {
      const rotsv::TsvVerdict v =
          f.type == rotsv::TsvFaultType::kNone          ? rotsv::TsvVerdict::kPass
          : f.type == rotsv::TsvFaultType::kResistiveOpen ? rotsv::TsvVerdict::kResistiveOpen
                                                          : rotsv::TsvVerdict::kLeakage;
      d.tsv_verdicts += rotsv::verdict_code(v);
      d.verdict = worse(d.verdict, v);
    }
    writer->append(d);
    records.push_back(std::move(d));
  }
  writer->finish();
  return records;
}

struct LotMix {
  int open = 0;  ///< dice whose worst fault is an open
  int leak = 0;  ///< dice whose worst fault is a leak
  bool leading_clean = true;
};

LotMix lot_mix(const CampaignSpec& spec, int leading) {
  LotMix mix;
  int i = 0;
  for (const rotsv::DieSite& site : rotsv::campaign_sites(spec)) {
    const rotsv::TsvFaultType t =
        rotsv::die_ground_truth(spec, site.wafer, site.row, site.col).worst_type();
    mix.open += t == rotsv::TsvFaultType::kResistiveOpen ? 1 : 0;
    mix.leak += t == rotsv::TsvFaultType::kLeakage ? 1 : 0;
    if (i++ < leading && t != rotsv::TsvFaultType::kNone) mix.leading_clean = false;
  }
  return mix;
}

/// The lot a --seed screens. Lots of a few dozen dice differ in cost mostly
/// by how many dice leak (a leaky ring stalls out after a fraction of the
/// steps) and in first-verdict time by what sits at the head of the queue.
/// So the seed walks its own candidate stream to the first lot with the
/// workload's typical open and leak counts (the median over a fixed sample
/// of lots) whose first `leading` dice, the ones claimed first, are clean.
/// Every die still draws its own faults and variation from the chosen seed.
uint64_t matched_lot_seed(CampaignSpec spec, int leading) {
  constexpr uint64_t kTypicalLots = 64;
  constexpr uint64_t kMaxCandidates = 1'000'000;
  const uint64_t seed = spec.seed;
  leading = std::min(leading, spec.total_dice() / 2);
  std::vector<int> opens;
  std::vector<int> leaks;
  for (uint64_t k = 0; k < kTypicalLots; ++k) {
    spec.seed = rotsv::Rng::fork(0x6c6f74ULL, k).next_u64();
    const LotMix m = lot_mix(spec, 0);
    opens.push_back(m.open);
    leaks.push_back(m.leak);
  }
  std::sort(opens.begin(), opens.end());
  std::sort(leaks.begin(), leaks.end());
  const int open = opens[opens.size() / 2];
  const int leak = leaks[leaks.size() / 2];
  for (uint64_t k = 0; k < kMaxCandidates; ++k) {
    spec.seed = k == 0 ? seed : rotsv::Rng::fork(seed, k).next_u64();
    const LotMix m = lot_mix(spec, leading);
    if (m.open == open && m.leak == leak && m.leading_clean) return spec.seed;
  }
  throw rotsv::ConfigError("no lot with the typical defect counts for this seed");
}

double median_of(const std::vector<Round>& rounds, bool traced,
                 double (*field)(const Round&)) {
  std::vector<double> v;
  for (const Round& r : rounds) {
    if (r.traced == traced) v.push_back(field(r));
  }
  return median(v);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"lot_4v", "lot_1v_pair",
                                                 "serve_lot", "serve_replay"};
  return names;
}

CampaignSpec workload_spec(const std::string& name, uint64_t seed, bool smoke,
                           size_t threads) {
  // rotsv_campaign's defaults: group 2, 6 calibration dice, 4 sigma, 5 % open
  // and leak rates with edge bias 1, 3 retries, default run options.
  CampaignSpec spec;
  spec.lot_id = name;
  spec.seed = seed;
  spec.threads = threads;
  spec.tester.threads = threads;
  spec.tester.group_size = 2;
  spec.tester.calibration_samples = 6;
  spec.tester.guard_band_sigma = 4.0;
  spec.mix.edge_bias = 1.0;
  const Geometry g = geometry(name, smoke);
  spec.wafers = g.wafers;
  spec.rows = g.grid;
  spec.cols = g.grid;
  if (name == "lot_4v") {
    spec.tsvs_per_die = 1;
    spec.tester.voltages = {1.1, 0.95, 0.8, 0.75};  // the paper's plan
  } else if (name == "lot_1v_pair") {
    spec.tsvs_per_die = 2;
    spec.tester.voltages = {1.1};
  } else if (name == "serve_lot") {
    spec.tsvs_per_die = 1;
    spec.tester.voltages = {1.1, 0.95};
  } else if (name == "serve_replay") {
    spec.tsvs_per_die = 2;
    spec.tester.voltages = {1.1, 0.95};
  } else {
    throw rotsv::ConfigError("unknown workload '" + name + "'");
  }
  if (smoke) {
    // rotsv_campaign --fast windows and the smallest calibration the
    // analyzer accepts: the smoke pass checks behaviour, not speed.
    spec.tester.calibration_samples = 2;
    spec.tester.run.first_window = 40e-9;
    spec.tester.run.max_time = 200e-9;
    spec.tester.run.measure_cycles = 3;
  }
  // Nothing is simulated on a replay, so its lot needs no matching.
  if (name != "serve_replay") spec.seed = matched_lot_seed(spec, name == "serve_lot" ? 16 : 4);
  return spec;
}

RunOutcome run_workload(const BenchOptions& opts) {
  RunOutcome out;
  const CampaignSpec spec = workload_spec(opts.workload, opts.seed, opts.smoke, opts.threads);
  const bool serve = opts.workload.rfind("serve_", 0) == 0;
  const bool replay = opts.workload == "serve_replay";

  const std::string scratch = rotsv::format(
      "%s/scratch-%s-%d", opts.out_dir.c_str(), opts.workload.c_str(), static_cast<int>(::getpid()));
  std::filesystem::create_directories(scratch);
  const std::string store = scratch + "/" + opts.workload + ".rcs";

  DaemonConfig daemon_config;
  daemon_config.serve_binary = opts.bin_dir + "/rotsv_serve";
  daemon_config.worker_binary = opts.bin_dir + "/rotsv_worker";
  daemon_config.workers = static_cast<int>(opts.threads);
  daemon_config.shard = 4;

  std::printf("workload %s: seed %llu (lot seed %llu), %d dice, %zu voltage(s), %d TSV/die, "
              "%zu thread(s)%s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(spec.seed),
              spec.total_dice(), spec.tester.voltages.size(), spec.tsvs_per_die,
              opts.threads, opts.trace ? ", traced" : "");
  std::fflush(stdout);

  Tracer tracer;
  SpanLog log;
  std::vector<Round> rounds;
  std::vector<double> setups;
  std::vector<DieResult> replay_records;
  uint64_t replay_digest = 0;

  if (replay) {
    replay_records = write_replay_lot(spec, store);
    replay_digest = record_digest(replay_records);
  }

  std::optional<Daemon> daemon;
  std::unique_ptr<rotsv::ServeClient> client;
  if (serve) {
    DaemonConfig with_store = daemon_config;
    with_store.store = store;
    for (int i = 0; i < kDaemonStarts; ++i) {
      daemon.reset();
      daemon.emplace(with_store);
      setups.push_back(daemon->startup_seconds());
      if (i + 1 < kDaemonStarts) daemon->shutdown();
    }
    client = std::make_unique<rotsv::ServeClient>(daemon->address());
  }

  // Serve: the daemon's own peak (it holds the spool and, on a replay, every
  // recovered record), read while it is still alive.
  auto read_peak_rss = [&]() { return peak_rss_mb(serve ? static_cast<int>(daemon->pid()) : 0); };
  double peak_rss = std::numeric_limits<double>::quiet_NaN();
  std::optional<uint64_t> first_digest;

  const double start = now_s();
  // Round -1 warms up: a process's first job pays page faults, allocator
  // growth and cold caches that later jobs do not. It is checked like the
  // others and runs inside --seconds, but no metric reads it.
  for (int i = opts.smoke ? 0 : -1;; ++i) {
    const double round_start = now_s();
    const bool warmup = i < 0;
    const bool traced = opts.trace && i % 2 == 1;
    Round round;
    if (serve) {
      // A fresh spool per job: the same spec against a complete store would
      // replay instead of screen.
      if (!replay) std::filesystem::remove(store);
      round = run_serve_round(client.get(), spec, traced, &log, &out);
    } else {
      round = run_inprocess_round(spec, scratch + "/lot.jsonl", traced ? &tracer : nullptr,
                                  &log, &out);
    }
    if (serve && !replay) {
      // Serve jobs spool to the store: it must hold exactly what the client
      // was sent, and fold to the same aggregate.
      const rotsv::ColStoreReadResult stored = rotsv::read_colstore(store, spec);
      out.check(verdict_digest(stored.records) == round.digest &&
                    rotsv::aggregate_campaign(spec, stored.records).describe() ==
                        round.aggregate.describe(),
                "serve store does not match the streamed verdicts");
    }
    if (replay) {
      out.check(record_digest(round.results) == replay_digest,
                "replayed records differ from the generated lot");
    }
    if (!first_digest) first_digest = round.digest;
    out.check(round.digest == *first_digest, "verdict digest changed between rounds of one run");
    std::printf("round %s%s: first %.4f s, last %.4f s, done %.4f s, %.6g dice/s\n",
                warmup ? "0 (warm-up)" : std::to_string(rounds.size() + 1).c_str(),
                round.traced ? " (traced)" : "", round.first, round.last, round.done,
                round.dice_per_s());
    out.attempted += round.dice;
    out.failed += round.failed;
    if (warmup) continue;
    if (!serve) setups.push_back(round.setup);
    // Only the last round keeps its records; clear() alone would keep each
    // earlier round's buffer (about 6 MB on a replay) for the whole run.
    if (!rounds.empty()) std::vector<DieResult>().swap(rounds.back().results);
    rounds.push_back(std::move(round));
    // After a fixed amount of work: the daemon keeps a ledger entry (with the
    // job's wafer maps) per job, so a peak read at the end would grow with
    // however many rounds the host's speed allowed.
    if (rounds.size() == static_cast<size_t>(kMinRounds)) peak_rss = read_peak_rss();

    int traced_n = 0;
    for (const Round& r : rounds) traced_n += r.traced ? 1 : 0;
    const int plain_n = static_cast<int>(rounds.size()) - traced_n;
    const int min_traced = opts.smoke ? 1 : kMinTracedRounds;
    const bool enough = opts.trace ? traced_n >= min_traced && plain_n >= min_traced
                                   : plain_n >= (opts.smoke ? 1 : kMinRounds);
    // Stop where the run ends nearest --seconds: now, or after one more round
    // as long as this one.
    const double now = now_s();
    if (enough && (opts.smoke || now - start + 0.5 * (now - round_start) >= opts.seconds)) break;
  }

  if (!std::isfinite(peak_rss)) peak_rss = read_peak_rss();
  out.check(std::isfinite(peak_rss), "cannot read the peak resident set size");
  if (serve) {
    client->shutdown();  // on the job connection, as an operator would
    daemon->wait();
    client.reset();
    daemon.reset();
  }

  const Round& last = rounds.back();
  std::printf("verdict_digest %s\n", hex64(last.digest).c_str());
  if (!opts.expected_digest.empty()) {
    out.check(hex64(last.digest) == opts.expected_digest,
              "verdict digest " + hex64(last.digest) + " differs from the expected " +
                  opts.expected_digest);
  }
  std::printf("rounds %zu, dice %d, screen: escape %.4g overkill %.4g, %.6g sim "
              "steps/die\n",
              rounds.size(), last.dice, last.aggregate.quality.escape_rate(),
              last.aggregate.quality.overkill_rate(),
              static_cast<double>(last.aggregate.sim_steps) / last.dice);

  if (!opts.trace) {
    MetricList& m = out.metrics;
    m.add("setup_s", median(setups), "s");
    m.add("first_verdict_s", median_of(rounds, false, [](const Round& r) { return r.first; }), "s");
    m.add("job_done_s", median_of(rounds, false, [](const Round& r) { return r.done; }), "s");
    m.add("dice_per_s", median_of(rounds, false, [](const Round& r) { return r.dice_per_s(); }),
          "dice/s");
    m.add("peak_rss_mb", peak_rss, "MB");
  } else {
    // --- per-layer run -------------------------------------------------------
    const long probes = log.add("probes", now_s(), now_s());
    LayerInputs in;
    in.spec = &spec;
    in.records = replay ? &replay_records : &last.results;
    in.records_simulated = !replay;
    in.threads = opts.threads;
    in.smoke = opts.smoke;
    in.scratch_dir = scratch;
    in.daemon = daemon_config;
    MetricList& m = out.metrics;
    const ProbeTimes probe = measure_layers(in, &log, probes, &m, &out);
    log.close(probes, now_s());

    std::vector<double> die_s;
    std::vector<double> gaps;
    std::vector<double> busy;
    std::vector<double> residual;
    int restarts = 0;
    for (const Round& r : rounds) {
      if (!r.traced) continue;
      die_s.insert(die_s.end(), r.die_seconds.begin(), r.die_seconds.end());
      gaps.insert(gaps.end(), r.gaps_ms.begin(), r.gaps_ms.end());
      restarts += r.restarts;
      double die_sum = 0.0;
      for (double s : r.die_seconds) die_sum += s;
      const double lanes = static_cast<double>(opts.threads);
      double explained = 0.0;
      if (!serve) {
        busy.push_back(die_sum / (lanes * r.screening_s));
        explained = probe.preflight_s + r.calibration_s + r.screening_s + probe.aggregate_s;
      } else {
        // The first die started roughly its own service time before its
        // verdict arrived; replayed dice carry no service time.
        const double window = r.last - r.first + (r.die_seconds.empty() ? 0.0 : r.die_seconds.front());
        busy.push_back(die_sum / (lanes * window));
        explained = probe.calibrate_s + probe.colstore_open_s + window;
      }
      residual.push_back(std::abs(r.done - explained) / r.done);
    }
    if (replay) {
      // The replay screens nothing; its die-level numbers come from the
      // sample pass over the same spec.
      die_s = probe.sample_die_seconds;
      busy = {probe.sample_busy_frac};
    }
    const rotsv::CampaignAggregate& agg = last.aggregate;
    int attempts = 0;
    int retried = 0;
    for (const DieResult& r : *in.records) {
      attempts += r.attempts;
      retried += r.attempts > 1 ? 1 : 0;
    }
    const double n = static_cast<double>(in.records->size());
    m.add("campaign.screen_die_s.p50", quantile(die_s, 0.50), "s");
    m.add("campaign.screen_die_s.p95", quantile(die_s, 0.95), "s");
    m.add("campaign.attempts_per_die", attempts / n, "attempts");
    m.add("campaign.retried_frac", retried / n, "fraction");
    m.add("campaign.pool_busy_frac", median(busy), "fraction");
    m.add("campaign.residual_frac", median(residual), "fraction");
    m.add("campaign.sim_steps_per_die", static_cast<double>(agg.sim_steps) / agg.screened_dice,
          "steps");
    m.add("campaign.escape_rate", agg.quality.escape_rate(), "fraction");
    m.add("campaign.overkill_rate", agg.quality.overkill_rate(), "fraction");
    m.add("campaign.verdict_gap_ms.p50", quantile(gaps, 0.50), "ms");
    m.add("campaign.verdict_gap_ms.p95", quantile(gaps, 0.95), "ms");
    m.add("serve.worker_restarts", restarts, "count");
    const double plain = median_of(rounds, false, [](const Round& r) { return r.dice_per_s(); });
    const double traced = median_of(rounds, true, [](const Round& r) { return r.dice_per_s(); });
    m.add("trace.overhead_frac", 1.0 - traced / plain, "fraction");

    const std::string trace_path = opts.out_dir + "/TRACE_" + opts.workload + ".json";
    log.write_json(trace_path, opts.workload, opts.seed, kSpanCap);
    std::printf("trace %s (%zu spans)\n", trace_path.c_str(), log.size());
  }

  for (const Metric& m : out.metrics.items()) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::filesystem::remove_all(scratch);
  return out;
}

}  // namespace rotsv_bench
