#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sys/socket.h>

#include "analyze/analyze.hpp"
#include "analyze/cost_model.hpp"
#include "campaign/campaign.hpp"
#include "linalg/lu.hpp"
#include "models/ekv.hpp"
#include "models/ptm45.hpp"
#include "ro/ring_oscillator.hpp"
#include "ro/ro_runner.hpp"
#include "serve/client.hpp"
#include "serve/colstore.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/socket.hpp"
#include "sim/mna.hpp"
#include "util/framing.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace rotsv_bench {
namespace {

using rotsv::CampaignSpec;
using rotsv::DieResult;

/// Median wall-clock per call of `fn`, over five batches of ~batch_s each.
template <class Fn>
double per_call_seconds(Fn&& fn, double batch_s) {
  size_t n = 1;
  double dt = 0.0;
  for (;;) {
    const double t0 = now_s();
    for (size_t i = 0; i < n; ++i) fn();
    dt = now_s() - t0;
    if (dt >= batch_s / 8.0 || n >= (size_t{1} << 26)) break;
    n *= 4;
  }
  n = std::max<size_t>(1, static_cast<size_t>(static_cast<double>(n) * batch_s / std::max(dt, 1e-9)));
  std::vector<double> per;
  for (int b = 0; b < 5; ++b) {
    const double t0 = now_s();
    for (size_t i = 0; i < n; ++i) fn();
    per.push_back((now_s() - t0) / static_cast<double>(n));
  }
  return median(per);
}

// --- sample pass --------------------------------------------------------------

struct DieSample {
  DieResult result;
  double screen_s = 0.0;
  double replay_start = 0.0;
  double replay_end = 0.0;
  std::vector<std::pair<double, double>> transients;  ///< measure_period calls
  rotsv::TransientStats stats;
  int early = 0;
  int stalled = 0;
  double window_s = 0.0;  ///< simulated-time budget of the transients run
  bool replay_complete = true;
  double predicted_steps = 0.0;

  double transient_s() const {
    double sum = 0.0;
    for (const auto& t : transients) sum += t.second - t.first;
    return sum;
  }
};

void add_stats(rotsv::TransientStats* into, const rotsv::TransientStats& s) {
  into->steps_accepted += s.steps_accepted;
  into->steps_rejected += s.steps_rejected;
  into->newton_iterations += s.newton_iterations;
  into->lu_factorizations += s.lu_factorizations;
  into->lu_full_factorizations += s.lu_full_factorizations;
  into->workspace_allocations += s.workspace_allocations;
  into->early_exits += s.early_exits;
  into->sim_time += s.sim_time;
}

/// Re-runs a die's transients one measure_period call at a time, with the
/// tester's public recipe for a first, clean attempt: the die's ground
/// truth, its variation stream 2g+1, one ring per group of TSVs, per voltage
/// one T1 run per TSV and one shared bypass-all reference, and the counter
/// phase draws that follow every oscillating T1.
void replay_die(const CampaignSpec& spec, const rotsv::DieSite& site, DieSample* s) {
  const rotsv::DieGroundTruth truth =
      rotsv::die_ground_truth(spec, site.wafer, site.row, site.col);
  const int g = spec.die_index(site.wafer, site.row, site.col);
  const rotsv::RoRunOptions run = rotsv::escalate_run(
      spec.tester.run, spec.retry, 0, rotsv::retry_ic_stream(spec.seed, g, 0));
  rotsv::Rng rng = rotsv::Rng::fork(spec.seed, 2 * static_cast<uint64_t>(g) + 1);
  auto measure = [&](rotsv::RingOscillator& ro) {
    const double t0 = now_s();
    const rotsv::RoMeasurement m = rotsv::measure_period(ro, run);
    s->transients.emplace_back(t0, now_s());
    add_stats(&s->stats, m.stats);
    s->early += m.stats.early_exits > 0 ? 1 : 0;
    s->stalled += m.stalled ? 1 : 0;
    s->window_s += run.max_time;
    return m;
  };
  const size_t group = static_cast<size_t>(spec.tester.group_size);
  const size_t n = truth.faults.size();
  try {
    for (size_t base = 0; base < n; base += group) {
      const size_t count = std::min(group, n - base);
      rotsv::RingOscillatorConfig cfg;
      cfg.num_tsvs = spec.tester.group_size;
      cfg.tech = spec.tester.tech;
      cfg.faults.assign(truth.faults.begin() + static_cast<long>(base),
                        truth.faults.begin() + static_cast<long>(base + count));
      cfg.vdd = spec.tester.voltages.front();
      rotsv::RingOscillator ro(cfg);
      ro.apply_variation(spec.tester.variation, rng);
      for (double vdd : spec.tester.voltages) {
        ro.set_vdd(vdd);
        for (size_t ti = 0; ti < count; ++ti) {
          ro.enable_only(static_cast<int>(ti));
          const rotsv::RoMeasurement t1 = measure(ro);
          if (ti == 0) {
            ro.bypass_all();
            if (!measure(ro).oscillating) {
              s->replay_complete = false;
              return;
            }
          }
          if (t1.oscillating) {
            rng.uniform();
            rng.uniform();
          }
        }
      }
    }
  } catch (const rotsv::Error&) {
    s->replay_complete = false;
  }
}

}  // namespace

ProbeTimes measure_layers(const LayerInputs& in, SpanLog* log, long parent,
                          MetricList* m, RunOutcome* out) {
  const CampaignSpec& spec = *in.spec;
  const std::vector<DieResult>& records = *in.records;
  const double batch_s = in.smoke ? 0.002 : 0.02;
  ProbeTimes probe;
  Tracer tracer;

  // --- analyze: the campaign preflight -------------------------------------
  {
    std::vector<double> times;
    for (int i = 0; i < 5; ++i) {
      const double t0 = now_s();
      const rotsv::AnalysisReport report = rotsv::analyze_campaign(spec);
      times.push_back(now_s() - t0);
      log->add("analyze.preflight", t0, t0 + times.back(), parent);
      out->check(!report.has_errors(), "preflight rejected the workload spec");
    }
    probe.preflight_s = median(times);
    m->add("analyze.preflight_s", probe.preflight_s, "s");
  }

  // --- core: calibration, as the server runs it per job ---------------------
  CampaignSpec hooked = spec;
  hooked.tester.run.transient_hook = &Tracer::transient_hook;
  hooked.tester.run.transient_hook_ctx = &tracer;
  {
    const double t0 = now_s();
    probe.bands = rotsv::campaign_bands(hooked);
    const double t1 = now_s();
    probe.calibrate_s = t1 - t0;
    const long span = log->add("core.calibrate", t0, t1, parent);
    const auto events = tracer.take();
    size_t transients = 0;
    for (const auto& thread : events) transients += thread.size();
    log->add_thread_events(events, span, span);
    m->add("core.calibrate_s", probe.calibrate_s, "s");
    m->add("core.calibrate_transients", static_cast<double>(transients), "transients");
  }

  // --- sample pass: campaign / ro / sim layers on >= 20 dice ---------------
  {
    const std::vector<rotsv::DieSite> sites = rotsv::campaign_sites(spec);
    const size_t k = std::min<size_t>(sites.size(), in.smoke ? 4 : 20);
    std::vector<rotsv::DieSite> picks;
    for (size_t i = 0; i < k; ++i) picks.push_back(sites[i * sites.size() / k]);
    std::vector<DieSample> samples(k);
    const rotsv::PreBondTsvTester tester = rotsv::make_banded_tester(hooked, probe.bands);
    const rotsv::CostModel model = rotsv::build_cost_model(spec.tester, spec.mix);

    const double t0 = now_s();
    rotsv::ThreadPool::parallel_for(
        k,
        [&](size_t i) {
          const rotsv::DieSite& site = picks[i];
          DieSample& s = samples[i];
          const double start = now_s();
          s.result = rotsv::screen_die(hooked, tester, site.wafer, site.row, site.col);
          s.screen_s = now_s() - start;
          tracer.record(EventKind::kDieEnd, s.result.die, s.screen_s);
          s.replay_start = now_s();
          replay_die(spec, site, &s);
          s.replay_end = now_s();
          s.predicted_steps = model.predicted_die_steps(spec, site.wafer, site.row, site.col);
        },
        in.threads);
    const double t1 = now_s();
    const long span = log->add("sample.pass", t0, t1, parent);
    log->add_thread_events(tracer.take(), span, span);

    // Self time of a sampled screen_die: its span minus the hook-delimited
    // transients inside it, i.e. the die's ground truth, ring build and
    // variation before the first transient starts.
    const std::vector<double> self_s = log->self_times("campaign.screen_die", span);
    std::vector<double> transient_s;
    rotsv::TransientStats stats;
    double replay_sum = 0.0;
    double transient_sum = 0.0;
    double busy_sum = 0.0;
    double window = 0.0;
    double predicted = 0.0;
    double measured = 0.0;
    int transients = 0;
    int early = 0;
    int stalled = 0;
    for (const DieSample& s : samples) {
      const int die = s.result.die;
      const long replay = log->add("sample.replay_die", s.replay_start, s.replay_end, span, die);
      for (const auto& t : s.transients) {
        log->add("sim.measure_period", t.first, t.second, replay, die);
        transient_s.push_back(t.second - t.first);
      }
      // Exact step accounting: a clean die's steps are the sum of its
      // transients, one measure_period call at a time.
      if (s.result.attempts == 1) {
        out->check(s.replay_complete && s.stats.steps_accepted == s.result.sim_steps,
                   rotsv::format("sample die %d: transients replay %zu steps, screen_die "
                                 "reported %llu",
                                 die, s.stats.steps_accepted,
                                 static_cast<unsigned long long>(s.result.sim_steps)));
      }
      if (in.records_simulated) {
        const auto it = std::find_if(records.begin(), records.end(),
                                     [&](const DieResult& r) { return r.die == die; });
        out->check(it != records.end() && it->verdict == s.result.verdict &&
                       it->tsv_verdicts == s.result.tsv_verdicts &&
                       it->sim_steps == s.result.sim_steps && it->attempts == s.result.attempts,
                   rotsv::format("sample die %d: re-screen differs from the workload's record",
                                 die));
      }
      add_stats(&stats, s.stats);
      transients += static_cast<int>(s.transients.size());
      early += s.early;
      stalled += s.stalled;
      window += s.window_s;
      replay_sum += s.replay_end - s.replay_start;
      transient_sum += s.transient_s();
      busy_sum += s.screen_s + (s.replay_end - s.replay_start);
      predicted += s.predicted_steps;
      measured += static_cast<double>(s.result.sim_steps);
      probe.sample_die_seconds.push_back(s.screen_s);
    }
    probe.sample_busy_frac = busy_sum / (static_cast<double>(in.threads) * (t1 - t0));

    const double ratio = predicted / measured;
    out->check(ratio > 1.0 / 3.0 && ratio < 3.0,
               rotsv::format("cost model predicts x%.3g of the measured steps", ratio));
    const double accepted = static_cast<double>(stats.steps_accepted);
    const double attempted = accepted + static_cast<double>(stats.steps_rejected);
    const double us_per_step = 1e6 * transient_sum / accepted;
    m->add("analyze.cost_model_error", std::fabs(std::log(ratio)), "abs_log_ratio");
    m->add("campaign.die_self_s", mean(self_s), "s");
    m->add("ro.transients_per_die", static_cast<double>(transients) / static_cast<double>(k),
           "transients");
    m->add("ro.transient_s.p50", quantile(transient_s, 0.50), "s");
    m->add("ro.transient_s.p95", quantile(transient_s, 0.95), "s");
    // Share of a replayed die's wall-clock spent inside measure_period.
    m->add("ro.transient_busy_frac", transient_sum / replay_sum, "fraction");
    m->add("ro.early_exit_frac", static_cast<double>(early) / transients, "fraction");
    m->add("ro.stalled_frac", static_cast<double>(stalled) / transients, "fraction");
    m->add("sim.steps_per_transient", accepted / transients, "steps");
    m->add("sim.us_per_step", us_per_step, "us");
    m->add("sim.rejected_step_frac", (attempted - accepted) / attempted, "fraction");
    const double iters_per_step = static_cast<double>(stats.newton_iterations) / accepted;
    m->add("sim.newton_iters_per_step", iters_per_step, "iters");
    m->add("sim.lu_full_frac",
           static_cast<double>(stats.lu_full_factorizations) /
               static_cast<double>(stats.lu_factorizations),
           "fraction");
    m->add("sim.workspace_allocs_per_transient",
           static_cast<double>(stats.workspace_allocations) / transients, "allocs");
    m->add("sim.sim_time_frac", stats.sim_time / window, "fraction");

    // --- kernels on the workload's own RO Jacobian -------------------------
    rotsv::RingOscillatorConfig cfg;
    cfg.num_tsvs = spec.tester.group_size;
    cfg.tech = spec.tester.tech;
    cfg.vdd = spec.tester.voltages.front();
    rotsv::RingOscillator ro(cfg);
    ro.enable_only(0);
    const rotsv::Circuit& circuit = ro.circuit();
    rotsv::MnaSystem mna(circuit);
    rotsv::Vector v(circuit.nodes().unknown_count() + 1, 0.5 * cfg.vdd);
    v[0] = 0.0;
    rotsv::Vector state(circuit.state_count(), 0.0);
    rotsv::LoadContext ctx;
    ctx.kind = rotsv::AnalysisKind::kTransient;
    ctx.method = spec.tester.run.method;
    ctx.h = 1e-12;
    ctx.time = 1e-12;
    ctx.v = &v;
    ctx.v_prev = &v;
    ctx.state_prev = state.data();
    ctx.state_now = state.data();
    std::vector<uint8_t> pattern;
    mna.capture_pattern(ctx, &pattern);
    std::vector<uint32_t> positions;
    for (size_t p = 0; p < pattern.size(); ++p) {
      if (pattern[p] != 0) positions.push_back(static_cast<uint32_t>(p));
    }
    const double k0 = now_s();
    const double assemble_s =
        per_call_seconds([&] { mna.assemble_sparse(ctx, positions); }, batch_s);
    rotsv::LuFactorization lu;
    lu.refactor(mna.jacobian(), pattern.data());
    rotsv::Vector x;
    const double lu_s = per_call_seconds(
        [&] {
          lu.refactor(mna.jacobian(), pattern.data());
          x = mna.rhs();
          lu.solve_in_place(x);
        },
        batch_s);
    const rotsv::MosModelCard& card = rotsv::ptm45lp_nmos();
    const rotsv::MosDerived derived = rotsv::ekv_derive(card, rotsv::MosInstanceParams{});
    double vg = 0.3;
    double sink = 0.0;
    const double ekv_s = per_call_seconds(
        [&] {
          vg = vg > 0.8 ? 0.3 : vg + 1e-7;
          sink += rotsv::ekv_evaluate(card, derived, vg, cfg.vdd, 0.0).id;
        },
        batch_s);
    log->add("kernels", k0, now_s(), parent);
    out->check(std::isfinite(sink), "EKV probe produced a non-finite current");
    m->add("sim.mna_assemble_us", 1e6 * assemble_s, "us");
    m->add("linalg.lu_refactor_solve_us", 1e6 * lu_s, "us");
    m->add("models.ekv_eval_ns", 1e9 * ekv_s, "ns");
    // Computed, not measured: the Newton kernels' share of a step if every
    // iteration costs one assembly plus one refactor/solve.
    m->add("sim.kernel_share_computed", iters_per_step * 1e6 * (assemble_s + lu_s) / us_per_step,
           "fraction");
  }

  // --- result stores ----------------------------------------------------------
  const std::string jsonl_path = in.scratch_dir + "/probe.jsonl";
  const std::string rcs_path = in.scratch_dir + "/probe.rcs";
  {
    const size_t n = std::min<size_t>(records.size(), in.smoke ? 64 : 512);
    auto store = rotsv::CampaignResultStore::create(jsonl_path, spec);
    const double t0 = now_s();
    for (size_t i = 0; i < n; ++i) store->append(records[i]);
    const double t1 = now_s();
    std::vector<double> syncs;
    for (int i = 0; i < 5; ++i) {
      store->append(records[static_cast<size_t>(i) % n]);
      const double s0 = now_s();
      store->sync();
      syncs.push_back(now_s() - s0);
    }
    log->add("campaign.store", t0, now_s(), parent);
    m->add("campaign.store_append_us", 1e6 * (t1 - t0) / static_cast<double>(n), "us");
    m->add("campaign.store_sync_ms", 1e3 * median(syncs), "ms");
  }
  {
    const double n = static_cast<double>(records.size());
    auto writer = rotsv::ColStoreWriter::create(rcs_path, spec);
    const double t0 = now_s();
    for (const DieResult& r : records) writer->append(r);
    const double t1 = now_s();
    writer->finish();
    writer.reset();
    const double bytes = static_cast<double>(std::filesystem::file_size(rcs_path));

    rotsv::ColStoreReadResult recovered;
    const double o0 = now_s();
    auto reopened = rotsv::ColStoreWriter::open_append(rcs_path, spec, &recovered);
    probe.colstore_open_s = now_s() - o0;
    reopened->finish();
    reopened.reset();
    out->check(recovered.records.size() == records.size() &&
                   record_digest(recovered.records) == record_digest(records),
               "colstore probe does not read back what was appended");

    size_t scanned = 0;
    const double s0 = now_s();
    rotsv::scan_colstore(rcs_path, [&](const DieResult&) { ++scanned; });
    const double scan_s = now_s() - s0;
    log->add("serve.colstore", t0, now_s(), parent);
    m->add("serve.colstore_append_us", 1e6 * (t1 - t0) / n, "us");
    m->add("serve.colstore_open_ms", 1e3 * probe.colstore_open_s, "ms");
    m->add("serve.colstore_scan_dice_per_s", static_cast<double>(scanned) / scan_s, "dice/s");
    m->add("serve.colstore_bytes_per_die", bytes / n, "bytes");
  }

  // --- verdict frames over a socketpair ---------------------------------------
  {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw rotsv::IoError("probe: socketpair failed");
    }
    const rotsv::UniqueFd tx(fds[0]);
    const rotsv::UniqueFd rx(fds[1]);
    const size_t n = std::min<size_t>(records.size(), 4096);
    constexpr size_t kChunk = 64;  // stays far below the socket buffer
    double encode_s = 0.0;
    double decode_s = 0.0;
    double bytes = 0.0;
    bool same = true;
    const double t0 = now_s();
    for (size_t base = 0; base < n; base += kChunk) {
      const size_t end = std::min(n, base + kChunk);
      const double e0 = now_s();
      for (size_t i = base; i < end; ++i) {
        rotsv::send_message(tx.get(), rotsv::MsgType::kVerdict,
                            rotsv::die_result_to_record(records[i]));
      }
      const double d0 = now_s();
      for (size_t i = base; i < end; ++i) {
        rotsv::MsgType type{};
        rotsv::JsonRecord body;
        same = rotsv::recv_message(rx.get(), &type, &body) && same;
        same = rotsv::die_result_from_record(body).die == records[i].die && same;
      }
      decode_s += now_s() - d0;
      encode_s += d0 - e0;
    }
    for (size_t i = 0; i < n; ++i) {
      rotsv::Frame frame;
      frame.type = static_cast<uint8_t>(rotsv::MsgType::kVerdict);
      frame.payload = rotsv::die_result_to_record(records[i]).to_json();
      bytes += static_cast<double>(rotsv::encode_frame(frame).size());
    }
    log->add("serve.frames", t0, now_s(), parent);
    out->check(same, "verdict frames did not round-trip");
    m->add("serve.frame_encode_us", 1e6 * encode_s / static_cast<double>(n), "us");
    m->add("serve.frame_decode_us", 1e6 * decode_s / static_cast<double>(n), "us");
    m->add("serve.bytes_per_verdict", bytes / static_cast<double>(n), "bytes");
  }

  // --- aggregation -------------------------------------------------------------
  {
    std::vector<double> times;
    for (int i = 0; i < 3; ++i) {
      const double t0 = now_s();
      const rotsv::CampaignAggregate agg = rotsv::aggregate_campaign(spec, records);
      times.push_back(now_s() - t0);
      log->add("campaign.aggregate", t0, now_s(), parent);
      out->check(agg.screened_dice == static_cast<int>(records.size()),
                 "aggregate lost dice");
    }
    probe.aggregate_s = median(times);
    m->add("campaign.aggregate_ms", 1e3 * probe.aggregate_s, "ms");
  }

  // --- serve overhead: one small lot in-process, then through a daemon --------
  {
    // Both sides install the bands calibrated above, so the ratio holds the
    // screening path only (calibration is core.calibrate_s either way).
    CampaignSpec lot = spec;
    lot.lot_id += "-probe";
    lot.wafers = 1;
    lot.rows = lot.cols = std::min(spec.rows, in.smoke ? 1 : 4);
    lot.preset_bands = probe.bands;
    const double t0 = now_s();
    const rotsv::CampaignReport local = rotsv::run_campaign(lot);
    const double t1 = now_s();

    std::vector<DieResult> served;
    Daemon daemon(in.daemon);
    double serve_s = 0.0;
    {
      rotsv::ServeClient client(daemon.address());
      const double s0 = now_s();
      client.submit_and_stream(lot, [&](const DieResult& d) { served.push_back(d); });
      serve_s = now_s() - s0;
      client.shutdown();
    }
    daemon.wait();
    log->add("serve.overhead_probe", t0, now_s(), parent);
    out->check(verdict_digest(served) == verdict_digest(local.results),
               "serve and in-process verdicts differ on the probe lot");
    // Job wall-clock through the daemon (submit to job-done) over the same
    // job in-process: sharding, worker start-up, frames and the spool.
    m->add("serve.overhead_ratio", serve_s / (t1 - t0), "ratio");
  }

  std::filesystem::remove(jsonl_path);
  std::filesystem::remove(rcs_path);
  return probe;
}

}  // namespace rotsv_bench
