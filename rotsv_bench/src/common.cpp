#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "util/strings.hpp"

namespace rotsv_bench {
namespace {

const Clock::time_point kEpoch = Clock::now();

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(uint64_t* h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void fnv_u64(uint64_t* h, uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  fnv_bytes(h, bytes, sizeof bytes);
}

std::vector<const rotsv::DieResult*> sorted_by_die(
    const std::vector<rotsv::DieResult>& results) {
  std::vector<const rotsv::DieResult*> order;
  order.reserve(results.size());
  for (const rotsv::DieResult& r : results) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const rotsv::DieResult* a, const rotsv::DieResult* b) {
              return a->die < b->die;
            });
  return order;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void MetricList::add(const std::string& name, double value, const std::string& unit) {
  items_.push_back({name, value, unit});
}

std::string MetricList::to_json() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    const Metric& m = items_[i];
    // JSON has no NaN: a metric that could not be measured reads as null
    // (main marks such a run incorrect).
    const std::string value =
        std::isfinite(m.value) ? rotsv::format("%.17g", m.value) : "null";
    out += rotsv::format("%s%s: {\"value\": %s, \"unit\": %s}", i ? ", " : "",
                         json_string(m.name).c_str(), value.c_str(),
                         json_string(m.unit).c_str());
  }
  return out + "}";
}

void RunOutcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

uint64_t verdict_digest(const std::vector<rotsv::DieResult>& results) {
  uint64_t h = kFnvOffset;
  for (const rotsv::DieResult* r : sorted_by_die(results)) {
    fnv_u64(&h, static_cast<uint64_t>(static_cast<uint32_t>(r->die)));
    const char verdict = rotsv::verdict_code(r->verdict);
    fnv_bytes(&h, &verdict, 1);
    fnv_bytes(&h, r->tsv_verdicts.data(), r->tsv_verdicts.size());
    fnv_bytes(&h, "|", 1);
    fnv_u64(&h, r->sim_steps);
  }
  return h;
}

uint64_t record_digest(const std::vector<rotsv::DieResult>& results) {
  uint64_t h = kFnvOffset;
  for (const rotsv::DieResult* r : sorted_by_die(results)) {
    const std::string text = rotsv::die_result_to_record(*r).to_json();
    fnv_bytes(&h, text.data(), text.size());
    fnv_bytes(&h, "\n", 1);
  }
  return h;
}

std::string hex64(uint64_t value) {
  return rotsv::format("%016llx", static_cast<unsigned long long>(value));
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : rotsv::format("/proc/%d/status", pid);
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace rotsv_bench
