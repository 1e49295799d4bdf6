#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "host_speed.hpp"

namespace plfoc::e2e {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks every result against it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"msa.parse_s", "s"},
    {"search.start_tree_s", "s"},
    {"session.build_s", "s"},
    {"search.start_eval_s", "s"},
    {"search.smoothing_s", "s"},
    {"search.model_opt_s", "s"},
    {"search.spr_s", "s"},
    {"search.insertions_tried", "count"},
    {"search.moves_accepted", "count"},
    {"likelihood.self_s", "s"},
    {"likelihood.newview_ops", "count"},
    {"likelihood.newview_bytes", "B"},
    {"likelihood.inram_traversal_s", "s"},
    {"ooc.acquires", "count"},
    {"ooc.acquire_s", "s"},
    {"ooc.hits", "count"},
    {"ooc.hit_s", "s"},
    {"ooc.miss_noio", "count"},
    {"ooc.miss_noio_s", "s"},
    {"ooc.miss_write", "count"},
    {"ooc.miss_write_s", "s"},
    {"ooc.miss_read", "count"},
    {"ooc.miss_read_s", "s"},
    {"ooc.miss_rate", "ratio"},
    {"ooc.read_rate", "ratio"},
    {"ooc.read_skip_rate", "ratio"},
    {"ooc.evictions", "count"},
    {"ooc.file_reads", "count"},
    {"ooc.file_writes", "count"},
    {"ooc.bytes_read", "B"},
    {"ooc.bytes_written", "B"},
    {"ooc.io_ops", "count"},
    {"ooc.write_mib_per_s", "MiB/s"},
    {"net.overhead_ms_p50.low", "ms"},
    {"net.overhead_ms_p99.low", "ms"},
    {"service.queue_wait_ms_p50.low", "ms"},
    {"service.queue_wait_ms_p99.low", "ms"},
    {"service.job_wall_ms_p50.low", "ms"},
    {"service.job_wall_ms_p99.low", "ms"},
    {"cache.hit_rate.low", "ratio"},
    {"cache.coalesced.low", "count"},
    {"client.send_lag_ms_p99.low", "ms"},
    {"net.overhead_ms_p50.high", "ms"},
    {"net.overhead_ms_p99.high", "ms"},
    {"service.queue_wait_ms_p50.high", "ms"},
    {"service.queue_wait_ms_p99.high", "ms"},
    {"service.job_wall_ms_p50.high", "ms"},
    {"service.job_wall_ms_p99.high", "ms"},
    {"cache.hit_rate.high", "ratio"},
    {"cache.coalesced.high", "count"},
    {"client.send_lag_ms_p99.high", "ms"},
    {"trace.overhead", "ratio"},
};

bool in_table(const MetricSpec* begin, const MetricSpec* end,
              const std::string& name) {
  return std::any_of(begin, end,
                     [&](const MetricSpec& spec) { return name == spec.name; });
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // A small epsilon keeps p·n from rounding up past an exact rank
  // (0.5 * 10 must be rank 5, not 6).
  const auto rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

void Digest::add(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ull;
  }
}

void Digest::add_double(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add_u64(bits);
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

std::uint64_t unit_seed(std::uint64_t seed, std::uint64_t unit) {
  // splitmix64 of (seed, unit): neighbouring seeds give unrelated inputs.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + unit + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Report::metric(const std::string& name, double value) {
  if (!in_table(std::begin(kEndToEnd), std::end(kEndToEnd), name) &&
      !in_table(std::begin(kPerLayer), std::end(kPerLayer), name)) {
    std::fprintf(stderr, "plfoc_bench: unknown metric '%s'\n", name.c_str());
    std::abort();
  }
  metrics_[name] = value;
}

void Report::timings(const Timings& scaled, const Timings& raw,
                     double scale) {
  metric("setup_s", scaled.setup_s);
  metric("p50_ms", scaled.p50_ms);
  metric("throughput_per_s", scaled.throughput_per_s);
  info("host_scale", scale);
  info("raw.setup_s", raw.setup_s);
  info("raw.p50_ms", raw.p50_ms);
  info("raw.throughput_per_s", raw.throughput_per_s);
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, json_string(value));
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

void Report::fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "plfoc_bench: CHECK FAILED: %s\n", why.c_str());
}

void Report::print() {
  const MetricSpec* begin = trace_ ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* end = trace_ ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::string metrics;
  for (const MetricSpec* spec = begin; spec != end; ++spec) {
    auto it = metrics_.find(spec->name);
    if (it == metrics_.end() && !trace_)
      fail(std::string("end-to-end metric ") + spec->name + " was not measured");
    const double value = it == metrics_.end() ? 0.0 : it->second;
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(spec->name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(spec->unit) + "}";
  }

  std::string info = "{\"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) info += ", ";
    info += json_string(info_[i].first) + ": " + info_[i].second;
  }
  info += "}}";
  std::string result = "{\"correct\": ";
  result += correct_ ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted_);
  result += ", \"failed\": " + std::to_string(failed_);
  result += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n%s\n", info.c_str(), result.c_str());
  std::fflush(stdout);
}

}  // namespace plfoc::e2e
