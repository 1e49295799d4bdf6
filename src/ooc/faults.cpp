#include "ooc/faults.hpp"

#include <cstring>
#include <sstream>
#include <vector>

#include "util/hash.hpp"

namespace plfoc {
namespace {

double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

unsigned parse_kind_token(const std::string& token) {
  if (token == "short") return kFaultShort;
  if (token == "eintr") return kFaultEintr;
  if (token == "eio") return kFaultEio;
  if (token == "enospc") return kFaultEnospc;
  if (token == "latency") return kFaultLatency;
  if (token == "all") return kFaultAllErrors | kFaultLatency;
  throw Error("bad fault kind '" + token +
              "' (short | eintr | eio | enospc | latency | all)");
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const unsigned long long parsed = std::stoull(value, &used);
    if (used == value.size()) return parsed;
  } catch (const std::exception&) {
  }
  throw Error("bad integer value '" + value + "' for fault key " + key);
}

double parse_prob(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used == value.size() && parsed >= 0.0 && parsed <= 1.0) return parsed;
  } catch (const std::exception&) {
  }
  throw Error("bad probability '" + value + "' for fault key " + key +
              " (expected a number in [0, 1])");
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kShortTransfer: return "short";
    case FaultKind::kEintr: return "eintr";
    case FaultKind::kEio: return "eio";
    case FaultKind::kEnospc: return "enospc";
    case FaultKind::kLatency: return "latency";
  }
  return "?";
}

const char* corruption_kind_name(CorruptionKind kind) {
  switch (kind) {
    case CorruptionKind::kNone: return "none";
    case CorruptionKind::kFlip: return "flip";
    case CorruptionKind::kZero: return "zero";
    case CorruptionKind::kTorn: return "torn";
    case CorruptionKind::kStale: return "stale";
  }
  return "?";
}

const char* FaultConfig::grammar() {
  return "seed=N,rate=P[,burst=K][,kinds=short|eintr|eio|enospc|latency|all]"
         "[,latency-ns=N][,flip=P][,torn=P][,zero=P][,stale=P][,nonce=N]";
}

FaultConfig FaultConfig::parse(const std::string& spec) {
  FaultConfig config;
  if (spec.empty()) return config;
  std::istringstream in(spec);
  std::string field;
  bool saw_rate = false;
  while (std::getline(in, field, ',')) {
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    PLFOC_REQUIRE(eq != std::string::npos && eq > 0,
                  "fault spec expects key=value, got '" + field + "'");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "seed") {
      config.seed = parse_u64(key, value);
    } else if (key == "rate") {
      config.rate = parse_prob(key, value);
      saw_rate = true;
    } else if (key == "burst") {
      config.burst = static_cast<unsigned>(parse_u64(key, value));
    } else if (key == "kinds") {
      config.kinds = 0;
      std::istringstream kinds(value);
      std::string token;
      while (std::getline(kinds, token, '|'))
        config.kinds |= parse_kind_token(token);
      PLFOC_REQUIRE(config.kinds != 0, "fault spec kinds= selected nothing");
    } else if (key == "latency-ns") {
      config.latency_ns = parse_u64(key, value);
    } else if (key == "flip") {
      config.flip_rate = parse_prob(key, value);
    } else if (key == "torn") {
      config.torn_rate = parse_prob(key, value);
    } else if (key == "zero") {
      config.zero_rate = parse_prob(key, value);
    } else if (key == "stale") {
      config.stale_rate = parse_prob(key, value);
    } else if (key == "nonce") {
      config.nonce = parse_u64(key, value);
    } else {
      throw Error("unknown fault spec key '" + key + "' (grammar: " +
                  std::string(FaultConfig::grammar()) + ")");
    }
  }
  PLFOC_REQUIRE(config.flip_rate + config.zero_rate <= 1.0,
                "fault spec flip= + zero= must not exceed 1");
  PLFOC_REQUIRE(config.torn_rate + config.stale_rate <= 1.0,
                "fault spec torn= + stale= must not exceed 1");
  PLFOC_REQUIRE(saw_rate || config.corruption_enabled(),
                "fault spec needs rate= or a corruption rate "
                "(e.g. seed=7,rate=0.05 or seed=7,rate=0,flip=0.01)");
  return config;
}

std::string FaultConfig::spec() const {
  std::ostringstream out;
  out << "seed=" << seed << ",rate=" << rate << ",burst=" << burst;
  if (kinds != kFaultAllErrors) {
    out << ",kinds=";
    bool first = true;
    const std::pair<unsigned, const char*> names[] = {
        {kFaultShort, "short"},
        {kFaultEintr, "eintr"},
        {kFaultEio, "eio"},
        {kFaultEnospc, "enospc"},
        {kFaultLatency, "latency"}};
    for (const auto& [bit, name] : names) {
      if (!(kinds & bit)) continue;
      if (!first) out << "|";
      out << name;
      first = false;
    }
  }
  if (latency_ns != 0) out << ",latency-ns=" << latency_ns;
  if (flip_rate != 0.0) out << ",flip=" << flip_rate;
  if (torn_rate != 0.0) out << ",torn=" << torn_rate;
  if (zero_rate != 0.0) out << ",zero=" << zero_rate;
  if (stale_rate != 0.0) out << ",stale=" << stale_rate;
  if (nonce != 0) out << ",nonce=" << nonce;
  return out.str();
}

IntegrityError::IntegrityError(const std::string& op, std::uint64_t index,
                               std::uint64_t expected_generation,
                               std::uint64_t found_generation, bool injected,
                               const std::string& detail)
    : Error(op + ": integrity failure on record " + std::to_string(index) +
            " (generation expected " + std::to_string(expected_generation) +
            ", found " + std::to_string(found_generation) + "): " + detail +
            (injected ? " [injected]" : "")),
      op_(op),
      index_(index),
      expected_generation_(expected_generation),
      found_generation_(found_generation),
      injected_(injected) {}

IoError::IoError(const std::string& op, int errno_value, std::uint64_t offset,
                 unsigned attempts, bool injected)
    : Error(op + " failed at offset " + std::to_string(offset) + " after " +
            std::to_string(attempts) +
            (attempts == 1 ? " attempt: " : " attempts: ") +
            std::strerror(errno_value) + (injected ? " [injected]" : "")),
      op_(op),
      errno_value_(errno_value),
      offset_(offset),
      attempts_(attempts),
      injected_(injected) {}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(config),
      base_(mix64(config.seed ^
                  mix64(config.nonce * 0xda942042e4dd58b5ull))) {}

FaultDecision FaultInjector::next(bool is_write, unsigned faults_so_far) {
  // Always advance the stream, even when the burst cap suppresses the fault:
  // the schedule position then depends only on how many syscalls ran, and a
  // replay with the same op sequence sees the same decisions.
  const std::uint64_t k = op_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = mix64(base_ ^ (k * 0x2545f4914f6cdd1dull));
  if (faults_so_far >= config_.burst) return {};
  if (to_unit(h) >= config_.rate) return {};

  // Draw the kind from the enabled set; the sub-hash keeps the choice
  // independent of the fire/no-fire draw above.
  std::vector<FaultKind> enabled;
  enabled.reserve(5);
  if (config_.kinds & kFaultShort) enabled.push_back(FaultKind::kShortTransfer);
  if (config_.kinds & kFaultEintr) enabled.push_back(FaultKind::kEintr);
  if (config_.kinds & kFaultEio) enabled.push_back(FaultKind::kEio);
  if ((config_.kinds & kFaultEnospc) && is_write)
    enabled.push_back(FaultKind::kEnospc);
  if ((config_.kinds & kFaultLatency) && config_.latency_ns != 0)
    enabled.push_back(FaultKind::kLatency);
  if (enabled.empty()) return {};

  const std::uint64_t sub = mix64(h);
  FaultDecision decision;
  decision.kind = enabled[sub % enabled.size()];
  decision.fraction = to_unit(mix64(sub));
  return decision;
}

CorruptionDecision FaultInjector::next_corruption(bool is_write) {
  // Separate counter + distinct salt: the corruption stream neither consumes
  // nor perturbs the syscall-fault stream, so arming flip= does not change
  // which reads see transient EIO under the same seed.
  const std::uint64_t k =
      corruption_op_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h =
      mix64(base_ ^ 0x6c62272e07bb0142ull ^ (k * 0x9fb21c651e98df25ull));
  const double draw = to_unit(h);

  CorruptionDecision decision;
  if (is_write) {
    if (draw < config_.torn_rate) {
      decision.kind = CorruptionKind::kTorn;
    } else if (draw < config_.torn_rate + config_.stale_rate) {
      decision.kind = CorruptionKind::kStale;
    } else {
      return decision;
    }
  } else {
    if (draw < config_.flip_rate) {
      decision.kind = CorruptionKind::kFlip;
    } else if (draw < config_.flip_rate + config_.zero_rate) {
      decision.kind = CorruptionKind::kZero;
    } else {
      return decision;
    }
  }
  const std::uint64_t sub = mix64(h);
  decision.a = to_unit(sub);
  decision.b = to_unit(mix64(sub));
  return decision;
}

}  // namespace plfoc
