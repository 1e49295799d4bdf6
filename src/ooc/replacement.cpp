#include "ooc/replacement.hpp"

#include <cctype>
#include <limits>
#include <vector>

#include "tree/distances.hpp"
#include "util/checks.hpp"

namespace plfoc {
namespace {

class RandomStrategy final : public ReplacementStrategy {
 public:
  explicit RandomStrategy(std::uint64_t seed) : rng_(seed) {}

  std::uint32_t choose_victim(std::span<const std::uint32_t> candidates,
                              std::uint32_t /*requested*/) override {
    PLFOC_CHECK(!candidates.empty());
    return candidates[rng_.below(candidates.size())];
  }

  const char* name() const override { return "random"; }

 private:
  Rng rng_;
};

class LruStrategy final : public ReplacementStrategy {
 public:
  explicit LruStrategy(std::size_t vector_count)
      : last_access_(vector_count, 0) {}

  void on_access(std::uint32_t index) override {
    last_access_[index] = ++tick_;
  }

  std::uint32_t choose_victim(std::span<const std::uint32_t> candidates,
                              std::uint32_t /*requested*/) override {
    PLFOC_CHECK(!candidates.empty());
    std::uint32_t victim = candidates[0];
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t candidate : candidates)
      if (last_access_[candidate] < oldest) {
        oldest = last_access_[candidate];
        victim = candidate;
      }
    return victim;
  }

  const char* name() const override { return "lru"; }

 private:
  std::uint64_t tick_ = 0;
  std::vector<std::uint64_t> last_access_;
};

class LfuStrategy final : public ReplacementStrategy {
 public:
  explicit LfuStrategy(std::size_t vector_count)
      : frequency_(vector_count, 0) {}

  // Frequency counts live per residency (reset when a vector is loaded),
  // matching the paper's "list of m entries containing the access frequency".
  void on_load(std::uint32_t index) override { frequency_[index] = 0; }
  void on_access(std::uint32_t index) override { ++frequency_[index]; }

  std::uint32_t choose_victim(std::span<const std::uint32_t> candidates,
                              std::uint32_t /*requested*/) override {
    PLFOC_CHECK(!candidates.empty());
    std::uint32_t victim = candidates[0];
    std::uint64_t fewest = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t candidate : candidates)
      if (frequency_[candidate] < fewest) {
        fewest = frequency_[candidate];
        victim = candidate;
      }
    return victim;
  }

  const char* name() const override { return "lfu"; }

 private:
  std::vector<std::uint64_t> frequency_;
};

class TopologicalStrategy final : public ReplacementStrategy {
 public:
  explicit TopologicalStrategy(const Tree& tree) : tree_(tree) {}

  std::uint32_t choose_victim(std::span<const std::uint32_t> candidates,
                              std::uint32_t requested) override {
    PLFOC_CHECK(!candidates.empty());
    // One BFS from the requested node per miss — the "larger computational
    // overhead" the paper notes for this strategy (Sec. 4.1).
    const std::vector<std::uint32_t> dist =
        node_distances(tree_, tree_.inner_node(requested));
    std::uint32_t victim = candidates[0];
    std::uint32_t furthest = 0;
    for (std::uint32_t candidate : candidates) {
      const std::uint32_t d = dist[tree_.inner_node(candidate)];
      if (d > furthest) {
        furthest = d;
        victim = candidate;
      }
    }
    return victim;
  }

  const char* name() const override { return "topological"; }

 private:
  const Tree& tree_;
};

}  // namespace

const char* policy_name(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kRandom: return "random";
    case ReplacementPolicy::kLru: return "lru";
    case ReplacementPolicy::kLfu: return "lfu";
    case ReplacementPolicy::kTopological: return "topological";
  }
  return "?";
}

ReplacementPolicy parse_policy(const std::string& name) {
  std::string lowered = name;
  for (char& c : lowered)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lowered == "random") return ReplacementPolicy::kRandom;
  if (lowered == "lru") return ReplacementPolicy::kLru;
  if (lowered == "lfu") return ReplacementPolicy::kLfu;
  if (lowered == "topological") return ReplacementPolicy::kTopological;
  throw Error("unknown replacement policy '" + name +
              "' (expected one of: random, lru, lfu, topological)");
}

std::unique_ptr<ReplacementStrategy> make_strategy(
    const StrategyConfig& config) {
  PLFOC_REQUIRE(config.vector_count > 0,
                "replacement strategy needs the vector count");
  switch (config.policy) {
    case ReplacementPolicy::kRandom:
      return std::make_unique<RandomStrategy>(config.seed);
    case ReplacementPolicy::kLru:
      return std::make_unique<LruStrategy>(config.vector_count);
    case ReplacementPolicy::kLfu:
      return std::make_unique<LfuStrategy>(config.vector_count);
    case ReplacementPolicy::kTopological:
      PLFOC_REQUIRE(config.tree != nullptr,
                    "the topological strategy needs the tree");
      PLFOC_REQUIRE(config.tree->num_inner() == config.vector_count,
                    "topological strategy: tree size does not match the "
                    "vector count");
      return std::make_unique<TopologicalStrategy>(*config.tree);
  }
  throw Error("unknown replacement policy");
}

}  // namespace plfoc
