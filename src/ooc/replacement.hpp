// Replacement strategies for the out-of-core slot manager (Sec. 3.3).
//
// When a requested vector is on disk and no slot is free, the strategy picks
// a resident, unpinned victim to swap out. The paper implements and compares
// four strategies:
//
//  * Random       — uniform choice, O(1), one RNG call;
//  * LRU          — evict the vector accessed furthest in the past;
//  * LFU          — evict the resident vector with the fewest accesses since
//                   it was (re)loaded (frequency state is per-residency, the
//                   "list of m entries" of the paper);
//  * Topological  — evict the vector whose node is most distant from the
//                   requested node in the current tree (node-path distance),
//                   on the rationale that the most distant vector will be
//                   needed furthest in the future.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "tree/tree.hpp"
#include "util/rng.hpp"

namespace plfoc {

enum class ReplacementPolicy { kRandom, kLru, kLfu, kTopological };

const char* policy_name(ReplacementPolicy policy);
/// Parse "random" / "lru" / "lfu" / "topological" (case-insensitive; the
/// error message lists the accepted names so jobfile/CLI diagnostics stay
/// actionable).
ReplacementPolicy parse_policy(const std::string& name);

/// Strategy callbacks are invoked by the slot manager under its lock; vector
/// identity is the dense ancestral-vector index (inner_index of the node).
class ReplacementStrategy {
 public:
  virtual ~ReplacementStrategy() = default;

  /// Every acquire of `index` (hit or just-completed load).
  virtual void on_access(std::uint32_t index) { (void)index; }
  /// `index` became resident.
  virtual void on_load(std::uint32_t index) { (void)index; }
  /// `index` was evicted.
  virtual void on_evict(std::uint32_t index) { (void)index; }

  /// Choose the victim among `candidates` (resident, unpinned, non-empty)
  /// given that vector `requested` is being brought in.
  virtual std::uint32_t choose_victim(std::span<const std::uint32_t> candidates,
                                      std::uint32_t requested) = 0;

  virtual const char* name() const = 0;
};

struct StrategyConfig {
  ReplacementPolicy policy = ReplacementPolicy::kRandom;
  std::size_t vector_count = 0;  ///< total number of ancestral vectors
  std::uint64_t seed = 1;        ///< Random strategy seed
  /// Topological strategy only: the live tree (vector index i corresponds to
  /// node tree->inner_node(i)). The tree must outlive the strategy and may
  /// change topology between calls (distances are recomputed per miss).
  const Tree* tree = nullptr;
};

std::unique_ptr<ReplacementStrategy> make_strategy(const StrategyConfig& config);

}  // namespace plfoc
