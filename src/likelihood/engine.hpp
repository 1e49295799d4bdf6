// The phylogenetic likelihood engine.
//
// Ties together the substrates: a pattern-compressed alignment, an unrooted
// binary tree, a substitution model with Γ rate heterogeneity, and — crucially
// — an AncestralStore. Every ancestral probability vector access goes through
// `store.acquire()`, so the same engine runs unchanged on top of the in-RAM
// baseline, the paper's out-of-core slot manager, or the paged baseline: the
// out-of-core functionality is "transparently encapsulated" exactly as
// Sec. 3.3 prescribes. The engine holds at most three vector leases at any
// time (a target and its two children), which is the paper's m >= 3
// constraint on RAM slots.
#pragma once

#include <span>
#include <vector>

#include "likelihood/kernels.hpp"
#include "likelihood/tip_states.hpp"
#include "model/eigen.hpp"
#include "model/gamma.hpp"
#include "ooc/storage.hpp"
#include "tree/traversal.hpp"
#include "tree/tree.hpp"

namespace plfoc {

inline constexpr double kMinBranchLength = 1e-8;
inline constexpr double kMaxBranchLength = 50.0;

struct ModelConfig {
  SubstitutionModel substitution;
  /// Γ rate categories (1 = rate homogeneity; the paper runs with 4).
  unsigned categories = 4;
  /// Γ shape parameter α.
  double alpha = 1.0;
};

class LikelihoodEngine {
 public:
  /// `alignment` must be pattern-compressed (or at least carry weights);
  /// `store` must have count == tree.num_inner() and
  /// width == vector_width(alignment, config.categories). All references
  /// must outlive the engine.
  LikelihoodEngine(const Alignment& alignment, Tree& tree, ModelConfig config,
                   AncestralStore& store);

  /// Doubles per ancestral vector: patterns × categories × states.
  static std::size_t vector_width(const Alignment& alignment,
                                  unsigned categories);

  Tree& tree() { return tree_; }
  const Tree& tree() const { return tree_; }
  AncestralStore& store() { return store_; }
  Orientation& orientation() { return orientation_; }
  const ModelConfig& config() const { return config_; }
  const std::vector<double>& gamma_rates() const { return rates_; }
  std::size_t patterns() const { return dims_.patterns; }
  unsigned states() const { return dims_.states; }

  /// Change the Γ shape parameter; invalidates every ancestral vector (the
  /// next evaluation is a full traversal, as the paper notes for model-
  /// parameter optimisation).
  void set_alpha(double alpha);
  /// Swap the substitution model (same data type); re-decomposes Q and
  /// invalidates every ancestral vector.
  void set_substitution_model(SubstitutionModel model);

  /// Notify the engine of a topology edit touching `at` (adjacency changed).
  void invalidate_topology_change(NodeId at) {
    invalidate_for_change(tree_, orientation_, at);
  }
  /// Notify the engine that branch (a, b) changed length.
  void invalidate_length_change(NodeId a, NodeId b) {
    invalidate_for_length_change(tree_, orientation_, a, b);
  }

  /// Run the pruning operations of a traversal descriptor.
  void execute(std::span<const TraversalStep> steps);

  /// Log likelihood evaluated across branch (a, b); plans and executes the
  /// partial traversal needed to validate both endpoint vectors.
  double log_likelihood(NodeId a, NodeId b);

  /// Log likelihood at the default root branch.
  double log_likelihood();
  /// Recompute *every* ancestral vector (the paper's -f z worst case), then
  /// evaluate. Equivalent to log_likelihood() after invalidating everything.
  double full_traversal_log_likelihood();

  /// Likelihood and branch-length derivatives across (a, b) at length t.
  /// Requires both endpoint vectors valid (call after plan/execute or use
  /// optimize_branch / log_likelihood first).
  BranchValue branch_value(NodeId a, NodeId b, double t, bool with_derivatives);

  /// Newton-Raphson optimisation of one branch length (Sec. 4.2: iterates
  /// access only the two vectors at the branch ends). Returns the log
  /// likelihood at the optimised length. With `update_invalidation` false the
  /// engine does NOT mark vectors containing the branch stale — callers that
  /// immediately roll the change back (lazy-SPR and NNI trials) restore the
  /// length and invalidate the vectors at the edited nodes themselves.
  double optimize_branch(NodeId a, NodeId b, int max_iterations = 32,
                         bool update_invalidation = true);

  /// One or more smoothing passes over all branches in tree-walk order.
  /// Returns the final log likelihood.
  double optimize_all_branches(int passes = 1);

  /// Attach (or detach with nullptr) a kernel-thread pool; the PLF kernels
  /// then run pattern-block parallel on its team. Results are bit-identical
  /// with and without a pool (see docs/parallelism.md). The pool must
  /// outlive the engine's kernel calls; the Session owns both.
  void attach_kernel_pool(KernelPool* pool) { kernel_pool_ = pool; }

  /// Attach a cancellation token (util/cancel.hpp), checked once per
  /// traversal step in execute(). Because plan_subtree marks orientation at
  /// PLAN time, a cancelled execute() re-invalidates the parents of every
  /// step it did not complete before rethrowing — completed steps stay
  /// valid, so a re-evaluation after cancellation resumes incrementally and
  /// stays bit-identical to an uninterrupted run.
  void set_cancel_token(CancelToken token) { cancel_ = std::move(token); }

  /// Per-pattern scaling counters of an inner node (RAM-resident; see
  /// DESIGN.md — they are <= 1/32 of vector memory under DNA Γ4).
  std::span<const std::int32_t> scale_counts(NodeId inner) const;

  /// Self-healing backend for AncestralStore::RecoveryHook: recompute the
  /// ancestral vector `index` into `dst` (store width doubles) by one
  /// Felsenstein pruning step over its current children, exactly as the
  /// interrupted traversal would have produced it (same child order, same
  /// kernel pool — bit-identical). Child vectors are acquired through the
  /// store, so a corrupt child heals recursively (bounded by tree height;
  /// tips are always RAM-resident). Returns 1 on success, 0 when the record
  /// is not recomputable: the node's orientation is invalid (its content was
  /// never defined), a child summarises the wrong direction, or a child
  /// acquire fails (nested unrecoverable corruption, pinned-slot exhaustion,
  /// I/O retry exhaustion). A CancelledError propagates instead. Uses only
  /// local scratch — the engine's member buffers belong to the interrupted
  /// operation's stack frame. The store also calls it to rebuild a dropped
  /// cherry, which execute() marks with AncestralStore::mark_rebuildable.
  std::uint64_t recover_vector(std::uint32_t index, double* dst);

 private:
  void rebuild_eigen();
  std::uint32_t vector_index(NodeId inner) const {
    return tree_.inner_index(inner);
  }
  std::int32_t* scale_data(NodeId inner) {
    return scale_counts_.data() +
           static_cast<std::size_t>(tree_.inner_index(inner)) * dims_.patterns;
  }
  /// Evaluate across (a, b), assuming valid endpoint vectors.
  BranchValue evaluate_at(NodeId a, NodeId b, double t, bool with_derivatives);
  /// execute()'s loop body; bumps `completed` after each finished step so
  /// the catch block knows which planned parents never materialised.
  void execute_steps(std::span<const TraversalStep> steps,
                     std::size_t& completed);
  void collect_edges_tree_walk(std::vector<std::pair<NodeId, NodeId>>& out);

  const Alignment& alignment_;
  Tree& tree_;
  ModelConfig config_;
  AncestralStore& store_;
  TipStates tips_;
  KernelDims dims_;
  EigenSystem eigen_;
  std::vector<double> rates_;
  std::vector<double> weights_;
  Orientation orientation_;
  std::vector<std::int32_t> scale_counts_;  ///< num_inner × patterns
  KernelPool* kernel_pool_ = nullptr;
  CancelToken cancel_;  ///< null by default: per-step checks are free

  // Scratch buffers reused across operations (sized on first use).
  std::vector<double> pmat_left_;
  std::vector<double> pmat_right_;
  std::vector<double> dmat_;
  std::vector<double> d2mat_;
  std::vector<double> lookup_left_;
  std::vector<double> lookup_right_;
};

}  // namespace plfoc
