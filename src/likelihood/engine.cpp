#include "likelihood/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "model/transition.hpp"
#include "util/checks.hpp"
#include "util/logging.hpp"

namespace plfoc {

std::size_t LikelihoodEngine::vector_width(const Alignment& alignment,
                                           unsigned categories) {
  return alignment.num_sites() * categories *
         num_states(alignment.data_type());
}

LikelihoodEngine::LikelihoodEngine(const Alignment& alignment, Tree& tree,
                                   ModelConfig config, AncestralStore& store)
    : alignment_(alignment),
      tree_(tree),
      config_(std::move(config)),
      store_(store),
      tips_(alignment, tree),
      dims_{alignment.num_sites(), config_.categories,
            num_states(alignment.data_type())},
      orientation_(tree),
      scale_counts_(tree.num_inner() * alignment.num_sites(), 0) {
  PLFOC_REQUIRE(config_.categories >= 1 && config_.categories <= 16,
                "1..16 rate categories supported");
  PLFOC_REQUIRE(config_.substitution.type == alignment.data_type(),
                "substitution model data type does not match the alignment");
  PLFOC_REQUIRE(store_.count() == tree.num_inner(),
                "store vector count must equal the number of inner nodes");
  PLFOC_REQUIRE(store_.width() == vector_width(alignment, config_.categories),
                "store vector width does not match patterns*categories*states");
  PLFOC_CHECK(tree.is_fully_connected());
  weights_.assign(alignment.num_sites(), 1.0);
  if (!alignment.weights().empty())
    weights_ = alignment.weights();
  rebuild_eigen();
}

void LikelihoodEngine::rebuild_eigen() {
  eigen_ = decompose(config_.substitution);
  rates_ = discrete_gamma_rates(config_.alpha, config_.categories);
}

void LikelihoodEngine::set_alpha(double alpha) {
  PLFOC_REQUIRE(alpha > 0.0, "alpha must be positive");
  config_.alpha = alpha;
  rates_ = discrete_gamma_rates(alpha, config_.categories);
  orientation_.invalidate_all();
}

void LikelihoodEngine::set_substitution_model(SubstitutionModel model) {
  PLFOC_REQUIRE(model.type == config_.substitution.type,
                "cannot change the data type of a live engine");
  config_.substitution = std::move(model);
  rebuild_eigen();
  orientation_.invalidate_all();
}

void LikelihoodEngine::execute(std::span<const TraversalStep> steps) {
  // Planning marked every step's parent as oriented (plan_subtree updates
  // Orientation at PLAN time), so an exception that stops this loop early —
  // a CancelledError from a check point, an unrecovered IoError — would
  // leave never-computed vectors marked valid. Track how far we got and
  // re-invalidate the unexecuted tail before rethrowing: completed steps
  // stay valid (their vectors really are on disk/RAM), so the next
  // evaluation resumes incrementally and stays bit-identical.
  std::size_t completed = 0;
  try {
    execute_steps(steps, completed);
  } catch (...) {
    for (std::size_t i = completed; i < steps.size(); ++i)
      orientation_.invalidate(steps[i].parent);
    throw;
  }
}

void LikelihoodEngine::execute_steps(std::span<const TraversalStep> steps,
                                     std::size_t& completed) {
  for (const TraversalStep& step : steps) {
    PLFOC_DCHECK(tree_.is_inner(step.parent));
    // Per-traversal-step cancellation point — the serial-path granularity
    // bound (with a kernel pool, run_blocks checks per pattern block too).
    cancel_.check();
    // Acquire order: children (reads) before the parent (write). Leases pin
    // all three vectors for the duration of the kernel — the paper's
    // requirement that the working triple resides in RAM.
    NewviewChild left{};
    NewviewChild right{};
    VectorLease left_lease;
    VectorLease right_lease;

    category_transition_matrices(eigen_, step.length_left, rates_, pmat_left_);
    category_transition_matrices(eigen_, step.length_right, rates_,
                                 pmat_right_);

    if (tree_.is_tip(step.left)) {
      tips_.build_branch_lookup(pmat_left_.data(), dims_.categories,
                                lookup_left_);
      left.codes = tips_.tip_codes(step.left);
      left.lookup = lookup_left_.data();
    } else {
      left_lease = store_.acquire(vector_index(step.left), AccessMode::kRead);
      left.vector = left_lease.data();
      left.scale_counts = scale_data(step.left);
      left.pmat = pmat_left_.data();
    }
    if (tree_.is_tip(step.right)) {
      tips_.build_branch_lookup(pmat_right_.data(), dims_.categories,
                                lookup_right_);
      right.codes = tips_.tip_codes(step.right);
      right.lookup = lookup_right_.data();
    } else {
      right_lease = store_.acquire(vector_index(step.right), AccessMode::kRead);
      right.vector = right_lease.data();
      right.scale_counts = scale_data(step.right);
      right.pmat = pmat_right_.data();
    }

    VectorLease parent_lease =
        store_.acquire(vector_index(step.parent), AccessMode::kWrite);
    // A cherry's vector depends on nothing the store holds, so
    // recover_vector can rebuild it from the tips more cheaply than the
    // store can write it back and read it again.
    if (left.codes != nullptr && right.codes != nullptr)
      store_.mark_rebuildable(vector_index(step.parent));
    newview(dims_, left, right, parent_lease.data(), scale_data(step.parent),
            kernel_pool_);
    ++completed;
  }
}

BranchValue LikelihoodEngine::evaluate_at(NodeId a, NodeId b, double t,
                                          bool with_derivatives) {
  PLFOC_CHECK(tree_.has_edge(a, b));
  // The near side contributes raw conditionals; the far side is propagated
  // across the branch. A tip end always goes near (cheap indicator gather):
  // evaluate_branch takes no tip on the far side.
  NodeId near = a;
  NodeId far = b;
  if (tree_.is_tip(far) && !tree_.is_tip(near)) std::swap(near, far);
  PLFOC_CHECK(!tree_.is_tip(far));  // n >= 3 has no tip-tip edges

  if (with_derivatives)
    category_transition_derivatives(eigen_, t, rates_, pmat_left_, dmat_,
                                    d2mat_);
  else
    category_transition_matrices(eigen_, t, rates_, pmat_left_);

  EvalSide near_side{};
  EvalSide far_side{};
  VectorLease near_lease;
  VectorLease far_lease;

  if (tree_.is_tip(near)) {
    near_side.codes = tips_.tip_codes(near);
    near_side.indicator = tips_.indicator(0);  // base of the indicator table
    // indicator(code) rows are contiguous: kernel indexes codes[p]*states.
  } else {
    near_lease = store_.acquire(vector_index(near), AccessMode::kRead);
    near_side.vector = near_lease.data();
    near_side.scale_counts = scale_data(near);
  }
  far_lease = store_.acquire(vector_index(far), AccessMode::kRead);
  far_side.vector = far_lease.data();
  far_side.scale_counts = scale_data(far);

  return evaluate_branch(dims_, config_.substitution.frequencies.data(),
                         weights_.data(), near_side, far_side,
                         pmat_left_.data(),
                         with_derivatives ? dmat_.data() : nullptr,
                         with_derivatives ? d2mat_.data() : nullptr,
                         with_derivatives, kernel_pool_);
}

double LikelihoodEngine::log_likelihood(NodeId a, NodeId b) {
  const std::vector<TraversalStep> steps =
      plan_for_branch(tree_, orientation_, a, b, /*full=*/false);
  execute(steps);
  return evaluate_at(a, b, tree_.branch_length(a, b), false).log_likelihood;
}

double LikelihoodEngine::log_likelihood() {
  const auto [a, b] = tree_.default_root_branch();
  return log_likelihood(a, b);
}

double LikelihoodEngine::full_traversal_log_likelihood() {
  const auto [a, b] = tree_.default_root_branch();
  const std::vector<TraversalStep> steps =
      plan_for_branch(tree_, orientation_, a, b, /*full=*/true);
  execute(steps);
  return evaluate_at(a, b, tree_.branch_length(a, b), false).log_likelihood;
}

BranchValue LikelihoodEngine::branch_value(NodeId a, NodeId b, double t,
                                           bool with_derivatives) {
  return evaluate_at(a, b, t, with_derivatives);
}

double LikelihoodEngine::optimize_branch(NodeId a, NodeId b,
                                         int max_iterations,
                                         bool update_invalidation) {
  // Validate the endpoint vectors once; Newton iterations then touch only
  // the two vectors at the branch ends (the paper's Sec. 4.2 locality).
  const std::vector<TraversalStep> steps =
      plan_for_branch(tree_, orientation_, a, b, /*full=*/false);
  execute(steps);

  const double t_initial = tree_.branch_length(a, b);
  double t = t_initial;
  double best_t = t;
  double best_ll = -std::numeric_limits<double>::infinity();
  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    const BranchValue value = evaluate_at(a, b, t, true);
    if (value.log_likelihood > best_ll) {
      best_ll = value.log_likelihood;
      best_t = t;
    }
    double next;
    if (value.d2 < 0.0) {
      next = t - value.d1 / value.d2;
    } else {
      // Not in a concave region: march in the uphill direction.
      next = value.d1 > 0.0 ? t * 2.0 : t * 0.5;
    }
    // Keep steps bounded and inside the admissible branch-length range.
    next = std::clamp(next, t / 8.0, t * 8.0);
    next = std::clamp(next, kMinBranchLength, kMaxBranchLength);
    if (std::abs(next - t) <= 1e-10 * (1.0 + t)) break;
    t = next;
  }
  if (best_t != t_initial) {
    tree_.set_branch_length(a, b, best_t);
    if (update_invalidation) invalidate_length_change(a, b);
  }
  return best_ll;
}

void LikelihoodEngine::collect_edges_tree_walk(
    std::vector<std::pair<NodeId, NodeId>>& out) {
  // Depth-first tree walk from the default root branch so consecutive
  // optimised branches are topologically adjacent (access locality).
  out.clear();
  out.reserve(tree_.num_edges());
  const auto [root_a, root_b] = tree_.default_root_branch();
  std::vector<std::pair<NodeId, NodeId>> stack;  // (node, parent)
  out.emplace_back(root_a, root_b);
  stack.emplace_back(root_a, root_b);
  stack.emplace_back(root_b, root_a);
  while (!stack.empty()) {
    const auto [node, parent] = stack.back();
    stack.pop_back();
    for (NodeId nbr : tree_.neighbors(node)) {
      if (nbr == parent) continue;
      out.emplace_back(node, nbr);
      stack.emplace_back(nbr, node);
    }
  }
  PLFOC_CHECK(out.size() == tree_.num_edges());
}

double LikelihoodEngine::optimize_all_branches(int passes) {
  PLFOC_CHECK(passes >= 1);
  double ll = -std::numeric_limits<double>::infinity();
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int pass = 0; pass < passes; ++pass) {
    collect_edges_tree_walk(edges);
    for (const auto& [a, b] : edges) ll = optimize_branch(a, b);
  }
  return ll;
}

std::uint64_t LikelihoodEngine::recover_vector(std::uint32_t index,
                                               double* dst) {
  const NodeId node = tree_.inner_node(index);
  const NodeId toward = orientation_.towards(node);
  // Unoriented, or oriented towards a former neighbour (after an NNI trial):
  // nothing to recover, and nothing a computation reads without recomputing.
  if (toward == kNoNode || !tree_.has_edge(node, toward)) return 0;

  // Same child enumeration as plan_subtree: neighbors order minus the parent,
  // so left/right keep their transition-matrix association and the recomputed
  // bytes match the originals bit for bit.
  NodeId children[2] = {kNoNode, kNoNode};
  int count = 0;
  for (NodeId nbr : tree_.neighbors(node))
    if (nbr != toward) children[count++] = nbr;
  PLFOC_CHECK(count == 2);
  for (NodeId child : children)
    if (tree_.is_inner(child) && !orientation_.valid_towards(child, node))
      return 0;  // child summarises another direction: recurrence undefined

  // Local scratch: the member pmat/lookup buffers are live in the interrupted
  // operation's frame (recovery runs from inside a store acquire).
  std::vector<double> pmat_left;
  std::vector<double> pmat_right;
  std::vector<double> lookup_left;
  std::vector<double> lookup_right;
  try {
    category_transition_matrices(
        eigen_, tree_.branch_length(node, children[0]), rates_, pmat_left);
    category_transition_matrices(
        eigen_, tree_.branch_length(node, children[1]), rates_, pmat_right);
    NewviewChild left{};
    NewviewChild right{};
    VectorLease left_lease;
    VectorLease right_lease;
    if (tree_.is_tip(children[0])) {
      tips_.build_branch_lookup(pmat_left.data(), dims_.categories,
                                lookup_left);
      left.codes = tips_.tip_codes(children[0]);
      left.lookup = lookup_left.data();
    } else {
      // May recurse into recovery of the child; recursion depth is bounded
      // by the tree height and each level pins at most two more vectors.
      left_lease = store_.acquire(vector_index(children[0]), AccessMode::kRead);
      left.vector = left_lease.data();
      left.scale_counts = scale_data(children[0]);
      left.pmat = pmat_left.data();
    }
    if (tree_.is_tip(children[1])) {
      tips_.build_branch_lookup(pmat_right.data(), dims_.categories,
                                lookup_right);
      right.codes = tips_.tip_codes(children[1]);
      right.lookup = lookup_right.data();
    } else {
      right_lease =
          store_.acquire(vector_index(children[1]), AccessMode::kRead);
      right.vector = right_lease.data();
      right.scale_counts = scale_data(children[1]);
      right.pmat = pmat_right.data();
    }
    // Scale counts are RAM-resident and recomputed to identical values.
    newview(dims_, left, right, dst, scale_data(node), kernel_pool_);
  } catch (const CancelledError&) {
    throw;  // the caller stopped the work: not a failed recomputation
  } catch (const Error&) {
    // Nested unrecoverable corruption, pinned-slot exhaustion, or I/O retry
    // exhaustion: report "not recomputable" and let the store throw typed.
    return 0;
  }
  return 1;
}

std::span<const std::int32_t> LikelihoodEngine::scale_counts(
    NodeId inner) const {
  PLFOC_CHECK(tree_.is_inner(inner));
  return {scale_counts_.data() +
              static_cast<std::size_t>(tree_.inner_index(inner)) *
                  dims_.patterns,
          dims_.patterns};
}

}  // namespace plfoc
