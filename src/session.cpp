#include "session.hpp"

#include <string>

#include "ooc/mmap_store.hpp"
#include "util/checks.hpp"
#include "util/timer.hpp"

namespace plfoc {
namespace {

Alignment prepare_alignment(Alignment alignment, bool compress) {
  if (!compress || !alignment.weights().empty()) return alignment;
  return compress_patterns(alignment).compressed;
}

}  // namespace

void SessionOptions::validate() const {
  PLFOC_REQUIRE(threads <= kMaxThreads,
                "threads must be at most " + std::to_string(kMaxThreads) +
                    ", got " + std::to_string(threads));
  PLFOC_REQUIRE(ram_fraction >= 0.0, "ram_fraction must not be negative");
  const bool has_fraction = ram_fraction > 0.0;
  const bool has_budget = ram_budget_bytes > 0;
  switch (backend) {
    case Backend::kOutOfCore:
      PLFOC_REQUIRE(has_fraction || has_budget,
                    "out-of-core backend needs exactly one of ram_fraction / "
                    "ram_budget_bytes; neither is set");
      PLFOC_REQUIRE(!(has_fraction && has_budget),
                    "out-of-core backend needs exactly one of ram_fraction / "
                    "ram_budget_bytes; both are set");
      break;
    case Backend::kPaged:
      PLFOC_REQUIRE(has_budget, "paged backend needs ram_budget_bytes");
      PLFOC_REQUIRE(!has_fraction,
                    "paged backend takes ram_budget_bytes, not ram_fraction");
      break;
    case Backend::kInRam:
    case Backend::kMmap:
      break;  // memory-limit fields are ignored by these backends
  }
}

Session::Session(Alignment alignment, Tree tree, SubstitutionModel model,
                 SessionOptions options)
    : options_(std::move(options)),
      alignment_(prepare_alignment(std::move(alignment),
                                   options_.compress_patterns)),
      tree_(std::move(tree)) {
  options_.validate();
  const std::size_t count = tree_.num_inner();
  const std::size_t width =
      LikelihoodEngine::vector_width(alignment_, options_.categories);

  switch (options_.backend) {
    case Backend::kInRam: {
      store_ = std::make_unique<InRamStore>(count, width);
      break;
    }
    case Backend::kOutOfCore: {
      OocStoreOptions ooc;
      if (options_.ram_fraction > 0.0) {
        ooc.num_slots =
            OocStoreOptions::slots_from_fraction(options_.ram_fraction, count);
      } else {
        ooc.num_slots = OocStoreOptions::slots_from_budget(
            options_.ram_budget_bytes, width);
      }
      ooc.policy = options_.policy;
      ooc.read_skipping = options_.read_skipping;
      ooc.write_back_clean = options_.write_back_clean;
      ooc.drop_rebuildable = options_.recompute_cherries;
      ooc.disk_precision = options_.single_precision_disk
                               ? DiskPrecision::kSingle
                               : DiskPrecision::kDouble;
      ooc.seed = options_.seed;
      ooc.tree = &tree_;
      ooc.file.base_path = options_.vector_file.empty()
                               ? temp_vector_file_path("ooc")
                               : options_.vector_file;
      ooc.file.num_files = options_.num_files;
      ooc.file.device = options_.device;
      ooc.file.faults = options_.faults;
      ooc.file.retry = options_.io_retry;
      ooc.file.io_engine = options_.io_engine;
      ooc.file.io_depth = options_.io_depth;
      ooc.file.io_permute_seed = options_.io_permute_seed;
      ooc.file.direct_io = options_.direct_io;
      ooc.file.shared_engine = options_.shared_aio_engine;
      store_ = std::make_unique<OutOfCoreStore>(count, width, std::move(ooc));
      break;
    }
    case Backend::kPaged: {
      PagedStoreOptions paged;
      paged.budget_bytes = options_.ram_budget_bytes;
      paged.page_bytes = options_.page_bytes;
      paged.file.base_path = options_.vector_file.empty()
                                 ? temp_vector_file_path("paged")
                                 : options_.vector_file;
      paged.file.device = options_.device;
      paged.file.faults = options_.faults;
      paged.file.retry = options_.io_retry;
      paged.file.io_engine = options_.io_engine;
      paged.file.io_depth = options_.io_depth;
      paged.file.io_permute_seed = options_.io_permute_seed;
      paged.file.direct_io = options_.direct_io;
      paged.file.shared_engine = options_.shared_aio_engine;
      store_ = std::make_unique<PagedStore>(count, width, std::move(paged));
      break;
    }
    case Backend::kMmap: {
      MmapStoreOptions mm;
      mm.file_path = options_.vector_file.empty()
                         ? temp_vector_file_path("mmap")
                         : options_.vector_file;
      store_ = std::make_unique<MmapStore>(count, width, std::move(mm));
      break;
    }
  }

  ModelConfig config;
  config.substitution = std::move(model);
  config.categories = options_.categories;
  config.alpha = options_.alpha;
  engine_ = std::make_unique<LikelihoodEngine>(alignment_, tree_,
                                               std::move(config), *store_);
  if (options_.threads > 1) {
    kernel_pool_ = std::make_unique<KernelPool>(options_.threads);
    engine_->attach_kernel_pool(kernel_pool_.get());
  }
  // Self-healing seam: a corrupt record found at swap-in is recomputed from
  // its children via the Felsenstein recurrence instead of failing the run.
  // The out-of-core store also rebuilds dropped cherries through it.
  store_->set_recovery_hook([this](std::uint32_t index, double* dst) {
    return engine_->recover_vector(index, dst);
  });

  if (options_.cancel.valid()) set_cancel_token(options_.cancel);
}

void Session::set_cancel_token(CancelToken token) {
  options_.cancel = token;
  store_->set_cancel_token(token);
  if (kernel_pool_) kernel_pool_->set_cancel_token(token);
  engine_->set_cancel_token(token);
}

Session::~Session() {
  // The hook captures `this` and dispatches into engine_; drop it before the
  // members it reaches through are torn down.
  if (store_) store_->set_recovery_hook(nullptr);
}

EvalResult Session::evaluate() {
  Timer timer;
  EvalResult result;
  result.log_likelihood = engine_->log_likelihood();
  result.wall_seconds = timer.seconds();
  // Snapshot, not stats(): it waits for the queued write-behinds, so the
  // counters include them.
  result.stats = store_->stats_snapshot();
  return result;
}

}  // namespace plfoc
