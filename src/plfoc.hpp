// plfoc — computing the phylogenetic likelihood function out-of-core.
//
// Umbrella header for the public API. Include individual headers for faster
// builds; this pulls in everything.
//
// Layering (bottom to top):
//   util/        RNG, aligned buffers, timers, logging, checks
//   msa/         alignments, FASTA/PHYLIP, encodings, pattern compression
//   tree/        unrooted binary trees, Newick, traversal descriptors, moves
//   model/       reversible models, eigendecomposition, P(t), discrete Γ
//   ooc/         the storage seam: in-RAM / out-of-core / paged backends,
//                replacement strategies, I/O statistics
//   likelihood/  the PLF engine (kernels, scaling, branch & model opt)
//   search/      parsimony, stepwise addition, lazy SPR, orchestration
//   sim/         sequence simulation and dataset planning
//   session.hpp  one-stop construction of a full analysis
//   service/     concurrent batch evaluation under a global memory budget
#pragma once

#include "likelihood/engine.hpp"       // IWYU pragma: export
#include "likelihood/memory_model.hpp" // IWYU pragma: export
#include "likelihood/model_opt.hpp"    // IWYU pragma: export
#include "model/eigen.hpp"             // IWYU pragma: export
#include "model/gamma.hpp"             // IWYU pragma: export
#include "model/protein_matrices.hpp"  // IWYU pragma: export
#include "model/rate_matrix.hpp"       // IWYU pragma: export
#include "model/transition.hpp"        // IWYU pragma: export
#include "msa/alignment.hpp"           // IWYU pragma: export
#include "msa/datatype.hpp"            // IWYU pragma: export
#include "msa/fasta.hpp"               // IWYU pragma: export
#include "msa/patterns.hpp"            // IWYU pragma: export
#include "msa/phylip.hpp"              // IWYU pragma: export
#include "ooc/inram_store.hpp"         // IWYU pragma: export
#include "ooc/mmap_store.hpp"            // IWYU pragma: export
#include "ooc/ooc_store.hpp"           // IWYU pragma: export
#include "ooc/paged_store.hpp"         // IWYU pragma: export
#include "ooc/replacement.hpp"         // IWYU pragma: export
#include "ooc/stats.hpp"               // IWYU pragma: export
#include "ooc/storage.hpp"             // IWYU pragma: export
#include "search/mcmc.hpp"             // IWYU pragma: export
#include "search/parsimony.hpp"        // IWYU pragma: export
#include "search/search.hpp"           // IWYU pragma: export
#include "search/spr.hpp"              // IWYU pragma: export
#include "search/stepwise.hpp"         // IWYU pragma: export
#include "service/job.hpp"             // IWYU pragma: export
#include "service/jobfile.hpp"         // IWYU pragma: export
#include "service/scheduler.hpp"       // IWYU pragma: export
#include "service/service.hpp"         // IWYU pragma: export
#include "service/worker_pool.hpp"     // IWYU pragma: export
#include "session.hpp"                 // IWYU pragma: export
#include "sim/dataset_planner.hpp"     // IWYU pragma: export
#include "sim/simulate.hpp"            // IWYU pragma: export
#include "tree/compare.hpp"            // IWYU pragma: export
#include "tree/distances.hpp"          // IWYU pragma: export
#include "tree/newick.hpp"             // IWYU pragma: export
#include "tree/random_tree.hpp"        // IWYU pragma: export
#include "tree/topology_moves.hpp"     // IWYU pragma: export
#include "tree/traversal.hpp"          // IWYU pragma: export
#include "tree/tree.hpp"               // IWYU pragma: export
#include "util/rng.hpp"                // IWYU pragma: export
#include "util/timer.hpp"              // IWYU pragma: export
