// The Sec. 3.1 memory arithmetic, as code.
//
// Ancestral probability vectors dominate PLF memory: (n-2) vectors of
// sites × categories × states doubles. The paper's worked example —
// n = s = 10,000 DNA, Γ4 — gives 9,998 vectors of 1.28 MB. These helpers are
// used by the dataset planner (choose s for a target footprint, Fig. 5), by
// the -L-style slot budgeting, and by the memory_model bench that prints the
// paper's table of formulas.
#pragma once

#include <cstdint>

#include "msa/datatype.hpp"

namespace plfoc {

struct MemoryModel {
  std::size_t num_taxa = 0;
  std::size_t num_sites = 0;  ///< patterns after compression
  unsigned states = 4;
  unsigned categories = 4;

  /// Doubles in one ancestral probability vector.
  std::uint64_t vector_width() const {
    return static_cast<std::uint64_t>(num_sites) * categories * states;
  }
  /// Bytes in one ancestral probability vector (the slot width w).
  std::uint64_t vector_bytes() const { return vector_width() * 8; }
  /// Number of ancestral vectors: n - 2.
  std::uint64_t vector_count() const { return num_taxa - 2; }
  /// Total bytes of all ancestral vectors: (n-2) * 8 * states*cats * s.
  std::uint64_t ancestral_bytes() const {
    return vector_count() * vector_bytes();
  }
  /// Bytes for tip sequences (1 code byte per site per taxon; the paper
  /// packs 8 nucleotides in a 32-bit int, either way tips are negligible).
  std::uint64_t tip_bytes() const {
    return static_cast<std::uint64_t>(num_taxa) * num_sites;
  }
  /// RAM-resident per-site scaling counters: (n-2) * s * 4 bytes.
  std::uint64_t scale_counter_bytes() const {
    return vector_count() * num_sites * 4;
  }

  // --- Aggregate-budget helpers -------------------------------------------
  // Used by the service scheduler (src/service/scheduler.hpp) to arbitrate a
  // single global RAM budget across concurrently running jobs: each job's
  // slot-memory demand is computed from its geometry before its Session is
  // built, charged against the budget while it runs, and released when it
  // finishes. When `num_sites` is the *uncompressed* site count, the values
  // are conservative upper bounds on the store's actual allocation (pattern
  // compression only shrinks the vector width).

  /// The write-behind buffers an out-of-core store allocates on top of its
  /// slots (OutOfCoreStore::kWriteBehindBuffers vectors).
  std::uint64_t write_behind_bytes() const;
  /// Vector memory of an out-of-core store with `slots` RAM slots: the
  /// slots plus the write-behind buffers.
  std::uint64_t ooc_slot_bytes(std::size_t slots) const {
    return static_cast<std::uint64_t>(slots) * vector_bytes() +
           write_behind_bytes();
  }
  /// Smallest admissible out-of-core footprint: the m >= 3 slot minimum.
  std::uint64_t min_ooc_bytes() const { return ooc_slot_bytes(3); }
  /// Slot memory implied by the paper's fraction parameter f
  /// (m = max(3, round(f * (n-2))); matches OocStoreOptions).
  std::uint64_t ooc_bytes_for_fraction(double fraction) const;
  /// Smallest paged-store budget that satisfies its 3-vector working-set
  /// requirement (see PagedStore's constructor check).
  std::uint64_t min_paged_bytes(std::size_t page_bytes = 4096) const {
    const std::uint64_t pages_per_vector =
        (vector_bytes() + page_bytes - 1) / page_bytes + 1;
    return (3 * pages_per_vector + 2) * page_bytes;
  }

  static MemoryModel dna(std::size_t taxa, std::size_t sites,
                         unsigned categories = 4) {
    return {taxa, sites, 4, categories};
  }
  static MemoryModel protein(std::size_t taxa, std::size_t sites,
                             unsigned categories = 4) {
    return {taxa, sites, 20, categories};
  }
};

}  // namespace plfoc
