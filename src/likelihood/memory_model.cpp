#include "likelihood/memory_model.hpp"

#include "ooc/ooc_store.hpp"

namespace plfoc {

// Defined out of line so the header does not pull in the ooc layer: the slot
// rounding and the write-behind buffers must match OutOfCoreStore exactly or
// the scheduler's charge and the store's allocation drift apart.

std::uint64_t MemoryModel::write_behind_bytes() const {
  return OutOfCoreStore::memory_bytes(0, vector_width());
}

std::uint64_t MemoryModel::ooc_bytes_for_fraction(double fraction) const {
  return ooc_slot_bytes(OocStoreOptions::slots_from_fraction(
      fraction, static_cast<std::size_t>(vector_count())));
}

}  // namespace plfoc
