// Relaxed PHYLIP reading and writing (the format RAxML consumes).
//
// Header line: "<num_taxa> <num_sites>". Body: sequential blocks of
// "<name> <sequence...>" where the sequence may be split across whitespace;
// interleaved files (continuation blocks without names) are also accepted.
#pragma once

#include <iosfwd>
#include <string>

#include "msa/alignment.hpp"

namespace plfoc {

Alignment read_phylip(std::istream& in, DataType type);
Alignment read_phylip_file(const std::string& path, DataType type);

void write_phylip(std::ostream& out, const Alignment& alignment);

}  // namespace plfoc
