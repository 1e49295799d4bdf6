#include "msa/fasta.hpp"

#include <fstream>

#include "util/checks.hpp"

namespace plfoc {
namespace {

// std::isspace in the "C" locale, without the locale lookup per character.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

Alignment read_fasta(std::istream& in, DataType type) {
  std::vector<std::string> names;
  std::vector<std::string> seqs;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t end = line.size();
    std::size_t begin = 0;
    while (begin < end && is_space(line[begin])) ++begin;
    if (begin == end) continue;
    if (line[begin] == '>') {
      // Header: taxon name is the first whitespace-delimited token.
      std::size_t first = begin + 1;
      while (first < end && is_space(line[first])) ++first;
      std::size_t last = first;
      while (last < end && !is_space(line[last])) ++last;
      PLFOC_REQUIRE(last > first, "FASTA header with empty name");
      names.emplace_back(line, first, last - first);
      seqs.emplace_back();
    } else {
      PLFOC_REQUIRE(!names.empty(), "FASTA sequence data before first header");
      // Append the whitespace-free spans of the line.
      std::string& seq = seqs.back();
      for (std::size_t pos = begin; pos < end;) {
        std::size_t stop = pos;
        while (stop < end && !is_space(line[stop])) ++stop;
        seq.append(line, pos, stop - pos);
        pos = stop;
        while (pos < end && is_space(line[pos])) ++pos;
      }
    }
  }
  PLFOC_REQUIRE(!names.empty(), "empty FASTA input");
  const std::size_t sites = seqs.front().size();
  PLFOC_REQUIRE(sites > 0, "first FASTA sequence is empty");
  Alignment alignment(type, sites);
  for (std::size_t i = 0; i < names.size(); ++i)
    alignment.add_sequence(names[i], seqs[i]);
  return alignment;
}

Alignment read_fasta_file(const std::string& path, DataType type) {
  std::ifstream in(path);
  PLFOC_REQUIRE(in.good(), "cannot open FASTA file '" + path + "'");
  return read_fasta(in, type);
}

void write_fasta(std::ostream& out, const Alignment& alignment,
                 std::size_t wrap) {
  for (std::size_t taxon = 0; taxon < alignment.num_taxa(); ++taxon) {
    out << '>' << alignment.name(taxon) << '\n';
    const std::string text = alignment.text(taxon);
    if (wrap == 0) {
      out << text << '\n';
    } else {
      for (std::size_t pos = 0; pos < text.size(); pos += wrap)
        out << text.substr(pos, wrap) << '\n';
    }
  }
}

void write_fasta_file(const std::string& path, const Alignment& alignment,
                      std::size_t wrap) {
  std::ofstream out(path);
  PLFOC_REQUIRE(out.good(), "cannot open '" + path + "' for writing");
  write_fasta(out, alignment, wrap);
  out.flush();
  PLFOC_REQUIRE(out.good(), "cannot write '" + path + "'");
}

}  // namespace plfoc
