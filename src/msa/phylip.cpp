#include "msa/phylip.hpp"

#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "util/checks.hpp"

namespace plfoc {

namespace {

struct RawAlignment {
  std::vector<std::string> names;
  std::vector<std::string> seqs;
};

/// Sequential layout: after the name, tokens accumulate until the row holds
/// exactly num_sites characters, then the next name follows. Returns false
/// (without throwing) when the token stream cannot be sequential — a row
/// overflows num_sites or the file ends early — so the caller can retry with
/// the interleaved interpretation.
bool try_sequential(const std::vector<std::string>& tokens,
                    std::size_t num_taxa, std::size_t num_sites,
                    RawAlignment& out) {
  out.names.assign(num_taxa, "");
  out.seqs.assign(num_taxa, "");
  std::size_t cursor = 0;
  for (std::size_t taxon = 0; taxon < num_taxa; ++taxon) {
    if (cursor >= tokens.size()) return false;
    out.names[taxon] = tokens[cursor++];
    while (out.seqs[taxon].size() < num_sites) {
      if (cursor >= tokens.size()) return false;
      out.seqs[taxon] += tokens[cursor++];
    }
    if (out.seqs[taxon].size() != num_sites) return false;  // overflow
  }
  return cursor == tokens.size();
}

/// Interleaved layout: the first num_taxa non-empty lines are
/// "name fragment...", subsequent non-empty lines are bare fragments cycling
/// through the taxa in order.
RawAlignment parse_interleaved(const std::vector<std::vector<std::string>>& lines,
                               std::size_t num_taxa, std::size_t num_sites) {
  PLFOC_REQUIRE(lines.size() >= num_taxa,
                "PHYLIP: fewer data lines than taxa");
  RawAlignment out;
  out.names.resize(num_taxa);
  out.seqs.resize(num_taxa);
  for (std::size_t taxon = 0; taxon < num_taxa; ++taxon) {
    const auto& line = lines[taxon];
    PLFOC_REQUIRE(!line.empty(), "PHYLIP: empty taxon line");
    out.names[taxon] = line[0];
    for (std::size_t k = 1; k < line.size(); ++k) out.seqs[taxon] += line[k];
  }
  std::size_t taxon = 0;
  for (std::size_t row = num_taxa; row < lines.size(); ++row) {
    // Skip taxa whose rows are already complete (tolerates ragged blocks).
    std::size_t guard = 0;
    while (out.seqs[taxon].size() >= num_sites && guard++ <= num_taxa)
      taxon = (taxon + 1) % num_taxa;
    for (const std::string& fragment : lines[row]) out.seqs[taxon] += fragment;
    taxon = (taxon + 1) % num_taxa;
  }
  return out;
}

}  // namespace

Alignment read_phylip(std::istream& in, DataType type) {
  std::size_t num_taxa = 0;
  std::size_t num_sites = 0;
  in >> num_taxa >> num_sites;
  PLFOC_REQUIRE(in.good() && num_taxa >= 2 && num_sites >= 1,
                "malformed PHYLIP header (expected '<taxa> <sites>')");
  in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');

  // Tokenise the body, remembering line structure (interleaved needs it).
  std::vector<std::vector<std::string>> lines;
  std::vector<std::string> tokens;
  std::string line_text;
  while (std::getline(in, line_text)) {
    std::istringstream line_stream(line_text);
    std::vector<std::string> line_tokens;
    std::string token;
    while (line_stream >> token) line_tokens.push_back(token);
    if (line_tokens.empty()) continue;
    tokens.insert(tokens.end(), line_tokens.begin(), line_tokens.end());
    lines.push_back(std::move(line_tokens));
  }

  RawAlignment raw;
  if (!try_sequential(tokens, num_taxa, num_sites, raw))
    raw = parse_interleaved(lines, num_taxa, num_sites);

  Alignment alignment(type, num_sites);
  for (std::size_t i = 0; i < num_taxa; ++i) {
    PLFOC_REQUIRE(raw.seqs[i].size() == num_sites,
                  "PHYLIP: sequence for taxon '" + raw.names[i] + "' has " +
                      std::to_string(raw.seqs[i].size()) + " sites, expected " +
                      std::to_string(num_sites));
    alignment.add_sequence(raw.names[i], raw.seqs[i]);
  }
  return alignment;
}

Alignment read_phylip_file(const std::string& path, DataType type) {
  std::ifstream in(path);
  PLFOC_REQUIRE(in.good(), "cannot open PHYLIP file '" + path + "'");
  return read_phylip(in, type);
}

void write_phylip(std::ostream& out, const Alignment& alignment) {
  out << alignment.num_taxa() << ' ' << alignment.num_sites() << '\n';
  for (std::size_t taxon = 0; taxon < alignment.num_taxa(); ++taxon)
    out << alignment.name(taxon) << ' ' << alignment.text(taxon) << '\n';
}

}  // namespace plfoc
