#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "msa/fasta.hpp"
#include "msa/phylip.hpp"
#include "util/checks.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

TEST(Fasta, ParsesSimpleInput) {
  std::istringstream in(">a\nACGT\n>b\nAC-T\n>c desc ignored\nTTTT\n");
  const Alignment alignment = read_fasta(in, DataType::kDna);
  EXPECT_EQ(alignment.num_taxa(), 3u);
  EXPECT_EQ(alignment.num_sites(), 4u);
  EXPECT_EQ(alignment.name(2), "c");
  EXPECT_EQ(alignment.text(0), "ACGT");
}

TEST(Fasta, JoinsWrappedLines) {
  std::istringstream in(">a\nAC\nGT\n>b\nACGT\n>c\nAAAA\n");
  const Alignment alignment = read_fasta(in, DataType::kDna);
  EXPECT_EQ(alignment.text(0), "ACGT");
}

TEST(Fasta, RejectsDataBeforeHeader) {
  std::istringstream in("ACGT\n>a\nACGT\n");
  EXPECT_THROW(read_fasta(in, DataType::kDna), Error);
}

TEST(Fasta, RejectsEmptyInput) {
  std::istringstream in("\n\n");
  EXPECT_THROW(read_fasta(in, DataType::kDna), Error);
}

TEST(Fasta, RejectsRaggedAlignment) {
  std::istringstream in(">a\nACGT\n>b\nAC\n");
  EXPECT_THROW(read_fasta(in, DataType::kDna), Error);
}

TEST(Fasta, RoundTripThroughWriter) {
  std::istringstream in(">a\nACGTACGT\n>b\nTTTTAAAA\n>c\nGGGGCCCC\n");
  const Alignment alignment = read_fasta(in, DataType::kDna);
  std::ostringstream out;
  write_fasta(out, alignment, 4);
  std::istringstream back(out.str());
  const Alignment again = read_fasta(back, DataType::kDna);
  ASSERT_EQ(again.num_taxa(), alignment.num_taxa());
  for (std::size_t i = 0; i < alignment.num_taxa(); ++i) {
    EXPECT_EQ(again.name(i), alignment.name(i));
    EXPECT_EQ(again.text(i), alignment.text(i));
  }
}

TEST(Fasta, ProteinParsing) {
  std::istringstream in(">a\nARND\n>b\nCQEG\n");
  const Alignment alignment = read_fasta(in, DataType::kProtein);
  EXPECT_EQ(alignment.text(1), "CQEG");
}

// Reference: the trim / substr / istringstream read_fasta the index-based
// scanner replaced. Both must accept the same texts with the same rows and
// reject the same texts with the same message.
std::string reference_trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  const auto space = [&](std::size_t i) {
    return std::isspace(static_cast<unsigned char>(s[i])) != 0;
  };
  while (begin < end && space(begin)) ++begin;
  while (end > begin && space(end - 1)) --end;
  return s.substr(begin, end - begin);
}

Alignment reference_read_fasta(std::istream& in, DataType type) {
  std::vector<std::string> names;
  std::vector<std::string> seqs;
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = reference_trim(line);
    if (t.empty()) continue;
    if (t[0] == '>') {
      std::istringstream header(t.substr(1));
      std::string name;
      header >> name;
      PLFOC_REQUIRE(!name.empty(), "FASTA header with empty name");
      names.push_back(name);
      seqs.emplace_back();
    } else {
      PLFOC_REQUIRE(!names.empty(), "FASTA sequence data before first header");
      for (char c : t)
        if (!std::isspace(static_cast<unsigned char>(c)))
          seqs.back().push_back(c);
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

struct Parsed {
  std::string error;  // empty when the text parsed
  std::vector<std::string> names;
  std::vector<std::vector<std::uint8_t>> rows;
};

template <typename Read>
Parsed parse_with(Read read, const std::string& text, DataType type) {
  std::istringstream in(text);
  Parsed parsed;
  try {
    const Alignment alignment = read(in, type);
    for (std::size_t t = 0; t < alignment.num_taxa(); ++t) {
      parsed.names.push_back(alignment.name(t));
      const auto row = alignment.row(t);
      parsed.rows.emplace_back(row.begin(), row.end());
    }
  } catch (const Error& e) {
    parsed.error = e.what();
    if (parsed.error.empty()) parsed.error = "<empty message>";
  }
  return parsed;
}

void expect_same_parse(const std::string& text, DataType type,
                       const std::string& what) {
  const Parsed want = parse_with(reference_read_fasta, text, type);
  const Parsed got = parse_with(
      [](std::istream& in, DataType t) { return read_fasta(in, t); }, text,
      type);
  EXPECT_EQ(got.error, want.error) << what;
  EXPECT_EQ(got.names, want.names) << what;
  EXPECT_EQ(got.rows, want.rows) << what;
}

enum class Defect {
  kNone,
  kDataBeforeHeader,
  kEmptyName,
  kRagged,
  kBadChar,
  kEmpty,
};

// A seeded FASTA text: CRLF or LF endings, blanks around and inside sequence
// lines, described headers, blank lines, random wrap widths, lower case, an
// optional missing final newline, and at most one defect.
std::string random_fasta(Rng& rng, DataType type, Defect defect) {
  const std::string letters = type == DataType::kDna
                                  ? "ACGTNRY-acgtnry"
                                  : "ARNDCQEGHILKMFPSTWYVBX-*arndcqx";
  const std::vector<std::string> blanks = {" ", "\t", "  ", " \t ", "\v", "\f"};
  const auto blank = [&] { return blanks[rng.below(blanks.size())]; };
  const std::string eol = rng.below(3) == 0 ? "\r\n" : "\n";
  std::string text;
  const auto blank_lines = [&] {
    while (rng.below(5) == 0) text += (rng.below(2) == 0 ? "" : blank()) + eol;
  };
  if (defect == Defect::kEmpty) {
    blank_lines();
    return text;
  }
  if (defect == Defect::kDataBeforeHeader) text += "ACGT" + eol;
  const std::size_t taxa = 1 + rng.below(6);
  const std::size_t sites = 1 + rng.below(60);
  const std::size_t wrap = 1 + rng.below(sites + 10);
  const std::size_t bad_taxon = rng.below(taxa);
  for (std::size_t t = 0; t < taxa; ++t) {
    blank_lines();
    const std::string name = "t" + std::to_string(t);
    switch (rng.below(5)) {
      case 0: text += ">" + name; break;
      case 1: text += ">" + blank() + name; break;
      case 2: text += ">" + name + blank() + "desc words"; break;
      case 3: text += blank() + ">" + name + blank() + "x" + blank(); break;
      default: text += ">" + name + "|acc.1" + blank(); break;
    }
    if (defect == Defect::kEmptyName && t == bad_taxon) text += "\n>" + blank();
    text += eol;
    std::string row(sites, ' ');
    for (char& c : row) c = letters[rng.below(letters.size())];
    if (t == bad_taxon && defect == Defect::kBadChar)
      row[rng.below(sites)] = rng.below(2) ? '1' : 'O';
    if (t == bad_taxon && defect == Defect::kRagged)
      row.resize(rng.below(2) ? sites + 1 : sites - 1, 'A');
    for (std::size_t pos = 0; pos < row.size(); pos += wrap) {
      std::string chunk = row.substr(pos, wrap);
      if (rng.below(4) == 0) chunk.insert(rng.below(chunk.size() + 1), blank());
      if (rng.below(6) == 0) chunk = blank() + chunk + blank();
      text += chunk + eol;
    }
  }
  blank_lines();
  if (rng.below(3) == 0) text.resize(text.size() - eol.size());
  return text;
}

TEST(Fasta, MatchesReferenceParserOnSeededTexts) {
  Rng rng(0xfa57a);
  const Defect defects[] = {Defect::kDataBeforeHeader, Defect::kEmptyName,
                            Defect::kRagged, Defect::kBadChar, Defect::kEmpty};
  for (int trial = 0; trial < 600; ++trial) {
    const DataType type = trial % 3 == 2 ? DataType::kProtein : DataType::kDna;
    const Defect defect = rng.below(3) == 0
                              ? defects[rng.below(std::size(defects))]
                              : Defect::kNone;
    const std::string text = random_fasta(rng, type, defect);
    expect_same_parse(text, type, "trial " + std::to_string(trial));
  }
}

TEST(Fasta, MatchesReferenceParserOnByteSoup) {
  // Short texts over a tiny alphabet: mostly malformed, so the two parsers
  // must also agree on which error comes first.
  const std::string soup = ">>ACGTacgtN-1 \t\r\n\n\v";
  Rng rng(0x50a9);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text(rng.below(48), ' ');
    for (char& c : text) c = soup[rng.below(soup.size())];
    expect_same_parse(text, DataType::kDna, "soup " + std::to_string(trial));
  }
}

TEST(Fasta, MatchesReferenceParserOnFixedCases) {
  const char* cases[] = {
      "",
      ">",
      ">  \r\nACGT\n",
      "\r\n\t\r\n",
      "ACGT\n>a\nACGT\n",
      ">a\n\n>b\nACGT\n",
      ">a\r\nAC GT\r\n>b desc\r\nac\tgt",
      ">a\nACGT\n>b\nACG\n",
      ">a\nACGT\n>b\nAC1T\n",
      ">a\nACGT\n>a\nACGT\n",
      "  >a x y\n  A C G T  \n>b\nNNNN",
  };
  for (const char* text : cases) {
    for (DataType type : {DataType::kDna, DataType::kProtein})
      expect_same_parse(text, type, datatype_name(type) + ": " + text);
  }
}

TEST(Phylip, ParsesSequential) {
  std::istringstream in("3 4\nalpha ACGT\nbeta  AC-T\ngamma TTTT\n");
  const Alignment alignment = read_phylip(in, DataType::kDna);
  EXPECT_EQ(alignment.num_taxa(), 3u);
  EXPECT_EQ(alignment.num_sites(), 4u);
  EXPECT_EQ(alignment.name(0), "alpha");
  EXPECT_EQ(alignment.text(0), "ACGT");
}

TEST(Phylip, ParsesSequentialSplitSequences) {
  std::istringstream in("2 8\na ACGT ACGT\nb TTTT TTTT\n");
  // 2-taxon alignments are below the tree minimum but fine for the parser.
  const Alignment alignment = read_phylip(in, DataType::kDna);
  EXPECT_EQ(alignment.text(0), "ACGTACGT");
}

TEST(Phylip, ParsesInterleaved) {
  std::istringstream in(
      "3 8\n"
      "a ACGT\n"
      "b TTTT\n"
      "c GGGG\n"
      "ACGT\n"
      "AAAA\n"
      "CCCC\n");
  const Alignment alignment = read_phylip(in, DataType::kDna);
  EXPECT_EQ(alignment.text(0), "ACGTACGT");
  EXPECT_EQ(alignment.text(1), "TTTTAAAA");
  EXPECT_EQ(alignment.text(2), "GGGGCCCC");
}

TEST(Phylip, RejectsBadHeader) {
  std::istringstream in("oops\n");
  EXPECT_THROW(read_phylip(in, DataType::kDna), Error);
}

TEST(Phylip, RejectsTruncatedData) {
  std::istringstream in("3 4\na ACGT\nb AC\n");
  EXPECT_THROW(read_phylip(in, DataType::kDna), Error);
}

TEST(Phylip, RoundTripThroughWriter) {
  std::istringstream in("3 4\na ACGT\nb TTTT\nc GGCC\n");
  const Alignment alignment = read_phylip(in, DataType::kDna);
  std::ostringstream out;
  write_phylip(out, alignment);
  std::istringstream back(out.str());
  const Alignment again = read_phylip(back, DataType::kDna);
  for (std::size_t i = 0; i < alignment.num_taxa(); ++i)
    EXPECT_EQ(again.text(i), alignment.text(i));
}

TEST(Files, MissingFileThrows) {
  EXPECT_THROW(read_fasta_file("/nonexistent/x.fa", DataType::kDna), Error);
  EXPECT_THROW(read_phylip_file("/nonexistent/x.phy", DataType::kDna), Error);
}

TEST(Files, FastaWriterReportsWriteErrors) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  std::istringstream in(">a\nACGT\n>b\nTTAA\n");
  const Alignment alignment = read_fasta(in, DataType::kDna);
  EXPECT_THROW(write_fasta_file("/dev/full", alignment), Error);
}

}  // namespace
}  // namespace plfoc
