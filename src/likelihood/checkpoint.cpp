#include "likelihood/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/checks.hpp"

namespace plfoc {
namespace {

constexpr char kMagic[4] = {'P', 'L', 'F', 'C'};

// Little-endian primitive serialisation; doubles round-trip bit-exactly.
void put_u32(std::ostream& out, std::uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i)
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  out.write(bytes, 4);
}

std::uint32_t get_u32(std::istream& in) {
  unsigned char bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  PLFOC_REQUIRE(in.good(), "checkpoint: truncated file");
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= std::uint32_t{bytes[i]} << (8 * i);
  return value;
}

void put_double(std::ostream& out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, 8);
  char bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
  out.write(bytes, 8);
}

double get_double(std::istream& in) {
  unsigned char bytes[8];
  in.read(reinterpret_cast<char*>(bytes), 8);
  PLFOC_REQUIRE(in.good(), "checkpoint: truncated file");
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= std::uint64_t{bytes[i]} << (8 * i);
  double value = 0.0;
  std::memcpy(&value, &bits, 8);
  return value;
}

void put_string(std::ostream& out, const std::string& value) {
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out.write(value.data(), static_cast<std::streamsize>(value.size()));
}

std::string get_string(std::istream& in) {
  const std::uint32_t size = get_u32(in);
  PLFOC_REQUIRE(size <= (1u << 20), "checkpoint: implausible string length");
  std::string value(size, '\0');
  in.read(value.data(), size);
  PLFOC_REQUIRE(in.good(), "checkpoint: truncated file");
  return value;
}

}  // namespace

Checkpoint make_checkpoint(const LikelihoodEngine& engine) {
  Checkpoint checkpoint;
  checkpoint.model = engine.config().substitution;
  checkpoint.categories = engine.config().categories;
  checkpoint.alpha = engine.config().alpha;
  const Tree& tree = engine.tree();
  checkpoint.taxon_names.reserve(tree.num_taxa());
  for (NodeId tip = 0; tip < tree.num_taxa(); ++tip)
    checkpoint.taxon_names.push_back(tree.taxon_name(tip));
  for (const auto& [a, b] : tree.edges())
    checkpoint.edges.push_back({a, b, tree.branch_length(a, b)});
  return checkpoint;
}

void write_checkpoint(std::ostream& out, const Checkpoint& checkpoint) {
  out.write(kMagic, 4);
  put_u32(out, checkpoint.version);
  put_u32(out, checkpoint.model.type == DataType::kDna ? 0u : 1u);
  put_string(out, checkpoint.model.name);
  put_u32(out, static_cast<std::uint32_t>(checkpoint.model.frequencies.size()));
  for (double f : checkpoint.model.frequencies) put_double(out, f);
  put_u32(out,
          static_cast<std::uint32_t>(checkpoint.model.exchangeabilities.size()));
  for (double r : checkpoint.model.exchangeabilities) put_double(out, r);
  put_u32(out, checkpoint.categories);
  put_double(out, checkpoint.alpha);
  put_u32(out, static_cast<std::uint32_t>(checkpoint.taxon_names.size()));
  for (const std::string& name : checkpoint.taxon_names) put_string(out, name);
  put_u32(out, static_cast<std::uint32_t>(checkpoint.edges.size()));
  for (const Checkpoint::Edge& edge : checkpoint.edges) {
    put_u32(out, edge.a);
    put_u32(out, edge.b);
    put_double(out, edge.length);
  }
  PLFOC_REQUIRE(out.good(), "checkpoint: write failed");
}

Checkpoint read_checkpoint(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  PLFOC_REQUIRE(in.good() && std::memcmp(magic, kMagic, 4) == 0,
                "checkpoint: bad magic (not a plfoc checkpoint)");
  Checkpoint checkpoint;
  checkpoint.version = get_u32(in);
  PLFOC_REQUIRE(checkpoint.version == 1, "checkpoint: unsupported version");
  checkpoint.model.type = get_u32(in) == 0 ? DataType::kDna : DataType::kProtein;
  checkpoint.model.name = get_string(in);
  checkpoint.model.frequencies.resize(get_u32(in));
  for (double& f : checkpoint.model.frequencies) f = get_double(in);
  checkpoint.model.exchangeabilities.resize(get_u32(in));
  for (double& r : checkpoint.model.exchangeabilities) r = get_double(in);
  checkpoint.categories = get_u32(in);
  checkpoint.alpha = get_double(in);
  checkpoint.model.validate();
  checkpoint.taxon_names.resize(get_u32(in));
  for (std::string& name : checkpoint.taxon_names) name = get_string(in);
  checkpoint.edges.resize(get_u32(in));
  for (Checkpoint::Edge& edge : checkpoint.edges) {
    edge.a = get_u32(in);
    edge.b = get_u32(in);
    edge.length = get_double(in);
  }
  return checkpoint;
}

Tree restore_tree(const Checkpoint& checkpoint) {
  Tree tree(checkpoint.taxon_names);
  PLFOC_REQUIRE(checkpoint.edges.size() == tree.num_edges(),
                "checkpoint: edge count does not match taxon count");
  for (const Checkpoint::Edge& edge : checkpoint.edges)
    tree.connect(edge.a, edge.b, edge.length);
  tree.validate();
  return tree;
}

void restore_model(const Checkpoint& checkpoint, LikelihoodEngine& engine) {
  PLFOC_REQUIRE(engine.config().categories == checkpoint.categories,
                "checkpoint: rate-category count mismatch");
  engine.set_substitution_model(checkpoint.model);
  engine.set_alpha(checkpoint.alpha);
}

void save_checkpoint_file(const std::string& path,
                          const LikelihoodEngine& engine) {
  std::ofstream out(path, std::ios::binary);
  PLFOC_REQUIRE(out.good(), "cannot open checkpoint file '" + path + "'");
  write_checkpoint(out, make_checkpoint(engine));
  out.flush();
  PLFOC_REQUIRE(out.good(), "cannot write checkpoint file '" + path + "'");
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PLFOC_REQUIRE(in.good(), "cannot open checkpoint file '" + path + "'");
  return read_checkpoint(in);
}

}  // namespace plfoc
