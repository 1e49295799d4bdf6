#include "tree/newick.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "util/checks.hpp"

namespace plfoc {
namespace {

struct ParsedNode {
  std::string label;
  double length = kDefaultBranchLength;
  std::vector<std::size_t> children;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  /// Returns the index of the root ParsedNode.
  std::size_t run() {
    skip_space();
    const std::size_t root = parse_node();
    skip_space();
    PLFOC_REQUIRE(pos_ < text_.size() && text_[pos_] == ';',
                  "Newick: expected ';' at end of tree");
    return root;
  }

  std::vector<ParsedNode>& nodes() { return nodes_; }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::size_t parse_node() {
    skip_space();
    const std::size_t node = nodes_.size();
    nodes_.emplace_back();
    if (peek() == '(') {
      ++pos_;  // '('
      for (;;) {
        const std::size_t child = parse_node();
        nodes_[node].children.push_back(child);
        skip_space();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      PLFOC_REQUIRE(peek() == ')', "Newick: expected ')'");
      ++pos_;
    }
    skip_space();
    nodes_[node].label = parse_label();
    skip_space();
    if (peek() == ':') {
      ++pos_;
      nodes_[node].length = parse_number();
    }
    return node;
  }

  std::string parse_label() {
    std::string label;
    if (peek() == '\'') {  // quoted label
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '\'')
        label.push_back(text_[pos_++]);
      PLFOC_REQUIRE(peek() == '\'', "Newick: unterminated quoted label");
      ++pos_;
      return label;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ':' || c == ',' || c == ')' || c == '(' || c == ';' ||
          std::isspace(static_cast<unsigned char>(c)))
        break;
      label.push_back(c);
      ++pos_;
    }
    return label;
  }

  double parse_number() {
    skip_space();
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    PLFOC_REQUIRE(ec == std::errc() && ptr != begin,
                  "Newick: malformed branch length");
    pos_ += static_cast<std::size_t>(ptr - begin);
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::vector<ParsedNode> nodes_;
};

double sanitize_length(double length) {
  // Zero / missing / negative lengths are clamped to a tiny positive value;
  // the PLF requires strictly positive branch lengths.
  constexpr double kMin = 1e-8;
  return (length > kMin) ? length : kMin;
}

}  // namespace

Tree parse_newick(const std::string& text) {
  Parser parser(text);
  const std::size_t root = parser.run();
  auto& nodes = parser.nodes();

  std::vector<std::string> taxon_names;
  for (const ParsedNode& node : nodes)
    if (node.children.empty()) {
      PLFOC_REQUIRE(!node.label.empty(), "Newick: unnamed leaf");
      taxon_names.push_back(node.label);
    }
  PLFOC_REQUIRE(taxon_names.size() >= 3, "Newick: need at least 3 taxa");
  for (std::size_t i = 0; i < taxon_names.size(); ++i)
    for (std::size_t j = i + 1; j < taxon_names.size(); ++j)
      PLFOC_REQUIRE(taxon_names[i] != taxon_names[j],
                    "Newick: duplicate taxon '" + taxon_names[i] + "'");

  Tree tree(taxon_names);

  // Map ParsedNode index -> NodeId, assigning tips and inner nodes in
  // encounter order. A rooted (2-child) outermost node is suppressed.
  const bool rooted = nodes[root].children.size() == 2;
  PLFOC_REQUIRE(nodes[root].children.size() == 3 || rooted,
                "Newick: outermost node must have 2 or 3 children "
                "(strictly bifurcating trees only)");

  std::vector<NodeId> id_of(nodes.size(), kNoNode);
  NodeId next_tip = 0;
  NodeId next_inner = static_cast<NodeId>(tree.num_taxa());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (rooted && i == root) continue;  // suppressed
    if (nodes[i].children.empty()) {
      id_of[i] = next_tip++;
    } else {
      PLFOC_REQUIRE(i == root || nodes[i].children.size() == 2,
                    "Newick: multifurcating inner node (strictly bifurcating "
                    "trees only)");
      PLFOC_REQUIRE(next_inner < tree.num_nodes(),
                    "Newick: tree has more inner nodes than 2n-2 allows");
      id_of[i] = next_inner++;
    }
  }
  PLFOC_REQUIRE(next_inner == tree.num_nodes(),
                "Newick: inner node count mismatch (tree not binary?)");

  // Wire child edges.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (rooted && i == root) continue;
    for (std::size_t child : nodes[i].children)
      tree.connect(id_of[i], id_of[child],
                   sanitize_length(nodes[child].length));
  }
  if (rooted) {
    const std::size_t a = nodes[root].children[0];
    const std::size_t b = nodes[root].children[1];
    tree.connect(id_of[a], id_of[b],
                 sanitize_length(nodes[a].length + nodes[b].length));
  }
  tree.validate();
  return tree;
}

Tree read_newick_file(const std::string& path) {
  std::ifstream in(path);
  PLFOC_REQUIRE(in.good(), "cannot open Newick file '" + path + "'");
  std::string text;
  std::getline(in, text, ';');
  text.push_back(';');
  return parse_newick(text);
}

namespace {

void append_subtree(std::ostream& out, const Tree& tree, NodeId node,
                    NodeId parent, int precision) {
  if (tree.is_tip(node)) {
    out << tree.taxon_name(node);
  } else {
    out << '(';
    bool first = true;
    for (NodeId nbr : tree.neighbors(node)) {
      if (nbr == parent) continue;
      if (!first) out << ',';
      first = false;
      append_subtree(out, tree, nbr, node, precision);
    }
    out << ')';
  }
  out.precision(precision);
  out << ':' << tree.branch_length(node, parent);
}

}  // namespace

std::string to_newick(const Tree& tree, int precision) {
  const NodeId root = tree.default_root_branch().first;
  std::ostringstream out;
  out << '(';
  bool first = true;
  for (NodeId nbr : tree.neighbors(root)) {
    if (!first) out << ',';
    first = false;
    append_subtree(out, tree, nbr, root, precision);
  }
  out << ");";
  return out.str();
}

void write_newick_file(const std::string& path, const Tree& tree) {
  std::ofstream out(path);
  PLFOC_REQUIRE(out.good(), "cannot open '" + path + "' for writing");
  out << to_newick(tree) << '\n';
  out.flush();
  PLFOC_REQUIRE(out.good(), "cannot write '" + path + "'");
}

}  // namespace plfoc
