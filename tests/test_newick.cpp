#include "tree/newick.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include "util/checks.hpp"

namespace plfoc {
namespace {

TEST(Newick, ParsesUnrootedTrifurcation) {
  const Tree tree = parse_newick("(a:0.1,b:0.2,(c:0.3,d:0.4):0.5);");
  EXPECT_EQ(tree.num_taxa(), 4u);
  tree.validate();
  EXPECT_NEAR(tree.branch_length(tree.find_taxon("a"),
                                 tree.neighbors(tree.find_taxon("a"))[0]),
              0.1, 1e-12);
}

TEST(Newick, CollapsesRootedBifurcation) {
  // Rooted: ((a,b),(c,d)); the root is suppressed into one branch.
  const Tree tree = parse_newick("((a:0.1,b:0.2):0.3,(c:0.4,d:0.5):0.6);");
  EXPECT_EQ(tree.num_taxa(), 4u);
  EXPECT_EQ(tree.num_inner(), 2u);
  tree.validate();
  // The suppressed root branch has length 0.3 + 0.6.
  const auto [x, y] = tree.default_root_branch();
  EXPECT_NEAR(tree.branch_length(x, y), 0.9, 1e-12);
}

TEST(Newick, DefaultBranchLengths) {
  const Tree tree = parse_newick("(a,b,(c,d));");
  tree.validate();
  for (const auto& [x, y] : tree.edges())
    EXPECT_NEAR(tree.branch_length(x, y), kDefaultBranchLength, 1e-12);
}

TEST(Newick, QuotedLabels) {
  const Tree tree = parse_newick("('taxon one':0.1,'b c':0.2,d:0.3);");
  EXPECT_NE(tree.find_taxon("taxon one"), kNoNode);
  EXPECT_NE(tree.find_taxon("b c"), kNoNode);
}

TEST(Newick, ScientificNotationLengths) {
  const Tree tree = parse_newick("(a:1e-3,b:2.5E-2,c:1.0);");
  const NodeId a = tree.find_taxon("a");
  EXPECT_NEAR(tree.branch_length(a, tree.neighbors(a)[0]), 1e-3, 1e-15);
}

TEST(Newick, WhitespaceTolerant) {
  const Tree tree = parse_newick("( a : 0.1 ,\n b : 0.2 , c : 0.3 ) ;");
  EXPECT_EQ(tree.num_taxa(), 3u);
}

TEST(Newick, RejectsMultifurcation) {
  EXPECT_THROW(parse_newick("(a,b,(c,d,e,f));"), Error);
}

TEST(Newick, RejectsTooFewTaxa) {
  EXPECT_THROW(parse_newick("(a,b);"), Error);
}

TEST(Newick, RejectsDuplicateNames) {
  EXPECT_THROW(parse_newick("(a,a,b);"), Error);
}

TEST(Newick, RejectsMissingSemicolon) {
  EXPECT_THROW(parse_newick("(a,b,c)"), Error);
}

TEST(Newick, RejectsGarbage) {
  EXPECT_THROW(parse_newick("(a,b,c:oops);"), Error);
}

TEST(Newick, ZeroLengthClampedPositive) {
  const Tree tree = parse_newick("(a:0,b:0.1,c:0.2);");
  const NodeId a = tree.find_taxon("a");
  EXPECT_GT(tree.branch_length(a, tree.neighbors(a)[0]), 0.0);
}

TEST(Newick, RoundTripPreservesTopologyAndLengths) {
  const std::string source =
      "(t1:0.11,(t2:0.21,(t3:0.31,t4:0.41):0.51):0.61,t5:0.71);";
  const Tree tree = parse_newick(source);
  const Tree again = parse_newick(to_newick(tree));
  ASSERT_EQ(again.num_taxa(), tree.num_taxa());
  // Same splits: compare via pairwise path lengths between named tips.
  for (NodeId i = 0; i < tree.num_taxa(); ++i)
    for (NodeId j = 0; j < tree.num_taxa(); ++j) {
      if (i == j) continue;
      // Path length by BFS accumulation.
      const auto path_length = [](const Tree& t, NodeId from, NodeId to) {
        std::vector<double> dist(t.num_nodes(), -1.0);
        std::vector<NodeId> queue{from};
        dist[from] = 0.0;
        std::size_t head = 0;
        while (head < queue.size()) {
          const NodeId node = queue[head++];
          for (NodeId nbr : t.neighbors(node))
            if (dist[nbr] < 0.0) {
              dist[nbr] = dist[node] + t.branch_length(node, nbr);
              queue.push_back(nbr);
            }
        }
        return dist[to];
      };
      const NodeId ai = tree.find_taxon(tree.taxon_name(i));
      const NodeId aj = tree.find_taxon(tree.taxon_name(j));
      const NodeId bi = again.find_taxon(tree.taxon_name(i));
      const NodeId bj = again.find_taxon(tree.taxon_name(j));
      EXPECT_NEAR(path_length(tree, ai, aj), path_length(again, bi, bj), 1e-9);
    }
}

TEST(Newick, FileWriterReportsWriteErrors) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const Tree tree = parse_newick("(a:0.1,b:0.2,c:0.3);");
  EXPECT_THROW(write_newick_file("/dev/full", tree), Error);
}

TEST(Newick, FiveTaxonLadder) {
  const Tree tree = parse_newick("(a,(b,(c,(d,e))));");
  EXPECT_EQ(tree.num_taxa(), 5u);
  EXPECT_EQ(tree.num_inner(), 3u);
  tree.validate();
}

}  // namespace
}  // namespace plfoc
