// plfoc-lint contract tests (docs/static-analysis.md):
//  * the lexer never reports identifiers from comments/strings/preprocessor;
//  * the manifest parser accepts tools/plfoc-lint.rules and rejects garbage;
//  * every golden fixture in tests/lint_fixtures/ produces exactly the
//    findings its expect() markers declare — no extras, none missing;
//  * the real tree is clean (the CI gate, run in-process).
//
// Build defines: PLFOC_LINT_SOURCE_ROOT (repo root), PLFOC_LINT_RULES_FILE
// (the manifest), PLFOC_LINT_FIXTURE_DIR (the fixture corpus).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "lint/lexer.hpp"
#include "lint/lint.hpp"
#include "lint/rules.hpp"

namespace fs = std::filesystem;
using plfoc::lint::Finding;
using plfoc::lint::Lex;
using plfoc::lint::LintSource;
using plfoc::lint::LintTree;
using plfoc::lint::Manifest;
using plfoc::lint::ParseManifest;

namespace {

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream stream(path, std::ios::binary);
  EXPECT_TRUE(stream) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

Manifest RealManifest() {
  Manifest manifest;
  std::string error;
  EXPECT_TRUE(
      ParseManifest(ReadFileOrDie(PLFOC_LINT_RULES_FILE), &manifest, &error))
      << error;
  return manifest;
}

/// (line, rule) with multiplicity — two findings of one rule on one line
/// must be declared twice.
using Expectations = std::multiset<std::pair<int, std::string>>;

/// Scan a fixture for `expect(<rule>)` markers and its `lint-as:` path.
void ParseFixture(const std::string& source, std::string* lint_as,
                  Expectations* expected) {
  std::istringstream stream(source);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (line_no == 1) {
      const std::size_t tag = line.find("lint-as:");
      ASSERT_NE(tag, std::string::npos)
          << "fixture must start with '// lint-as: <path>'";
      std::string path = line.substr(tag + 8);
      const std::size_t begin = path.find_first_not_of(' ');
      *lint_as = path.substr(begin);
      continue;
    }
    std::size_t at = 0;
    while ((at = line.find("expect(", at)) != std::string::npos) {
      const std::size_t close = line.find(')', at);
      ASSERT_NE(close, std::string::npos) << "unclosed expect() marker";
      expected->emplace(line_no, line.substr(at + 7, close - at - 7));
      at = close;
    }
  }
}

std::string Describe(const Expectations& set) {
  std::ostringstream out;
  for (const auto& [line, rule] : set)
    out << "  line " << line << ": " << rule << "\n";
  return out.str();
}

TEST(LintLexer, StripsCommentsStringsAndPreprocessor) {
  const auto lexed = Lex(
      "#include <mutex>\n"
      "// comment rand()\n"
      "/* block std::mutex */\n"
      "const char* s = \"read(fd)\"; // trail\n"
      "int x = R\"(write(1))\";\n");
  std::set<std::string> idents;
  for (const auto& token : lexed.tokens)
    if (token.kind == plfoc::lint::Token::Kind::kIdentifier)
      idents.insert(token.text);
  EXPECT_EQ(idents, (std::set<std::string>{"const", "char", "s", "int", "x"}));
}

TEST(LintLexer, QualifiedPunctuationIsTokenized) {
  const auto lexed = Lex("a->b(); std::c; ::d();\n");
  std::vector<std::string> puncts;
  for (const auto& token : lexed.tokens)
    if (token.kind == plfoc::lint::Token::Kind::kPunct)
      puncts.push_back(token.text);
  EXPECT_EQ(puncts, (std::vector<std::string>{"->", "(", ")", ";", "::", ";",
                                              "::", "(", ")", ";"}));
}

TEST(LintLexer, ParsesSuppressions) {
  const auto lexed = Lex(
      "int a;  // plfoc-lint: allow(raw-io): justified here\n"
      "int b;  // plfoc-lint: allow(raw-io)\n"
      "int c;  // plfoc-lint: something else\n");
  ASSERT_EQ(lexed.suppressions.size(), 3u);
  EXPECT_EQ(lexed.suppressions[0].rule, "raw-io");
  EXPECT_TRUE(lexed.suppressions[0].justified);
  EXPECT_EQ(lexed.suppressions[0].line, 1);
  EXPECT_FALSE(lexed.suppressions[1].justified);
  EXPECT_FALSE(lexed.suppressions[1].malformed);
  EXPECT_TRUE(lexed.suppressions[2].malformed);
}

TEST(LintManifest, RealManifestParsesAndDeclaresTheContractRules) {
  const Manifest manifest = RealManifest();
  for (const char* rule :
       {"raw-io", "kernel-determinism", "kernel-no-fma", "kernel-no-hadd",
        "mt-unsafe-libc", "raw-capability", "record-checksum",
        "stats-audit-coverage"}) {
    EXPECT_TRUE(manifest.HasRule(rule)) << rule;
  }
  EXPECT_FALSE(manifest.HasRule("no-such-rule"));
}

TEST(LintManifest, RejectsMalformedInput) {
  Manifest manifest;
  std::string error;
  EXPECT_FALSE(ParseManifest("key = value\n", &manifest, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);

  manifest = Manifest{};
  EXPECT_FALSE(ParseManifest(
      "[rule a]\nkind = identifier\nmessage = m\nidentifiers = x\n"
      "paths = src/\n[rule a]\nkind = identifier\nmessage = m\n"
      "identifiers = x\npaths = src/\n",
      &manifest, &error))
      << "duplicate rule ids must be rejected";

  manifest = Manifest{};
  EXPECT_FALSE(
      ParseManifest("[rule a]\nkind = wat\nmessage = m\n", &manifest, &error));

  manifest = Manifest{};
  EXPECT_FALSE(ParseManifest("[rule a]\nkind = identifier\nmessage = m\n",
                             &manifest, &error))
      << "identifier rules need identifiers and paths";
}

TEST(LintFixtures, EveryFixtureMatchesItsExpectMarkersExactly) {
  const Manifest manifest = RealManifest();
  std::vector<fs::path> fixtures;
  for (const auto& entry : fs::directory_iterator(PLFOC_LINT_FIXTURE_DIR))
    if (entry.path().extension() == ".cc") fixtures.push_back(entry.path());
  std::sort(fixtures.begin(), fixtures.end());
  ASSERT_GE(fixtures.size(), 5u) << "fixture corpus went missing";

  for (const fs::path& fixture : fixtures) {
    SCOPED_TRACE(fixture.filename().string());
    const std::string source = ReadFileOrDie(fixture);
    std::string lint_as;
    Expectations expected;
    ParseFixture(source, &lint_as, &expected);
    if (HasFatalFailure()) return;

    Expectations actual;
    for (const Finding& finding : LintSource(manifest, lint_as, source))
      actual.emplace(finding.line, finding.rule);
    EXPECT_EQ(actual, expected)
        << "expected findings:\n"
        << Describe(expected) << "actual findings:\n"
        << Describe(actual);
  }
}

TEST(LintFixtures, CleanFixtureScopesCoverEveryIdentifierRule) {
  // clean.cc claims to be a kernel TU, the strictest scope: make sure that
  // scope really does enable all identifier rules, so "zero findings there"
  // is a meaningful statement.
  const Manifest manifest = RealManifest();
  int in_scope = 0;
  for (const auto& rule : manifest.identifier_rules)
    for (const std::string& prefix : rule.paths)
      if (std::string("src/likelihood/clean_kernel.cpp")
              .compare(0, prefix.size(), prefix) == 0)
        ++in_scope;
  EXPECT_EQ(in_scope,
            static_cast<int>(manifest.identifier_rules.size()));
}

TEST(LintTreeScan, RealTreeIsClean) {
  const Manifest manifest = RealManifest();
  const std::vector<Finding> findings =
      LintTree(manifest, PLFOC_LINT_SOURCE_ROOT);
  std::ostringstream out;
  for (const Finding& finding : findings)
    out << plfoc::lint::FormatFinding(finding) << "\n";
  EXPECT_TRUE(findings.empty()) << out.str();
}

TEST(LintTreeScan, StatsAuditRuleCatchesAnUncoveredCounter) {
  const fs::path root = fs::path(testing::TempDir()) / "plfoc_lint_stats";
  fs::create_directories(root / "src/ooc");
  std::ofstream(root / "src/ooc/stats.hpp")
      << "struct OocStats {\n"
         "  std::uint64_t covered = 0;\n"
         "  std::uint64_t uncovered = 0;\n"
         "  std::uint64_t derived() const { return covered; }\n"
         "};\n";
  std::ofstream(root / "src/ooc/audit.cpp")
      << "void check(const OocStats& s) { (void)s.covered; }\n";

  Manifest manifest;
  std::string error;
  ASSERT_TRUE(ParseManifest(
      "[rule stats-audit-coverage]\n"
      "kind = stats-audit\n"
      "message = counter lacks coverage\n"
      "stats-header = src/ooc/stats.hpp\n"
      "audit-source = src/ooc/audit.cpp\n"
      "struct = OocStats\n",
      &manifest, &error))
      << error;

  const std::vector<Finding> findings = LintTree(manifest, root.string());
  ASSERT_EQ(findings.size(), 1u)
      << "member functions returning uint64_t must not count as counters";
  EXPECT_EQ(findings[0].rule, "stats-audit-coverage");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("'uncovered'"), std::string::npos);
  fs::remove_all(root);
}

}  // namespace
