#include "util/args.hpp"

#include <gtest/gtest.h>

#include "util/checks.hpp"

namespace plfoc {
namespace {

struct Parsed {
  std::string name;
  std::uint64_t count = 0;
  double rate = 0.0;
  bool verbose = false;
};

ArgParser make_parser(Parsed& out) {
  ArgParser parser("test", "unit-test parser");
  parser.add_string("name", &out.name, "a name", /*required=*/true)
      .add_uint("count", &out.count, "a count")
      .add_double("rate", &out.rate, "a rate")
      .add_flag("verbose", &out.verbose, "chatty");
  return parser;
}

void parse(const ArgParser& parser, std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  parser.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesAllTypes) {
  Parsed out;
  const ArgParser parser = make_parser(out);
  parse(parser, {"--name", "x", "--count", "42", "--rate", "0.5", "--verbose"});
  EXPECT_EQ(out.name, "x");
  EXPECT_EQ(out.count, 42u);
  EXPECT_DOUBLE_EQ(out.rate, 0.5);
  EXPECT_TRUE(out.verbose);
}

TEST(Args, EqualsSyntax) {
  Parsed out;
  const ArgParser parser = make_parser(out);
  parse(parser, {"--name=y", "--count=7"});
  EXPECT_EQ(out.name, "y");
  EXPECT_EQ(out.count, 7u);
}

TEST(Args, MissingRequiredThrows) {
  Parsed out;
  const ArgParser parser = make_parser(out);
  EXPECT_THROW(parse(parser, {"--count", "1"}), Error);
}

TEST(Args, UnknownFlagThrows) {
  Parsed out;
  const ArgParser parser = make_parser(out);
  EXPECT_THROW(parse(parser, {"--name", "x", "--bogus", "1"}), Error);
}

TEST(Args, MissingValueThrows) {
  Parsed out;
  const ArgParser parser = make_parser(out);
  EXPECT_THROW(parse(parser, {"--name"}), Error);
}

TEST(Args, BadNumbersThrow) {
  Parsed out;
  const ArgParser parser = make_parser(out);
  EXPECT_THROW(parse(parser, {"--name", "x", "--count", "ten"}), Error);
  EXPECT_THROW(parse(parser, {"--name", "x", "--rate", "fast"}), Error);
  EXPECT_THROW(parse(parser, {"--name", "x", "--count", "-3"}), Error);
}

TEST(Args, CountsOutsideTheirTypeAreRefusedNotWrapped) {
  std::uint64_t wide = 0;
  unsigned narrow = 0;
  ArgParser parser("test", "unit-test parser");
  parser.add_uint("wide", &wide, "a 64-bit count")
      .add_uint("narrow", &narrow, "a 32-bit count");
  parse(parser, {"--wide", "18446744073709551615", "--narrow", "4294967295"});
  EXPECT_EQ(wide, 18446744073709551615u);
  EXPECT_EQ(narrow, 4294967295u);
  EXPECT_THROW(parse(parser, {"--narrow", "4294967296"}), Error);
  EXPECT_THROW(parse(parser, {"--narrow", "4294967297"}), Error);
  EXPECT_THROW(parse(parser, {"--narrow", "-1"}), Error);
  EXPECT_THROW(parse(parser, {"--wide", "18446744073709551616"}), Error);
  EXPECT_THROW(parse(parser, {"--wide", "+1"}), Error);
  EXPECT_EQ(narrow, 4294967295u);  // a refused value leaves the target
}

TEST(Args, SwitchRejectsValue) {
  Parsed out;
  const ArgParser parser = make_parser(out);
  EXPECT_THROW(parse(parser, {"--name", "x", "--verbose=yes"}), Error);
}

TEST(Args, PositionalArgumentRejected) {
  Parsed out;
  const ArgParser parser = make_parser(out);
  EXPECT_THROW(parse(parser, {"name-without-dashes"}), Error);
}

TEST(Args, HelpThrowsUsage) {
  Parsed out;
  const ArgParser parser = make_parser(out);
  try {
    parse(parser, {"--help"});
    FAIL() << "expected usage exception";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("--name"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("a count"), std::string::npos);
  }
}

TEST(Args, UsageListsRequired) {
  Parsed out;
  const ArgParser parser = make_parser(out);
  EXPECT_NE(parser.usage().find("(required)"), std::string::npos);
}

}  // namespace
}  // namespace plfoc
