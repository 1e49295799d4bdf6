#include "msa/datatype.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "util/checks.hpp"

namespace plfoc {
namespace {

// Reference encoder: the toupper + switch and linear amino-acid search that
// encode_char used before it became a table lookup. The table must agree
// with it on every byte, codes and error messages alike.
std::uint8_t reference_encode_char(DataType type, char c) {
  const char upper =
      static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  if (type == DataType::kDna) {
    switch (upper) {
      case 'A': return 1;
      case 'C': return 2;
      case 'G': return 4;
      case 'T':
      case 'U': return 8;
      case 'R': return 1 | 4;
      case 'Y': return 2 | 8;
      case 'S': return 2 | 4;
      case 'W': return 1 | 8;
      case 'K': return 4 | 8;
      case 'M': return 1 | 2;
      case 'B': return 2 | 4 | 8;
      case 'D': return 1 | 4 | 8;
      case 'H': return 1 | 2 | 8;
      case 'V': return 1 | 2 | 4;
      case 'N':
      case 'O':
      case 'X':
      case '-':
      case '?':
      case '.':
      case '~': return 15;
      default:
        throw Error(std::string("invalid DNA character '") + c + "'");
    }
  }
  const std::string letters = "ARNDCQEGHILKMFPSTWYV";
  const std::size_t idx = letters.find(upper);
  if (idx != std::string::npos)
    return static_cast<std::uint8_t>(idx);
  switch (upper) {
    case 'B': return 20;
    case 'Z': return 21;
    case 'J': return 22;
    case 'X':
    case '-':
    case '?':
    case '.':
    case '~':
    case '*': return 23;
    default:
      throw Error(std::string("invalid protein character '") + c + "'");
  }
}

struct Encoded {
  int code = -1;      // -1 when encoding threw
  std::string error;  // what() of the thrown Error
};

template <typename Encode>
Encoded encode_with(Encode encode) {
  try {
    return {encode(), ""};
  } catch (const Error& e) {
    return {-1, e.what()};
  }
}

TEST(DataType, TableMatchesReferenceOnEveryByte) {
  for (DataType type : {DataType::kDna, DataType::kProtein}) {
    for (int byte = 0; byte < 256; ++byte) {
      const char c = static_cast<char>(byte);
      const Encoded want =
          encode_with([&] { return reference_encode_char(type, c); });
      const Encoded got = encode_with([&] { return encode_char(type, c); });
      const std::string what = datatype_name(type) + " byte " +
                               std::to_string(byte);
      EXPECT_EQ(got.code, want.code) << what;
      EXPECT_EQ(got.error, want.error) << what;
    }
  }
}

TEST(DataType, EncodeSequenceMatchesEncodeChar) {
  for (DataType type : {DataType::kDna, DataType::kProtein}) {
    std::string all;
    for (int byte = 0; byte < 256; ++byte) {
      const char c = static_cast<char>(byte);
      if (encode_with([&] { return encode_char(type, c); }).code >= 0)
        all.push_back(c);
    }
    const std::vector<std::uint8_t> codes = encode_sequence(type, all);
    ASSERT_EQ(codes.size(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
      EXPECT_EQ(codes[i], encode_char(type, all[i])) << all[i];
    // The first invalid character is the one reported.
    const char bad = type == DataType::kDna ? 'Z' : 'O';
    const Encoded seq = encode_with([&] {
      encode_sequence(type, all + bad + '1');
      return 0;
    });
    EXPECT_EQ(seq.error,
              encode_with([&] { return encode_char(type, bad); }).error);
  }
}

TEST(DataType, BasicCounts) {
  EXPECT_EQ(num_states(DataType::kDna), 4u);
  EXPECT_EQ(num_codes(DataType::kDna), 16u);
  EXPECT_EQ(num_states(DataType::kProtein), 20u);
  EXPECT_EQ(num_codes(DataType::kProtein), 24u);
}

TEST(DataType, DnaCanonicalBases) {
  EXPECT_EQ(encode_char(DataType::kDna, 'A'), 1);
  EXPECT_EQ(encode_char(DataType::kDna, 'C'), 2);
  EXPECT_EQ(encode_char(DataType::kDna, 'G'), 4);
  EXPECT_EQ(encode_char(DataType::kDna, 'T'), 8);
  EXPECT_EQ(encode_char(DataType::kDna, 'U'), 8);  // RNA uracil maps to T
}

TEST(DataType, DnaCaseInsensitive) {
  EXPECT_EQ(encode_char(DataType::kDna, 'a'), encode_char(DataType::kDna, 'A'));
  EXPECT_EQ(encode_char(DataType::kDna, 'n'), encode_char(DataType::kDna, 'N'));
}

TEST(DataType, DnaAmbiguityMasks) {
  EXPECT_EQ(encode_char(DataType::kDna, 'R'), 1 | 4);  // A/G
  EXPECT_EQ(encode_char(DataType::kDna, 'Y'), 2 | 8);  // C/T
  EXPECT_EQ(encode_char(DataType::kDna, 'S'), 2 | 4);
  EXPECT_EQ(encode_char(DataType::kDna, 'W'), 1 | 8);
  EXPECT_EQ(encode_char(DataType::kDna, 'K'), 4 | 8);
  EXPECT_EQ(encode_char(DataType::kDna, 'M'), 1 | 2);
  EXPECT_EQ(encode_char(DataType::kDna, 'B'), 2 | 4 | 8);
  EXPECT_EQ(encode_char(DataType::kDna, 'D'), 1 | 4 | 8);
  EXPECT_EQ(encode_char(DataType::kDna, 'H'), 1 | 2 | 8);
  EXPECT_EQ(encode_char(DataType::kDna, 'V'), 1 | 2 | 4);
}

TEST(DataType, GapCharactersAreFullAmbiguity) {
  for (char c : {'N', '-', '?', '.', '~', 'X'})
    EXPECT_EQ(encode_char(DataType::kDna, c), 15) << c;
  for (char c : {'X', '-', '?', '.', '~', '*'})
    EXPECT_EQ(encode_char(DataType::kProtein, c), 23) << c;
}

TEST(DataType, InvalidCharactersThrow) {
  EXPECT_THROW(encode_char(DataType::kDna, 'Z'), Error);
  EXPECT_THROW(encode_char(DataType::kDna, '1'), Error);
  EXPECT_THROW(encode_char(DataType::kProtein, '1'), Error);
  EXPECT_THROW(encode_char(DataType::kProtein, 'O'), Error);
}

TEST(DataType, DnaMaskEqualsCode) {
  for (std::uint8_t code = 1; code < 16; ++code)
    EXPECT_EQ(code_state_mask(DataType::kDna, code), code);
}

TEST(DataType, ProteinAmbiguityMasks) {
  // B = Asn(2) | Asp(3), Z = Gln(5) | Glu(6), J = Ile(9) | Leu(10).
  EXPECT_EQ(code_state_mask(DataType::kProtein, 20), (1u << 2) | (1u << 3));
  EXPECT_EQ(code_state_mask(DataType::kProtein, 21), (1u << 5) | (1u << 6));
  EXPECT_EQ(code_state_mask(DataType::kProtein, 22), (1u << 9) | (1u << 10));
  EXPECT_EQ(code_state_mask(DataType::kProtein, 23), (1u << 20) - 1);
}

TEST(DataType, RoundTripDna) {
  const std::string chars = "ACGTRYSWKMBDHVN";
  for (char c : chars) {
    const std::uint8_t code = encode_char(DataType::kDna, c);
    EXPECT_EQ(decode_char(DataType::kDna, code), c);
  }
}

TEST(DataType, RoundTripProteinCanonical) {
  const std::string chars = "ARNDCQEGHILKMFPSTWYV";
  for (char c : chars) {
    const std::uint8_t code = encode_char(DataType::kProtein, c);
    EXPECT_EQ(decode_char(DataType::kProtein, code), c);
  }
}

TEST(DataType, UnambiguousDetection) {
  EXPECT_TRUE(is_unambiguous(DataType::kDna, 1));
  EXPECT_TRUE(is_unambiguous(DataType::kDna, 8));
  EXPECT_FALSE(is_unambiguous(DataType::kDna, 3));
  EXPECT_FALSE(is_unambiguous(DataType::kDna, 15));
  EXPECT_TRUE(is_unambiguous(DataType::kProtein, 0));
  EXPECT_TRUE(is_unambiguous(DataType::kProtein, 19));
  EXPECT_FALSE(is_unambiguous(DataType::kProtein, 23));
}

TEST(DataType, SingleStateIndex) {
  EXPECT_EQ(single_state(DataType::kDna, 1), 0u);
  EXPECT_EQ(single_state(DataType::kDna, 2), 1u);
  EXPECT_EQ(single_state(DataType::kDna, 4), 2u);
  EXPECT_EQ(single_state(DataType::kDna, 8), 3u);
  EXPECT_EQ(single_state(DataType::kProtein, 7), 7u);
}

TEST(DataType, GapCodes) {
  EXPECT_EQ(gap_code(DataType::kDna), 15);
  EXPECT_EQ(gap_code(DataType::kProtein), 23);
}

TEST(DataType, Names) {
  EXPECT_EQ(datatype_name(DataType::kDna), "DNA");
  EXPECT_EQ(datatype_name(DataType::kProtein), "Protein");
}

}  // namespace
}  // namespace plfoc
