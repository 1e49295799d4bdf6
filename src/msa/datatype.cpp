#include "msa/datatype.hpp"

#include <array>
#include <cctype>

#include "util/checks.hpp"

namespace plfoc {
namespace {

// --- DNA ------------------------------------------------------------------
// DNA codes are the IUPAC 4-bit masks themselves: bit0=A, bit1=C, bit2=G,
// bit3=T. Code 15 is full ambiguity (N / gap); code 0 is invalid.
constexpr unsigned kDnaStates = 4;
constexpr unsigned kDnaCodes = 16;

std::uint8_t dna_mask_for(char c) {
  switch (std::toupper(static_cast<unsigned char>(c))) {
    case 'A': return 1;
    case 'C': return 2;
    case 'G': return 4;
    case 'T':
    case 'U': return 8;
    case 'R': return 1 | 4;          // puRine: A/G
    case 'Y': return 2 | 8;          // pYrimidine: C/T
    case 'S': return 2 | 4;          // Strong: C/G
    case 'W': return 1 | 8;          // Weak: A/T
    case 'K': return 4 | 8;          // Keto: G/T
    case 'M': return 1 | 2;          // aMino: A/C
    case 'B': return 2 | 4 | 8;      // not A
    case 'D': return 1 | 4 | 8;      // not C
    case 'H': return 1 | 2 | 8;      // not G
    case 'V': return 1 | 2 | 4;      // not T
    case 'N':
    case 'O':
    case 'X':
    case '-':
    case '?':
    case '.':
    case '~': return 15;
    default: return 0;
  }
}

constexpr char kDnaPrint[16] = {'?', 'A', 'C', 'M', 'G', 'R', 'S', 'V',
                                'T', 'W', 'Y', 'H', 'K', 'D', 'B', 'N'};

// --- Protein ----------------------------------------------------------------
// Canonical order ARNDCQEGHILKMFPSTWYV (RAxML / PAML convention). Codes 0..19
// are the amino acids; 20 = B (N|D), 21 = Z (Q|E), 22 = J (I|L),
// 23 = X / gap / unknown (all 20 states).
constexpr unsigned kAaStates = 20;
constexpr unsigned kAaCodes = 24;
constexpr char kAaLetters[20] = {'A', 'R', 'N', 'D', 'C', 'Q', 'E',
                                 'G', 'H', 'I', 'L', 'K', 'M', 'F',
                                 'P', 'S', 'T', 'W', 'Y', 'V'};

// Table entry for a character the data type rejects (valid codes are < 24).
constexpr std::uint8_t kInvalidCode = 0xFF;

std::uint8_t aa_code_for(char c) {
  const char upper =
      static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  for (unsigned i = 0; i < kAaStates; ++i)
    if (kAaLetters[i] == upper) return static_cast<std::uint8_t>(i);
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
    default: return kInvalidCode;
  }
}

std::uint32_t aa_mask_for_code(std::uint8_t code) {
  if (code < kAaStates) return 1u << code;
  switch (code) {
    case 20: return (1u << 2) | (1u << 3);    // B: Asn or Asp
    case 21: return (1u << 5) | (1u << 6);    // Z: Gln or Glu
    case 22: return (1u << 9) | (1u << 10);   // J: Ile or Leu
    case 23: return (1u << kAaStates) - 1;    // X / gap: anything
    default: return 0;
  }
}

// One 256-entry char -> code table per data type, built once from the
// non-throwing mappings above so encoding is a lookup per character.
using CodeTable = std::array<std::uint8_t, 256>;

template <typename Map>
CodeTable build_code_table(Map map) {
  CodeTable table{};
  for (unsigned c = 0; c < table.size(); ++c)
    table[c] = map(static_cast<char>(c));
  return table;
}

const CodeTable& code_table(DataType type) {
  static const CodeTable dna = build_code_table([](char c) {
    const std::uint8_t mask = dna_mask_for(c);
    return mask != 0 ? mask : kInvalidCode;
  });
  static const CodeTable protein = build_code_table(aa_code_for);
  return type == DataType::kDna ? dna : protein;
}

[[noreturn]] void throw_invalid_char(DataType type, char c) {
  const char* kind = type == DataType::kDna ? "DNA" : "protein";
  throw Error(std::string("invalid ") + kind + " character '" + c + "'");
}

}  // namespace

unsigned num_states(DataType type) {
  return type == DataType::kDna ? kDnaStates : kAaStates;
}

unsigned num_codes(DataType type) {
  return type == DataType::kDna ? kDnaCodes : kAaCodes;
}

std::uint8_t encode_char(DataType type, char c) {
  const std::uint8_t code = code_table(type)[static_cast<unsigned char>(c)];
  if (code == kInvalidCode) throw_invalid_char(type, c);
  return code;
}

std::vector<std::uint8_t> encode_sequence(DataType type,
                                          std::string_view characters) {
  const CodeTable& table = code_table(type);
  std::vector<std::uint8_t> codes(characters.size());
  for (std::size_t i = 0; i < characters.size(); ++i) {
    const std::uint8_t code = table[static_cast<unsigned char>(characters[i])];
    if (code == kInvalidCode) throw_invalid_char(type, characters[i]);
    codes[i] = code;
  }
  return codes;
}

std::uint32_t code_state_mask(DataType type, std::uint8_t code) {
  if (type == DataType::kDna) {
    PLFOC_DCHECK(code >= 1 && code < kDnaCodes);
    return code;  // DNA codes are their own masks.
  }
  PLFOC_DCHECK(code < kAaCodes);
  return aa_mask_for_code(code);
}

char decode_char(DataType type, std::uint8_t code) {
  if (type == DataType::kDna) {
    PLFOC_DCHECK(code < kDnaCodes);
    return kDnaPrint[code];
  }
  PLFOC_DCHECK(code < kAaCodes);
  if (code < kAaStates) return kAaLetters[code];
  switch (code) {
    case 20: return 'B';
    case 21: return 'Z';
    case 22: return 'J';
    default: return 'X';
  }
}

std::uint8_t gap_code(DataType type) {
  return type == DataType::kDna ? std::uint8_t{15} : std::uint8_t{23};
}

bool is_unambiguous(DataType type, std::uint8_t code) {
  const std::uint32_t mask = code_state_mask(type, code);
  return mask != 0 && (mask & (mask - 1)) == 0;
}

unsigned single_state(DataType type, std::uint8_t code) {
  const std::uint32_t mask = code_state_mask(type, code);
  PLFOC_DCHECK(mask != 0 && (mask & (mask - 1)) == 0);
  unsigned state = 0;
  for (std::uint32_t m = mask; (m & 1u) == 0; m >>= 1) ++state;
  return state;
}

std::string datatype_name(DataType type) {
  return type == DataType::kDna ? "DNA" : "Protein";
}

}  // namespace plfoc
