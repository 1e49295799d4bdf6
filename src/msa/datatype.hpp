// Molecular data types and their character encodings.
//
// The PLF never sees raw characters: every tip sequence is encoded once into
// small integer *codes*. A code indexes a per-code row in the precomputed tip
// lookup table (likelihood/tip_states); its *state mask* says which of the
// model's states the character is compatible with (IUPAC ambiguity codes,
// gaps and unknowns map to multi-bit masks). This mirrors the paper's note
// that one 32-bit integer can carry 8 ambiguity-coded nucleotides — tips are
// cheap, ancestral vectors are what dominates memory (Sec. 3.1).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace plfoc {

enum class DataType : std::uint8_t {
  kDna,      ///< 4 states (A, C, G, T), 16 ambiguity codes.
  kProtein,  ///< 20 states, 24 codes (20 canonical + B, Z, J, X/gap).
};

/// Number of model states for a data type (4 or 20).
unsigned num_states(DataType type);

/// Number of distinct tip codes (tip lookup table rows): 16 or 24.
unsigned num_codes(DataType type);

/// Encode one sequence character; throws plfoc::Error on characters that are
/// not valid for the data type. Case-insensitive; '-', '?', '.', '~' and the
/// full-ambiguity letters (N / X) all map to the all-states code.
std::uint8_t encode_char(DataType type, char c);

/// Encode a whole sequence, character by character as encode_char does;
/// throws plfoc::Error (encode_char's message) at the first invalid one.
std::vector<std::uint8_t> encode_sequence(DataType type,
                                          std::string_view characters);

/// Bitmask over model states compatible with `code` (bit i = state i).
std::uint32_t code_state_mask(DataType type, std::uint8_t code);

/// Canonical printable character for a code (upper case; all-states prints
/// as 'N' for DNA and 'X' for protein).
char decode_char(DataType type, std::uint8_t code);

/// Code representing full ambiguity (gap / unknown) for the data type.
std::uint8_t gap_code(DataType type);

/// True if `code` corresponds to exactly one model state.
bool is_unambiguous(DataType type, std::uint8_t code);

/// Index of the single state for an unambiguous code.
unsigned single_state(DataType type, std::uint8_t code);

/// Human-readable name ("DNA" / "Protein").
std::string datatype_name(DataType type);

}  // namespace plfoc
