// Minimal declarative command-line parsing for the plfoc tool and examples.
//
// Flags are registered with a name, help text and a typed binding; parse()
// consumes "--name value" / "--name=value" pairs and boolean "--name"
// switches, validates required flags and produces usage text.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace plfoc {

/// All of `text` as a decimal T (no sign, no spaces), or nullopt when it is
/// not one or does not fit T. The CLI flags, jobfile keys and tenant specs
/// read their counts through this, so "-1" or a count past T's range fails
/// instead of wrapping.
template <typename T>
std::optional<T> parse_unsigned(std::string_view text) {
  static_assert(std::is_unsigned_v<T>);
  T value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

class ArgParser {
 public:
  explicit ArgParser(std::string program, std::string description);

  ArgParser& add_string(const std::string& name, std::string* target,
                        const std::string& help, bool required = false);
  ArgParser& add_uint(const std::string& name, std::uint64_t* target,
                      const std::string& help, bool required = false);
  /// Refuses a value above UINT_MAX rather than narrowing it.
  ArgParser& add_uint(const std::string& name, unsigned* target,
                      const std::string& help, bool required = false);
  ArgParser& add_double(const std::string& name, double* target,
                        const std::string& help, bool required = false);
  ArgParser& add_flag(const std::string& name, bool* target,
                      const std::string& help);

  /// Parse argv (excluding argv[0]). Throws plfoc::Error with a message that
  /// includes usage on unknown flags, missing values, bad numbers or missing
  /// required flags. "--help" throws a special Error carrying usage only.
  void parse(int argc, const char* const* argv) const;

  std::string usage() const;

 private:
  struct Option {
    std::string name;
    std::string help;
    bool required;
    bool is_switch;
    std::function<void(const std::string&)> apply;
  };

  const Option* find(const std::string& name) const;
  template <typename T>
  ArgParser& add_unsigned(const std::string& name, T* target,
                          const std::string& help, bool required);

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
};

}  // namespace plfoc
