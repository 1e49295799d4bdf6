#include "util/args.hpp"

#include <limits>
#include <set>
#include <sstream>

#include "util/checks.hpp"

namespace plfoc {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::add_string(const std::string& name, std::string* target,
                                 const std::string& help, bool required) {
  PLFOC_CHECK(target != nullptr && find(name) == nullptr);
  options_.push_back({name, help, required, false,
                      [target](const std::string& value) { *target = value; }});
  return *this;
}

template <typename T>
ArgParser& ArgParser::add_unsigned(const std::string& name, T* target,
                                   const std::string& help, bool required) {
  PLFOC_CHECK(target != nullptr && find(name) == nullptr);
  options_.push_back(
      {name, help, required, false, [target, name](const std::string& value) {
         const std::optional<T> parsed = parse_unsigned<T>(value);
         PLFOC_REQUIRE(parsed.has_value(),
                       "--" + name + ": '" + value +
                           "' is not an integer in 0.." +
                           std::to_string(std::numeric_limits<T>::max()));
         *target = *parsed;
       }});
  return *this;
}

ArgParser& ArgParser::add_uint(const std::string& name, std::uint64_t* target,
                               const std::string& help, bool required) {
  return add_unsigned(name, target, help, required);
}

ArgParser& ArgParser::add_uint(const std::string& name, unsigned* target,
                               const std::string& help, bool required) {
  return add_unsigned(name, target, help, required);
}

ArgParser& ArgParser::add_double(const std::string& name, double* target,
                                 const std::string& help, bool required) {
  PLFOC_CHECK(target != nullptr && find(name) == nullptr);
  options_.push_back(
      {name, help, required, false, [target, name](const std::string& value) {
         try {
           std::size_t consumed = 0;
           *target = std::stod(value, &consumed);
           PLFOC_REQUIRE(consumed == value.size(),
                         "--" + name + ": '" + value + "' is not a number");
         } catch (const std::logic_error&) {
           throw Error("--" + name + ": '" + value + "' is not a number");
         }
       }});
  return *this;
}

ArgParser& ArgParser::add_flag(const std::string& name, bool* target,
                               const std::string& help) {
  PLFOC_CHECK(target != nullptr && find(name) == nullptr);
  options_.push_back({name, help, false, true,
                      [target](const std::string&) { *target = true; }});
  return *this;
}

const ArgParser::Option* ArgParser::find(const std::string& name) const {
  for (const Option& option : options_)
    if (option.name == name) return &option;
  return nullptr;
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\noptions:\n";
  for (const Option& option : options_) {
    out << "  --" << option.name;
    if (!option.is_switch) out << " <value>";
    if (option.required) out << "  (required)";
    out << "\n      " << option.help << "\n";
  }
  return out.str();
}

void ArgParser::parse(int argc, const char* const* argv) const {
  std::set<std::string> seen;
  for (int i = 0; i < argc; ++i) {
    std::string token = argv[i];
    PLFOC_REQUIRE(token.rfind("--", 0) == 0,
                  "unexpected argument '" + token + "'\n" + usage());
    token = token.substr(2);
    if (token == "help") throw Error(usage());
    std::string value;
    bool has_value = false;
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      value = token.substr(eq + 1);
      token = token.substr(0, eq);
      has_value = true;
    }
    const Option* option = find(token);
    PLFOC_REQUIRE(option != nullptr,
                  "unknown flag '--" + token + "'\n" + usage());
    if (option->is_switch) {
      PLFOC_REQUIRE(!has_value, "--" + token + " takes no value");
      option->apply("");
    } else {
      if (!has_value) {
        PLFOC_REQUIRE(i + 1 < argc, "--" + token + " expects a value");
        value = argv[++i];
      }
      option->apply(value);
    }
    seen.insert(token);
  }
  for (const Option& option : options_)
    PLFOC_REQUIRE(!option.required || seen.count(option.name) > 0,
                  "missing required flag --" + option.name + "\n" + usage());
}

}  // namespace plfoc
