// udring/util/cli.h
//
// A tiny command-line flag parser for the example binaries. Supports the
// unambiguous forms `--name=value`, boolean `--name`, and `--help`; anything
// else is positional. Examples stay dependency-free while still being
// configurable (ring size, agent count, scheduler, seed). Numeric values are
// strict: parse_unsigned rejects what std::stoull would quietly accept.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace udring {

/// Parses `text` as an unsigned decimal integer (std::from_chars): rejects
/// an empty string, any sign, leading/trailing characters and values that
/// overflow uint64 with std::invalid_argument naming `what` (the flag, e.g.
/// "--n"), where std::stoull would wrap "-5" or silently drop the "x" of
/// "3x".
[[nodiscard]] std::uint64_t parse_unsigned(std::string_view text,
                                           std::string_view what);

/// Parses a comma-separated list of unsigned integers ("0,3,7") with
/// parse_unsigned; an empty list or an empty entry ("0,,3") is an error.
[[nodiscard]] std::vector<std::size_t> parse_unsigned_list(
    std::string_view csv, std::string_view what);

/// Parsed command line. Construct from main()'s argc/argv, then query flags.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Registers a flag for --help output and returns its value if present.
  [[nodiscard]] std::optional<std::string> get(const std::string& name,
                                               const std::string& help,
                                               const std::string& fallback = "");

  /// Typed accessors with defaults. Values go through parse_unsigned, so a
  /// malformed, negative or overflowing number throws std::invalid_argument
  /// naming the flag.
  [[nodiscard]] std::size_t get_size(const std::string& name, std::size_t fallback,
                                     const std::string& help);
  [[nodiscard]] std::uint64_t get_u64(const std::string& name, std::uint64_t fallback,
                                      const std::string& help);
  [[nodiscard]] bool get_flag(const std::string& name, const std::string& help);

  /// True if `--name` appeared on the command line, with or without a value.
  [[nodiscard]] bool has(const std::string& name) const {
    return values_.contains(name);
  }

  /// Flag names (without "--") in command-line order.
  [[nodiscard]] const std::vector<std::string>& flags() const noexcept {
    return flags_;
  }

  /// Throws std::invalid_argument naming the first flag, in command-line
  /// order, that no get* call registered or that was given more than once.
  /// Call it once every flag is registered, so a misspelt, retired or
  /// repeated flag is a usage error instead of a silently different run.
  void reject_bad_flags() const;

  /// True if --help was passed; callers should print_help() and exit.
  [[nodiscard]] bool wants_help() const noexcept { return help_requested_; }

  /// Prints a usage block listing every flag registered via get* calls.
  void print_help(const std::string& program_description) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> flags_;  // flag names in command-line order
  std::vector<std::string> positional_;
  // name -> (help text, default shown in --help)
  mutable std::vector<std::array<std::string, 3>> registered_;
  bool help_requested_ = false;

  void register_flag(const std::string& name, const std::string& help,
                     const std::string& fallback) const;
};

}  // namespace udring
