// udring/util/cli.h
//
// A tiny command-line flag parser for the tools and example binaries.
// Supports the unambiguous forms `--name=value`, boolean `--name`, and
// `--help`; anything else is positional. A value flag given bare is an
// error, not the value "true". Numeric values are strict: parse_unsigned
// rejects what std::stoull would quietly accept.
//
// A program with modes (udring_fuzz: replay | record | fuzz) names them in
// the constructor, and each flag — and the positional arguments — names the
// modes that read it, so the one reject_bad_flags(mode) call rejects every
// given flag or positional argument the run never reads.

#pragma once

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
  /// Mode names. A flag's `modes` are those that read it; empty = all.
  using Modes = std::vector<std::string>;

  /// `modes` names the program's modes; empty for a program without any.
  Cli(int argc, const char* const* argv, Modes modes = {});

  /// Registers a flag for --help output and returns its value if present.
  /// The value getters (get, get_size, get_u64) throw std::invalid_argument
  /// naming a flag given bare (`--name` with no `=value`).
  [[nodiscard]] std::optional<std::string> get(const std::string& name,
                                               const std::string& help,
                                               const std::string& fallback = "",
                                               const Modes& modes = {});

  /// Typed accessors with defaults. Values go through parse_unsigned, so a
  /// malformed, negative or overflowing number throws std::invalid_argument
  /// naming the flag.
  [[nodiscard]] std::size_t get_size(const std::string& name, std::size_t fallback,
                                     const std::string& help,
                                     const Modes& modes = {});
  [[nodiscard]] std::uint64_t get_u64(const std::string& name, std::uint64_t fallback,
                                      const std::string& help,
                                      const Modes& modes = {});
  /// A boolean flag: true when given bare or with any value but false/0.
  [[nodiscard]] bool get_flag(const std::string& name, const std::string& help,
                              const Modes& modes = {});

  /// Declares that `modes` (empty = all) read the positional (non-flag)
  /// arguments, which `help` describes, and returns them in order. Without
  /// this call no mode reads any.
  [[nodiscard]] const std::vector<std::string>& get_positionals(
      const std::string& help, const Modes& modes = {});

  /// True if `--name` appeared on the command line, with or without a value.
  [[nodiscard]] bool has(const std::string& name) const {
    return values_.contains(name);
  }

  /// Declares that the registered flag `name` is read only when `read`
  /// holds, a condition on other flags' values that `when` spells out
  /// ("with --problem=gather"). A later call replaces the condition.
  void read_only_if(const std::string& name, bool read, std::string when);

  /// Throws std::invalid_argument naming the first flag, in command-line
  /// order, that no get* call registered, that was given more than once,
  /// that `mode` does not read, or that read_only_if says goes unread; and
  /// then the first positional argument, when `mode` reads none. Call it
  /// once every flag is registered, so a misspelt, retired, repeated,
  /// ignored or stray argument is a usage error instead of a silently
  /// different run.
  void reject_bad_flags(std::string_view mode = {}) const;

  /// True if --help was passed; callers should print_help() and exit.
  [[nodiscard]] bool wants_help() const noexcept { return help_requested_; }

  /// Prints a usage block listing every flag registered via get* calls and
  /// the modes that read it.
  void print_help(const std::string& program_description) const;

 private:
  struct Flag {
    std::string name, help, fallback;  // fallback = default shown in --help
    Modes modes;
    std::optional<std::string> unread_unless;  // `when` of a false read_only_if
  };

  std::string program_;
  Modes modes_;
  /// Given flags' values; nullopt for a flag given bare.
  std::map<std::string, std::optional<std::string>> values_;
  std::vector<std::string> given_;  // flag names in command-line order
  std::vector<std::string> positional_;
  /// get_positionals()'s declaration (its name is empty); nullopt until then.
  std::optional<Flag> positional_reader_;
  std::vector<Flag> registered_;
  bool help_requested_ = false;

  /// Registers the flag (once) and returns its value; nullptr if not given.
  const std::optional<std::string>* register_flag(const std::string& name,
                                                  const std::string& help,
                                                  const std::string& fallback,
                                                  const Modes& modes);
  /// register_flag for the value getters: throws on a bare flag.
  const std::string* register_value_flag(const std::string& name,
                                         const std::string& help,
                                         const std::string& fallback,
                                         const Modes& modes);
};

}  // namespace udring
