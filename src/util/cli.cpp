#include "util/cli.h"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace udring {

std::uint64_t parse_unsigned(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  // from_chars accepts no '+', no whitespace and (for unsigned types) no '-',
  // so the digits-only rule needs no extra scan.
  const auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::result_out_of_range) {
    throw std::invalid_argument(std::string(what) + ": value '" +
                                std::string(text) + "' is out of range");
  }
  if (error != std::errc() || ptr != end) {
    throw std::invalid_argument(std::string(what) +
                                ": expected an unsigned integer, got '" +
                                std::string(text) + "'");
  }
  return value;
}

namespace {

/// parse_unsigned narrowed to std::size_t, range-checked.
std::size_t parse_size(std::string_view text, std::string_view what) {
  const std::uint64_t value = parse_unsigned(text, what);
  if (!std::in_range<std::size_t>(value)) {
    throw std::invalid_argument(std::string(what) + ": value '" +
                                std::string(text) + "' is out of range");
  }
  return static_cast<std::size_t>(value);
}

bool contains(const std::vector<std::string>& names, std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    out += (out.empty() ? "" : ", ") + name;
  }
  return out;
}

/// Throws std::logic_error on an entry of `modes` that `declared` (the
/// program's modes) lacks: a mode-name typo is a programming error.
void require_declared(const std::vector<std::string>& declared,
                      const std::vector<std::string>& modes) {
  for (const std::string& mode : modes) {
    if (!contains(declared, mode)) {
      throw std::logic_error("undeclared mode " + mode);
    }
  }
}

/// The entry of `flags` (Cli::registered_) named `name`, or nullptr.
template <typename Flags>
auto* find_flag(Flags& flags, const std::string& name) {
  const auto it = std::find_if(flags.begin(), flags.end(), [&](const auto& f) {
    return f.name == name;
  });
  return it == flags.end() ? nullptr : &*it;
}

}  // namespace

std::vector<std::size_t> parse_unsigned_list(std::string_view csv,
                                             std::string_view what) {
  std::vector<std::size_t> values;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = csv.find(',', begin);
    const std::string_view item = csv.substr(begin, comma - begin);
    if (item.empty()) {
      throw std::invalid_argument(std::string(what) + ": empty entry in '" +
                                  std::string(csv) + "'");
    }
    values.push_back(parse_size(item, what));
    if (comma == std::string_view::npos) return values;
    begin = comma + 1;
  }
}

Cli::Cli(int argc, const char* const* argv, Modes modes)
    : modes_(std::move(modes)) {
  program_ = argc > 0 ? argv[0] : "udring";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      // Only the unambiguous forms: --name=value, or bare --name (boolean).
      const auto eq = arg.find('=');
      const bool bare = eq == std::string::npos;
      std::string name = arg.substr(2, bare ? eq : eq - 2);
      values_[name] = bare ? std::nullopt : std::optional(arg.substr(eq + 1));
      given_.push_back(std::move(name));
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

const std::optional<std::string>* Cli::register_flag(
    const std::string& name, const std::string& help,
    const std::string& fallback, const Modes& modes) {
  require_declared(modes_, modes);
  if (find_flag(registered_, name) == nullptr) {
    registered_.push_back({name, help, fallback, modes, std::nullopt});
  }
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

const std::string* Cli::register_value_flag(const std::string& name,
                                            const std::string& help,
                                            const std::string& fallback,
                                            const Modes& modes) {
  const std::optional<std::string>* value =
      register_flag(name, help, fallback, modes);
  if (value == nullptr) return nullptr;
  if (!*value) {
    throw std::invalid_argument("--" + name + ": needs a value (--" + name +
                                "=...)");
  }
  return &**value;
}

std::optional<std::string> Cli::get(const std::string& name, const std::string& help,
                                    const std::string& fallback,
                                    const Modes& modes) {
  if (const std::string* value =
          register_value_flag(name, help, fallback, modes)) {
    return *value;
  }
  return fallback.empty() ? std::nullopt : std::optional<std::string>(fallback);
}

std::size_t Cli::get_size(const std::string& name, std::size_t fallback,
                          const std::string& help, const Modes& modes) {
  const std::string* value =
      register_value_flag(name, help, std::to_string(fallback), modes);
  return value ? parse_size(*value, "--" + name) : fallback;
}

std::uint64_t Cli::get_u64(const std::string& name, std::uint64_t fallback,
                           const std::string& help, const Modes& modes) {
  const std::string* value =
      register_value_flag(name, help, std::to_string(fallback), modes);
  return value ? parse_unsigned(*value, "--" + name) : fallback;
}

bool Cli::get_flag(const std::string& name, const std::string& help,
                   const Modes& modes) {
  const std::optional<std::string>* value =
      register_flag(name, help, "false", modes);
  return value && (!*value || (**value != "false" && **value != "0"));
}

const std::vector<std::string>& Cli::get_positionals(const std::string& help,
                                                     const Modes& modes) {
  require_declared(modes_, modes);
  positional_reader_ = Flag{"", help, "", modes, std::nullopt};
  return positional_;
}

void Cli::read_only_if(const std::string& name, bool read, std::string when) {
  Flag* const flag = find_flag(registered_, name);
  if (flag == nullptr) throw std::logic_error("unregistered flag --" + name);
  flag->unread_unless = read ? std::nullopt : std::optional(std::move(when));
}

void Cli::reject_bad_flags(std::string_view mode) const {
  if (modes_.empty() ? !mode.empty() : !contains(modes_, mode)) {
    throw std::logic_error("undeclared mode '" + std::string(mode) + "'");
  }
  for (auto it = given_.begin(); it != given_.end(); ++it) {
    const std::string& name = *it;
    const Flag* const flag = find_flag(registered_, name);
    if (flag == nullptr) {
      throw std::invalid_argument("--" + name + ": unknown flag (see --help)");
    }
    if (std::find(given_.begin(), it, name) != it) {
      throw std::invalid_argument("--" + name + ": flag given more than once");
    }
    if (!flag->modes.empty() && !contains(flag->modes, mode)) {
      throw std::invalid_argument("--" + name + ": not read in " +
                                  std::string(mode) + " mode (read in: " +
                                  join(flag->modes) + ")");
    }
    if (flag->unread_unless) {
      throw std::invalid_argument("--" + name + ": read only " +
                                  *flag->unread_unless);
    }
  }
  if (positional_.empty()) return;
  if (!positional_reader_) {
    throw std::invalid_argument(positional_.front() +
                                ": unexpected argument (flags take the form "
                                "--name=value)");
  }
  const Modes& reads = positional_reader_->modes;
  if (!reads.empty() && !contains(reads, mode)) {
    throw std::invalid_argument(positional_.front() +
                                ": positional argument not read in " +
                                std::string(mode) + " mode (read in: " +
                                join(reads) + ")");
  }
}

void Cli::print_help(const std::string& program_description) const {
  std::cout << program_ << " — " << program_description << "\n\n";
  if (!modes_.empty()) {
    std::cout << "Modes: " << join(modes_)
              << ". A flag tagged [modes: ...] is read only in those modes,\n"
                 "and a usage error in any other; an untagged flag is read in "
                 "all.\n\n";
  }
  std::cout << "Flags:\n";
  for (const Flag& flag : registered_) {
    std::cout << "  --" << flag.name;
    if (!flag.fallback.empty()) {
      std::cout << " (default: " << flag.fallback << ")";
    }
    if (!flag.modes.empty()) {
      std::cout << " [modes: " << join(flag.modes) << "]";
    }
    std::cout << "\n      " << flag.help << "\n";
  }
  if (positional_reader_) {
    std::cout << "  <arguments>";
    if (!positional_reader_->modes.empty()) {
      std::cout << " [modes: " << join(positional_reader_->modes) << "]";
    }
    std::cout << "\n      " << positional_reader_->help << "\n";
  }
  std::cout << "  --help\n      Show this message.\n";
}

}  // namespace udring
