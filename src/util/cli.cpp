#include "util/cli.h"

#include <algorithm>
#include <array>
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

Cli::Cli(int argc, const char* const* argv) {
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
      values_[name] = bare ? "true" : arg.substr(eq + 1);
      flags_.push_back(std::move(name));
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

void Cli::register_flag(const std::string& name, const std::string& help,
                        const std::string& fallback) const {
  for (const auto& entry : registered_) {
    if (entry[0] == name) return;
  }
  registered_.push_back({name, help, fallback});
}

std::optional<std::string> Cli::get(const std::string& name, const std::string& help,
                                    const std::string& fallback) {
  register_flag(name, help, fallback);
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback.empty() ? std::nullopt : std::optional<std::string>(fallback);
  }
  return it->second;
}

std::size_t Cli::get_size(const std::string& name, std::size_t fallback,
                          const std::string& help) {
  register_flag(name, help, std::to_string(fallback));
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_size(it->second, "--" + name);
}

std::uint64_t Cli::get_u64(const std::string& name, std::uint64_t fallback,
                           const std::string& help) {
  register_flag(name, help, std::to_string(fallback));
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_unsigned(it->second, "--" + name);
}

bool Cli::get_flag(const std::string& name, const std::string& help) {
  register_flag(name, help, "false");
  const auto it = values_.find(name);
  return it != values_.end() && it->second != "false" && it->second != "0";
}

void Cli::reject_unknown_flags() const {
  for (const std::string& flag : flags_) {
    const bool known =
        std::any_of(registered_.begin(), registered_.end(),
                    [&](const auto& entry) { return entry[0] == flag; });
    if (!known) {
      throw std::invalid_argument("--" + flag + ": unknown flag (see --help)");
    }
  }
}

void Cli::print_help(const std::string& program_description) const {
  std::cout << program_ << " — " << program_description << "\n\nFlags:\n";
  for (const auto& [name, help, fallback] : registered_) {
    std::cout << "  --" << name;
    if (!fallback.empty()) std::cout << " (default: " << fallback << ")";
    std::cout << "\n      " << help << "\n";
  }
  std::cout << "  --help\n      Show this message.\n";
}

}  // namespace udring
