// Strict command-line flags, shared by pfaird, pfair_trace and pfair_perf.
//
// A tool declares its flags in a table: each is a bare switch (--all) or
// a --key=value whose value must parse in full as the declared type.
// Any other argument is refused — an unknown key (a typo such as
// --procesors=8), a value that does not parse (--processors=abc) or a
// negative value where the flag forbids one (--tasks=-1) — so the tool
// exits 1 naming it instead of running on a default.
//
//   constexpr tools::FlagSpec kFlags[] = {{"processors", tools::FlagValue::kCount},
//                                         {"all", tools::FlagValue::kSwitch}};
//   const tools::Flags flags("mytool", argc, argv, 1, kFlags);
//   if (!flags.ok()) return usage();
//   const long long m = flags.integer("processors", 2);
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>

namespace pfair::tools {

/// What a flag's value must parse as.  kCount and kAmount refuse a
/// negative value (kAmount also NaN): a negative count would wrap to a
/// huge one, and a negative amount would charge a negative cost.
enum class FlagValue : std::uint8_t {
  kSwitch,  ///< bare --key, no value
  kText,    ///< --key=anything
  kInt,     ///< --key=integer
  kCount,   ///< --key=integer >= 0
  kAmount,  ///< --key=number >= 0
};

struct FlagSpec {
  std::string_view key;
  FlagValue value;
};

/// `v` as a number, or no value unless all of it parses.
template <typename T>
std::optional<T> parse_number(std::string_view v) {
  T n{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  if (ec != std::errc{} || end != v.data() + v.size()) return std::nullopt;
  return n;
}

/// The arguments argv[first..argc) read against one flag table.  A key
/// given twice reads as its first occurrence.
class Flags {
 public:
  Flags(const char* tool, int argc, char** argv, int first, std::span<const FlagSpec> specs)
      : tool_(tool), argc_(argc), argv_(argv), first_(first), specs_(specs) {}

  /// True when every argument is a declared flag with a well-formed
  /// value; otherwise prints "<tool>: bad argument '<arg>'" for the
  /// first one that is not and returns false.
  [[nodiscard]] bool ok() const {
    for (int i = first_; i < argc_; ++i) {
      if (!well_formed(argv_[i])) {
        std::fprintf(stderr, "%s: bad argument '%s'\n", tool_, argv_[i]);
        return false;
      }
    }
    return true;
  }

  /// --key=value's value; nullptr when absent.
  [[nodiscard]] const char* text(std::string_view key) const {
    for (int i = first_; i < argc_; ++i) {
      const std::string_view arg = argv_[i];
      if (arg.starts_with("--") && arg.substr(2).starts_with(key) &&
          arg.substr(2 + key.size()).starts_with('='))
        return argv_[i] + 3 + key.size();
    }
    return nullptr;
  }

  /// --key=N; `fallback` when absent (ok() refuses a malformed value).
  [[nodiscard]] long long integer(std::string_view key, long long fallback) const {
    const char* v = text(key);
    return v == nullptr ? fallback : parse_number<long long>(v).value_or(fallback);
  }

  /// --key=X as a double; `fallback` when absent.
  [[nodiscard]] double number(std::string_view key, double fallback) const {
    const char* v = text(key);
    return v == nullptr ? fallback : parse_number<double>(v).value_or(fallback);
  }

  /// True when the bare switch --key is given.
  [[nodiscard]] bool has(std::string_view key) const {
    for (int i = first_; i < argc_; ++i) {
      const std::string_view arg = argv_[i];
      if (arg.starts_with("--") && arg.substr(2) == key) return true;
    }
    return false;
  }

 private:
  [[nodiscard]] bool well_formed(std::string_view arg) const {
    if (!arg.starts_with("--")) return false;
    const std::size_t eq = arg.find('=');
    const std::string_view key = arg.substr(2, eq == std::string_view::npos ? eq : eq - 2);
    const auto spec = std::find_if(specs_.begin(), specs_.end(),
                                   [key](const FlagSpec& f) { return f.key == key; });
    if (spec == specs_.end()) return false;
    if (spec->value == FlagValue::kSwitch) return eq == std::string_view::npos;
    if (eq == std::string_view::npos) return false;
    const std::string_view value = arg.substr(eq + 1);
    switch (spec->value) {
      case FlagValue::kSwitch:
      case FlagValue::kText: return true;
      case FlagValue::kInt: return parse_number<long long>(value).has_value();
      // value_or(-1) turns a value that does not parse into a negative one.
      case FlagValue::kCount: return parse_number<long long>(value).value_or(-1) >= 0;
      case FlagValue::kAmount: return parse_number<double>(value).value_or(-1.0) >= 0.0;
    }
    return false;
  }

  const char* tool_;
  int argc_;
  char** argv_;
  int first_;
  std::span<const FlagSpec> specs_;
};

/// Reports a configuration the library refused (the std::invalid_argument
/// of make_simulator, the daemon or the request generator); the usage
/// status.
inline int bad_config(const char* tool, const std::invalid_argument& e) {
  std::fprintf(stderr, "%s: %s\n", tool, e.what());
  return 1;
}

}  // namespace pfair::tools
