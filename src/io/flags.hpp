/// \file flags.hpp
/// \brief The command-line flag table every front end parses with.
///
/// A front end declares each flag once — name, value kind, allowed range
/// and help text — bound to the variable it sets. The same declarations
/// parse argv and print `--help`, so a flag cannot be parsed without being
/// listed, nor listed without being range-checked. Every value error
/// exits 2 with one of four diagnostics:
///
///   invalid number for NAME: 'VALUE'   junk, trailing junk, a sign on an
///                                      unsigned value, or out of range
///   NAME wants META, got 'VALUE'       a custom() value its parser refused
///   missing value for NAME             the flag was the last argument
///   unknown argument: NAME             followed by the help on stderr
///
/// `--help` / `-h` prints the help on stdout and exits 0.

#pragma once

#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rmrls {

/// Largest MiB count whose byte size (count << 20) fits in std::size_t.
inline constexpr std::size_t kMaxMebibytes = SIZE_MAX >> 20;

/// Reads all of `text` as a T in [lo, hi] into `out`, which is left
/// untouched on failure. std::from_chars rules: no leading '+' or
/// whitespace, no sign on unsigned types, no trailing characters.
template <typename T>
[[nodiscard]] bool parse_number(
    std::string_view text, T& out,
    std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
    std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  // Written so that a NaN, which compares false, is refused.
  if (ec != std::errc() || ptr != end || !(lo <= value && value <= hi)) {
    return false;
  }
  out = value;
  return true;
}

class FlagTable {
 public:
  /// `synopsis` follows "usage: PROGRAM " on the first line of the help.
  explicit FlagTable(std::string synopsis);

  /// Help text printed verbatim after a blank line, at this point of the
  /// flag list: a section title or a paragraph.
  FlagTable& section(std::string text);
  /// Help text printed after the flag list (exit codes, references).
  FlagTable& footer(std::string text);

  /// A switch: its presence stores `value` in `target`.
  FlagTable& flag(std::string name, bool& target, std::string help,
                  bool value = true);

  /// A string value. The vector form is repeatable and keeps every
  /// occurrence in order.
  FlagTable& text(std::string name, std::string& target, std::string meta,
                  std::string help);
  FlagTable& text(std::string name, std::vector<std::string>& target,
                  std::string meta, std::string help);

  /// A number in [lo, hi].
  template <typename T>
    requires std::is_arithmetic_v<T>
  FlagTable& number(
      std::string name, T& target, std::string meta, std::string help,
      std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
      std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
    return add(std::move(name), std::move(meta), std::move(help), true,
               [&target, lo, hi](std::string_view v) {
                 return parse_number(v, target, lo, hi);
               });
  }

  /// A duration given as a count of its own unit, with the count in
  /// [lo, hi] (milliseconds for a std::chrono::milliseconds target).
  template <typename Rep, typename Period>
  FlagTable& number(std::string name,
                    std::chrono::duration<Rep, Period>& target,
                    std::string meta, std::string help,
                    std::type_identity_t<Rep> lo = 0,
                    std::type_identity_t<Rep> hi =
                        std::numeric_limits<Rep>::max()) {
    return add(std::move(name), std::move(meta), std::move(help), true,
               [&target, lo, hi](std::string_view v) {
                 Rep count{};
                 if (!parse_number(v, count, lo, hi)) return false;
                 target = std::chrono::duration<Rep, Period>(count);
                 return true;
               });
  }

  /// A value `set` decodes, returning false to refuse it.
  FlagTable& custom(std::string name, std::string meta, std::string help,
                    std::function<bool(std::string_view)> set);

  /// Applies argv[1..argc) in order and returns once every argument was
  /// accepted; otherwise exits as the file comment describes.
  void parse(int argc, char** argv) const;

  void print_help(std::ostream& os, std::string_view program) const;

 private:
  struct Entry {
    std::string name;  ///< empty for a section()
    std::string meta;  ///< empty for a switch, which takes no value
    std::string help;
    bool numeric = false;  ///< selects the "invalid number" diagnostic
    std::function<bool(std::string_view)> set;
  };

  FlagTable& add(std::string name, std::string meta, std::string help,
                 bool numeric, std::function<bool(std::string_view)> set);

  std::string synopsis_;
  std::string footer_;
  std::vector<Entry> entries_;
};

}  // namespace rmrls
