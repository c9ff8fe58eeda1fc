#include "io/flags.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace rmrls {

namespace {

constexpr std::size_t kHelpColumn = 21;  ///< where each flag's help starts
constexpr std::size_t kHelpWidth = 78;   ///< help lines wrap before this

/// "  --name META      help..." with the help word-wrapped at kHelpWidth
/// under kHelpColumn; a label too long for the column gets its own line.
void write_flag(std::ostream& os, const std::string& label,
                const std::string& help) {
  std::string line = "  " + label;
  if (line.size() >= kHelpColumn) {
    os << line << '\n';
    line.clear();
  }
  line.resize(kHelpColumn, ' ');
  std::istringstream words(help);
  std::string word;
  while (words >> word) {
    if (line.size() > kHelpColumn) {
      if (line.size() + 1 + word.size() > kHelpWidth) {
        os << line << '\n';
        line.assign(kHelpColumn, ' ');
      } else {
        line += ' ';
      }
    }
    line += word;
  }
  os << line << '\n';
}

}  // namespace

FlagTable::FlagTable(std::string synopsis) : synopsis_(std::move(synopsis)) {}

FlagTable& FlagTable::section(std::string text) {
  entries_.push_back(Entry{{}, {}, std::move(text), false, nullptr});
  return *this;
}

FlagTable& FlagTable::footer(std::string text) {
  footer_ = std::move(text);
  return *this;
}

FlagTable& FlagTable::add(std::string name, std::string meta,
                          std::string help, bool numeric,
                          std::function<bool(std::string_view)> set) {
  entries_.push_back(Entry{std::move(name), std::move(meta), std::move(help),
                           numeric, std::move(set)});
  return *this;
}

FlagTable& FlagTable::flag(std::string name, bool& target, std::string help,
                           bool value) {
  return add(std::move(name), {}, std::move(help), false,
             [&target, value](std::string_view) {
               target = value;
               return true;
             });
}

FlagTable& FlagTable::text(std::string name, std::string& target,
                           std::string meta, std::string help) {
  return add(std::move(name), std::move(meta), std::move(help), false,
             [&target](std::string_view v) {
               target = v;
               return true;
             });
}

FlagTable& FlagTable::text(std::string name, std::vector<std::string>& target,
                           std::string meta, std::string help) {
  return add(std::move(name), std::move(meta), std::move(help), false,
             [&target](std::string_view v) {
               target.emplace_back(v);
               return true;
             });
}

FlagTable& FlagTable::custom(std::string name, std::string meta,
                             std::string help,
                             std::function<bool(std::string_view)> set) {
  return add(std::move(name), std::move(meta), std::move(help), false,
             std::move(set));
}

void FlagTable::parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(std::cout, argv[0]);
      std::exit(0);
    }
    const auto flag =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == arg; });
    if (arg.empty() || flag == entries_.end()) {
      std::cerr << "unknown argument: " << arg << '\n';
      print_help(std::cerr, argv[0]);
      std::exit(2);
    }
    std::string_view value;
    if (!flag->meta.empty()) {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag->name << '\n';
        std::exit(2);
      }
      value = argv[++i];
    }
    if (!flag->set(value)) {
      if (flag->numeric) {
        std::cerr << "invalid number for " << flag->name << ": ";
      } else {
        std::cerr << flag->name << " wants " << flag->meta << ", got ";
      }
      std::cerr << '\'' << value << "'\n";
      std::exit(2);
    }
  }
}

void FlagTable::print_help(std::ostream& os, std::string_view program) const {
  os << "usage: " << program << ' ' << synopsis_ << '\n';
  for (const Entry& e : entries_) {
    if (e.name.empty()) {
      os << '\n' << e.help << '\n';
    } else {
      write_flag(os, e.meta.empty() ? e.name : e.name + ' ' + e.meta,
                 e.help);
    }
  }
  write_flag(os, "--help, -h", "this text");
  if (!footer_.empty()) os << '\n' << footer_ << '\n';
}

}  // namespace rmrls
