/// \file test_flags.cpp
/// \brief The shared command-line flag table (io/flags.hpp): both ends of
/// every numeric range, the four usage diagnostics and their exit code 2,
/// repeatable values, and the generated `--help`.

#include "io/flags.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace rmrls {
namespace {

using ::testing::ExitedWithCode;

/// Parses "prog" followed by `args`.
void parse(const FlagTable& flags, std::vector<std::string> args) {
  std::string program = "prog";
  std::vector<char*> argv = {program.data()};
  for (std::string& a : args) argv.push_back(a.data());
  flags.parse(static_cast<int>(argv.size()), argv.data());
}

struct Numbers {
  int small = 0;  // [-1, 100]
  int whole = 0;  // the full int range
  std::uint64_t seed = 7;
  std::size_t mib = 1;  // [1, kMaxMebibytes]
  double rate = 0.5;    // [0, 1]
  std::chrono::milliseconds poll{50};  // [0, INT_MAX]
  FlagTable flags{"[options]"};

  Numbers() {
    flags.number("--small", small, "N", "bounded int", -1, 100)
        .number("--whole", whole, "N", "any int")
        .number("--seed", seed, "N", "any uint64")
        .number("--mib", mib, "N", "size_t MiB count", 1, kMaxMebibytes)
        .number("--rate", rate, "X", "fraction", 0.0, 1.0)
        .number("--poll-ms", poll, "N", "duration", 0,
                std::numeric_limits<int>::max());
  }
};

TEST(Flags, NumbersAcceptBothEndsOfTheirRange) {
  Numbers n;
  parse(n.flags, {"--small", "-1", "--whole", "-2147483648", "--seed", "0",
                  "--mib", "1", "--rate", "0", "--poll-ms", "0"});
  EXPECT_EQ(n.small, -1);
  EXPECT_EQ(n.whole, std::numeric_limits<int>::min());
  EXPECT_EQ(n.seed, 0u);
  EXPECT_EQ(n.mib, 1u);
  EXPECT_EQ(n.rate, 0.0);
  EXPECT_EQ(n.poll.count(), 0);

  parse(n.flags, {"--small", "100", "--whole", "2147483647", "--seed",
                  "18446744073709551615", "--mib",
                  std::to_string(kMaxMebibytes), "--rate", "1", "--poll-ms",
                  "2147483647"});
  EXPECT_EQ(n.small, 100);
  EXPECT_EQ(n.whole, std::numeric_limits<int>::max());
  EXPECT_EQ(n.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(n.mib, kMaxMebibytes);
  EXPECT_EQ(n.rate, 1.0);
  EXPECT_EQ(n.poll.count(), std::numeric_limits<int>::max());
}

TEST(FlagsDeathTest, NumbersOneStepOutsideTheirRangeExit2) {
  Numbers n;
  EXPECT_EXIT(parse(n.flags, {"--small", "-2"}), ExitedWithCode(2),
              "^invalid number for --small: '-2'\n$");
  EXPECT_EXIT(parse(n.flags, {"--small", "101"}), ExitedWithCode(2),
              "invalid number for --small: '101'");
  EXPECT_EXIT(parse(n.flags, {"--whole", "-2147483649"}), ExitedWithCode(2),
              "invalid number for --whole: '-2147483649'");
  EXPECT_EXIT(parse(n.flags, {"--whole", "2147483648"}), ExitedWithCode(2),
              "invalid number for --whole: '2147483648'");
  EXPECT_EXIT(parse(n.flags, {"--seed", "18446744073709551616"}),
              ExitedWithCode(2),
              "invalid number for --seed: '18446744073709551616'");
  EXPECT_EXIT(parse(n.flags, {"--mib", "0"}), ExitedWithCode(2),
              "invalid number for --mib: '0'");
  EXPECT_EXIT(
      parse(n.flags, {"--mib", std::to_string(kMaxMebibytes + 1)}),
      ExitedWithCode(2),
      "invalid number for --mib: '" + std::to_string(kMaxMebibytes + 1) +
          "'");
  EXPECT_EXIT(parse(n.flags, {"--rate", "-0.5"}), ExitedWithCode(2),
              "invalid number for --rate: '-0.5'");
  EXPECT_EXIT(parse(n.flags, {"--rate", "1.0001"}), ExitedWithCode(2),
              "invalid number for --rate: '1.0001'");
  EXPECT_EXIT(parse(n.flags, {"--rate", "nan"}), ExitedWithCode(2),
              "invalid number for --rate: 'nan'");
  EXPECT_EXIT(parse(n.flags, {"--poll-ms", "2147483648"}), ExitedWithCode(2),
              "invalid number for --poll-ms: '2147483648'");
  EXPECT_EXIT(parse(n.flags, {"--poll-ms", "-1"}), ExitedWithCode(2),
              "invalid number for --poll-ms: '-1'");
}

TEST(FlagsDeathTest, SignsOnUnsignedValuesAndJunkAreRefused) {
  Numbers n;
  // A sign would otherwise wrap -1 to 2^64 - 1.
  EXPECT_EXIT(parse(n.flags, {"--seed", "-1"}), ExitedWithCode(2),
              "invalid number for --seed: '-1'");
  EXPECT_EXIT(parse(n.flags, {"--mib", "-0"}), ExitedWithCode(2),
              "invalid number for --mib: '-0'");
  EXPECT_EXIT(parse(n.flags, {"--whole", "12x"}), ExitedWithCode(2),
              "invalid number for --whole: '12x'");
  EXPECT_EXIT(parse(n.flags, {"--rate", "0.5x"}), ExitedWithCode(2),
              "invalid number for --rate: '0.5x'");
  EXPECT_EXIT(parse(n.flags, {"--whole", ""}), ExitedWithCode(2),
              "invalid number for --whole: ''");
  EXPECT_EXIT(parse(n.flags, {"--whole", "+5"}), ExitedWithCode(2),
              "invalid number for --whole: '\\+5'");
  EXPECT_EXIT(parse(n.flags, {"--whole", " 5"}), ExitedWithCode(2),
              "invalid number for --whole: ' 5'");
}

TEST(FlagsDeathTest, MissingValueExits2) {
  Numbers n;
  EXPECT_EXIT(parse(n.flags, {"--small", "3", "--seed"}), ExitedWithCode(2),
              "^missing value for --seed\n$");
}

TEST(FlagsDeathTest, UnknownArgumentPrintsTheHelpToStderr) {
  Numbers n;
  EXPECT_EXIT(parse(n.flags, {"--small", "3", "--nope"}), ExitedWithCode(2),
              "^unknown argument: --nope\nusage: prog \\[options\\]\n"
              "  --small N .*--help, -h");
  EXPECT_EXIT(parse(n.flags, {"positional"}), ExitedWithCode(2),
              "^unknown argument: positional\n");
}

TEST(Flags, RepeatableTextAccumulatesInOrder) {
  std::vector<std::string> submits;
  std::vector<std::string> raws;
  std::vector<std::string> daemon_args;
  std::string out;
  FlagTable flags("[ops]");
  flags.text("--submit", submits, "SPEC", "repeatable")
      .text("--raw", raws, "LINE", "repeatable")
      .text("--daemon-arg", daemon_args, "ARG", "repeatable")
      .text("--out", out, "FILE", "last one wins");
  // A value is taken verbatim even when it looks like a flag.
  parse(flags, {"--submit", "{1,0}", "--daemon-arg", "--workers", "--raw",
                "not json", "--daemon-arg", "2", "--submit", "{0,1}",
                "--out", "a", "--out", "b", "--raw", ""});
  EXPECT_EQ(submits, (std::vector<std::string>{"{1,0}", "{0,1}"}));
  EXPECT_EQ(raws, (std::vector<std::string>{"not json", ""}));
  EXPECT_EQ(daemon_args, (std::vector<std::string>{"--workers", "2"}));
  EXPECT_EQ(out, "b");
}

TEST(Flags, SwitchesStoreTheirValueAndTakeNoArgument) {
  bool on = false;
  bool history = true;
  int n = 0;
  FlagTable flags("[options]");
  flags.flag("--on", on, "sets true")
      .flag("--no-history", history, "sets false", false)
      .number("--n", n, "N", "a number");
  parse(flags, {"--on", "--n", "4", "--no-history"});
  EXPECT_TRUE(on);
  EXPECT_FALSE(history);
  EXPECT_EQ(n, 4);
}

TEST(FlagsDeathTest, RefusedCustomValueNamesWhatTheFlagWants) {
  std::string scope;
  FlagTable flags("[options]");
  flags.custom("--scope", "c|additional|any", "substitution scope",
               [&](std::string_view v) {
                 if (v != "c" && v != "additional" && v != "any") {
                   return false;
                 }
                 scope = v;
                 return true;
               });
  parse(flags, {"--scope", "any"});
  EXPECT_EQ(scope, "any");
  EXPECT_EXIT(parse(flags, {"--scope", "bogus"}), ExitedWithCode(2),
              "^--scope wants c\\|additional\\|any, got 'bogus'\n$");
  EXPECT_EXIT(parse(flags, {"--scope"}), ExitedWithCode(2),
              "missing value for --scope");
}

TEST(FlagsDeathTest, HelpListsEveryFlagInDeclarationOrderAndExits0) {
  bool quick = false;
  int size = 96;
  std::string json;
  std::vector<std::string> raws;
  FlagTable flags("[options]");
  flags.section("Corpus:")
      .number("--size", size, "N",
              "corpus size; a help text long enough that it has to wrap onto"
              " a second line under the help column",
              0)
      .custom("--family", "hwb|prime", "family", [](std::string_view) {
        return true;
      });
  flags.section("Output:")
      .text("--json", json, "FILE", "report")
      .text("--raw", raws, "LINE", "repeatable")
      .flag("--quick", quick, "CTest mode")
      .text("--a-very-long-flag-name", json, "VALUE", "own line")
      .footer("Exit codes: 0 ok; 2 usage.");

  std::ostringstream os;
  flags.print_help(os, "prog");
  const std::string help = os.str();
  EXPECT_EQ(help.rfind("usage: prog [options]\n", 0), 0u) << help;
  std::size_t at = 0;
  for (const char* expected :
       {"\nCorpus:\n", "\n  --size N           corpus size;",
        "\n                     onto a second line",
        "\n  --family hwb|prime family\n", "\nOutput:\n",
        "\n  --json FILE        report\n",
        "\n  --raw LINE         repeatable\n",
        "\n  --quick            CTest mode\n",
        "\n  --a-very-long-flag-name VALUE\n                     own line\n",
        "\n  --help, -h         this text\n",
        "\nExit codes: 0 ok; 2 usage.\n"}) {
    const std::size_t found = help.find(expected, at);
    ASSERT_NE(found, std::string::npos) << "missing or out of order: '"
                                        << expected << "' in\n"
                                        << help;
    at = found + 1;
  }
  std::istringstream lines(help);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_LE(line.size(), 78u) << line;
  }

  EXPECT_EXIT(parse(flags, {"--help"}), ExitedWithCode(0), "^$");
  EXPECT_EXIT(parse(flags, {"--size", "3", "-h"}), ExitedWithCode(0), "^$");
  // Arguments are applied in order: an error before --help wins.
  EXPECT_EXIT(parse(flags, {"--size", "x", "--help"}), ExitedWithCode(2),
              "invalid number for --size: 'x'");
}

}  // namespace
}  // namespace rmrls
