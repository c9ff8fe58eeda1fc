// Tests for the .tfc reader/writer, the permutation-spec parser, and the
// table printer used by the bench harnesses.

#include <gtest/gtest.h>

#include <random>

#include "io/spec.hpp"
#include "io/table.hpp"
#include "io/tfc.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

TEST(Tfc, WriteContainsExpectedSections) {
  Circuit c(3);
  c.append(Gate(cube_of_var(0) | cube_of_var(2), 1));
  c.append(Gate(kConstOne, 0));
  const std::string text = write_tfc(c);
  EXPECT_NE(text.find(".v a,b,c"), std::string::npos);
  EXPECT_NE(text.find("BEGIN"), std::string::npos);
  EXPECT_NE(text.find("t3 a,c,b"), std::string::npos);
  EXPECT_NE(text.find("t1 a"), std::string::npos);
  EXPECT_NE(text.find("END"), std::string::npos);
}

// Exact bytes of the writer, with letter names and with x names.
TEST(Tfc, WriteExactBytes) {
  Circuit small(3);
  small.append(Gate(cube_of_var(0) | cube_of_var(2), 1));
  small.append(Gate(kConstOne, 0));
  small.append(Gate(cube_of_var(1), 2));
  EXPECT_EQ(write_tfc(small),
            ".v a,b,c\n"
            ".i a,b,c\n"
            ".o a,b,c\n"
            "BEGIN\n"
            "t3 a,c,b\n"
            "t1 a\n"
            "t2 b,c\n"
            "END\n");
  EXPECT_EQ(write_tfc(Circuit(3)),
            ".v a,b,c\n.i a,b,c\n.o a,b,c\nBEGIN\nEND\n");

  Circuit wide(27);
  wide.append(Gate(cube_of_var(0) | cube_of_var(9) | cube_of_var(26), 13));
  wide.append(Gate(kConstOne, 26));
  wide.append(Gate(cube_of_var(25), 10));
  const std::string names =
      "x0,x1,x2,x3,x4,x5,x6,x7,x8,x9,x10,x11,x12,x13,x14,x15,x16,x17,x18,"
      "x19,x20,x21,x22,x23,x24,x25,x26";
  EXPECT_EQ(write_tfc(wide), ".v " + names + "\n.i " + names + "\n.o " +
                                 names +
                                 "\nBEGIN\n"
                                 "t4 x0,x9,x26,x13\n"
                                 "t1 x26\n"
                                 "t2 x25,x10\n"
                                 "END\n");
}

TEST(Tfc, RoundTripPreservesCircuits) {
  std::mt19937_64 rng(61);
  for (int n : {2, 3, 5, 8, 27}) {
    const Circuit c = random_circuit(n, 15, GateLibrary::kGT, rng);
    EXPECT_EQ(read_tfc(write_tfc(c)), c) << "width " << n;
  }
}

TEST(Tfc, ParsesHandWrittenFile) {
  const std::string text =
      "# a comment\n"
      ".v a,b,c\n"
      ".i a,b,c\n"
      ".o a,b,c\n"
      "BEGIN\n"
      "t2 a,b  # CNOT\n"
      "t1 c\n"
      "END\n";
  const Circuit c = read_tfc(text);
  EXPECT_EQ(c.num_lines(), 3);
  ASSERT_EQ(c.gate_count(), 2);
  EXPECT_EQ(c.gates()[0], Gate(cube_of_var(0), 1));
  EXPECT_EQ(c.gates()[1], Gate(kConstOne, 2));
}

TEST(Tfc, RejectsMalformedInput) {
  EXPECT_THROW(read_tfc("BEGIN\nEND\n"), std::invalid_argument);  // no .v
  EXPECT_THROW(read_tfc(".v a,b\nt1 a\n"), std::invalid_argument);  // no BEGIN
  EXPECT_THROW(read_tfc(".v a,b\nBEGIN\nt1 z\nEND\n"),
               std::invalid_argument);  // unknown line
  EXPECT_THROW(read_tfc(".v a,b\nBEGIN\nt3 a,b\nEND\n"),
               std::invalid_argument);  // arity mismatch
  EXPECT_THROW(read_tfc(".v a,b\nBEGIN\nt2 a,a\nEND\n"),
               std::invalid_argument);  // repeated operand
  EXPECT_THROW(read_tfc(".v a,b\nBEGIN\nf2 a,b\nEND\n"),
               std::invalid_argument);  // unsupported gate kind
  EXPECT_THROW(read_tfc(".v a,b\nBEGIN\n"), std::invalid_argument);  // no END
  EXPECT_THROW(read_tfc(".v a,a\nBEGIN\nEND\n"),
               std::invalid_argument);  // duplicate line name
}

TEST(SpecParser, AcceptsPaperNotation) {
  const TruthTable t = parse_permutation_spec("{1, 0, 7, 2, 3, 4, 5, 6}");
  EXPECT_EQ(t.apply(2), 7u);
  EXPECT_EQ(t.num_vars(), 3);
}

TEST(SpecParser, AcceptsBareAndMultilineForms) {
  EXPECT_EQ(parse_permutation_spec("1 0\n"), TruthTable({1, 0}));
  EXPECT_EQ(parse_permutation_spec("# header\n3,2,\n1,0"),
            TruthTable({3, 2, 1, 0}));
}

TEST(SpecParser, RejectsGarbage) {
  EXPECT_THROW(parse_permutation_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_permutation_spec("1 0 x"), std::invalid_argument);
  EXPECT_THROW(parse_permutation_spec("0 0 1 2"), std::invalid_argument);
  EXPECT_THROW(parse_permutation_spec("0 1 2"), std::invalid_argument);
}

TEST(SpecParser, RoundTripsWithWriter) {
  const TruthTable t({3, 0, 2, 7, 1, 4, 6, 5});
  EXPECT_EQ(parse_permutation_spec(write_permutation_spec(t)), t);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "gates"});
  t.add_row({"rd53", "13"});
  t.add_row({"alu", "118"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name  gates"), std::string::npos);
  EXPECT_NE(s.find("rd53     13"), std::string::npos);
  EXPECT_NE(s.find(" alu    118"), std::string::npos);
}

TEST(TextTable, RejectsAriityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(Fixed, FormatsDoubles) {
  EXPECT_EQ(fixed(6.104, 2), "6.10");
  EXPECT_EQ(fixed(0.5, 0), "0");
  EXPECT_EQ(fixed(1.0 / 3.0, 4), "0.3333");
}

}  // namespace
}  // namespace rmrls
