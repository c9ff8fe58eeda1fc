// Tests for the hardened (checked) parsers of io/: malformed input must
// come back as a structured Status with a file:line diagnostic, never as
// an exception or a crash (docs/robustness.md). The throwing wrappers are
// covered separately in test_io.cpp; here we pin the Status categories and
// diagnostics of the checked layer against a malformed-input corpus.

#include <gtest/gtest.h>

#include <string>

#include "core/status.hpp"
#include "io/spec.hpp"
#include "io/tfc.hpp"

namespace rmrls {
namespace {

// --- Status / Result plumbing ---------------------------------------------

TEST(Status, RendersFileLineDiagnostics) {
  const Status s = Status::parse_error("input.tfc", 7, "missing END");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.to_string(), "input.tfc:7: missing END");
  EXPECT_EQ(s.file(), "input.tfc");
  EXPECT_EQ(s.line(), 7);

  const Status no_line = Status::invalid_spec("spec.txt", "not a permutation");
  EXPECT_EQ(no_line.to_string(), "spec.txt: not a permutation");

  const Status bare(StatusCode::kInternal, "boom");
  EXPECT_EQ(bare.to_string(), "boom");
  EXPECT_TRUE(Status().ok());
}

TEST(Status, ExitCodesAreDistinctPerCategory) {
  EXPECT_EQ(exit_code_for(StatusCode::kOk), 0);
  EXPECT_EQ(exit_code_for(StatusCode::kInvalidArgument), 2);
  EXPECT_EQ(exit_code_for(StatusCode::kParseError), 3);
  EXPECT_EQ(exit_code_for(StatusCode::kInvalidSpec), 3);
  EXPECT_EQ(exit_code_for(StatusCode::kBudgetExhausted), 4);
  EXPECT_EQ(exit_code_for(StatusCode::kCancelled), 5);
  EXPECT_EQ(exit_code_for(StatusCode::kInternal), 6);
}

TEST(Result, ValueAccessOnErrorIsLoud) {
  Result<int> r = Status::parse_error("f", 1, "bad");
  EXPECT_FALSE(r.ok());
  EXPECT_THROW((void)r.value(), std::logic_error);
  Result<int> good = 42;
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
}

// --- .tfc ------------------------------------------------------------------

Status tfc_status(const std::string& text) {
  const Result<Circuit> r = read_tfc_checked(text, "in.tfc");
  EXPECT_FALSE(r.ok()) << text;
  return r.status();
}

TEST(TfcRobustness, AcceptsWellFormed) {
  const Result<Circuit> r = read_tfc_checked(
      ".v a,b,c\nBEGIN\nt1 a\nt3 a,c,b\nEND\n", "in.tfc");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value().gate_count(), 2);
}

TEST(TfcRobustness, TruncatedFile) {
  const Status s = tfc_status(".v a,b\nBEGIN\nt1 a\n");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.to_string().find("in.tfc:"), std::string::npos);
  EXPECT_NE(s.to_string().find("missing END"), std::string::npos);
}

TEST(TfcRobustness, ContentAfterEnd) {
  const Status s = tfc_status(".v a\nBEGIN\nEND\nt1 a\n");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.line(), 4);
}

TEST(TfcRobustness, DuplicateLineNames) {
  const Status s = tfc_status(".v a,a\nBEGIN\nEND\n");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.line(), 1);
  EXPECT_NE(s.message().find("duplicate"), std::string::npos);
}

TEST(TfcRobustness, GateOutsideBody) {
  EXPECT_EQ(tfc_status(".v a\nt1 a\nBEGIN\nEND\n").code(),
            StatusCode::kParseError);
}

TEST(TfcRobustness, ArityMismatch) {
  EXPECT_EQ(tfc_status(".v a,b\nBEGIN\nt3 a,b\nEND\n").code(),
            StatusCode::kParseError);
}

TEST(TfcRobustness, HugeArityDoesNotOverflow) {
  // 99999999999999999999 does not fit an int; stoi-based parsing threw,
  // from_chars reports out-of-range and the parser must diagnose it.
  const Status s =
      tfc_status(".v a,b\nBEGIN\nt99999999999999999999 a,b\nEND\n");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("arity"), std::string::npos);
}

TEST(TfcRobustness, UnknownLineAndUnknownGate) {
  EXPECT_EQ(tfc_status(".v a,b\nBEGIN\nt1 z\nEND\n").code(),
            StatusCode::kParseError);
  EXPECT_EQ(tfc_status(".v a,b\nBEGIN\nf2 a,b\nEND\n").code(),
            StatusCode::kParseError);
}

TEST(TfcRobustness, TooManyLines) {
  std::string text = ".v l0";
  for (int i = 1; i < 70; ++i) text += ",l" + std::to_string(i);
  text += "\nBEGIN\nEND\n";
  const Status s = tfc_status(text);
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

TEST(TfcRobustness, ThrowingWrapperStillThrows) {
  EXPECT_THROW((void)read_tfc(".v a\nBEGIN\n"), std::invalid_argument);
}

// --- permutation specs -----------------------------------------------------

Status spec_status(const std::string& text) {
  const Result<TruthTable> r = parse_permutation_spec_checked(text, "in.spec");
  EXPECT_FALSE(r.ok()) << text;
  return r.status();
}

TEST(SpecRobustness, AcceptsWellFormed) {
  const Result<TruthTable> r =
      parse_permutation_spec_checked("{1, 0, 7, 2, 3, 4, 5, 6}", "in.spec");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value().size(), 8u);
}

TEST(SpecRobustness, EmptySpec) {
  EXPECT_EQ(spec_status("").code(), StatusCode::kParseError);
  EXPECT_EQ(spec_status("# only a comment\n").code(),
            StatusCode::kParseError);
}

TEST(SpecRobustness, GarbageCharacterWithLineNumber) {
  const Status s = spec_status("0 1\n2 x 3\n");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.line(), 2);
}

TEST(SpecRobustness, SemanticErrorsAreInvalidSpec) {
  // Well-formed text, bad function: distinct category from parse errors.
  EXPECT_EQ(spec_status("0 0 1 2").code(), StatusCode::kInvalidSpec);
  EXPECT_EQ(spec_status("0 1 2").code(), StatusCode::kInvalidSpec);
  EXPECT_EQ(spec_status("0 1 2 5").code(), StatusCode::kInvalidSpec);
}

TEST(SpecRobustness, HugeEntryDoesNotWrap) {
  // 2^64 + 1 would alias 1 if the accumulator wrapped; the parser must
  // reject it as a parse error instead of reporting "duplicate entry 1".
  const Status s = spec_status("18446744073709551617 0");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("too large"), std::string::npos);
}

TEST(SpecRobustness, ThrowingWrapperStillThrows) {
  EXPECT_THROW((void)parse_permutation_spec("0 0 1 2"),
               std::invalid_argument);
}

}  // namespace
}  // namespace rmrls
