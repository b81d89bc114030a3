// Self-tests for the rtlint determinism linter: every rule must fire on
// its fixture, the annotated fixture must lint clean, and the real source
// tree must stay clean (the latter enforced by the rtlint_source_tree ctest
// entry driving the CLI; here we exercise the library).
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rtlint/rtlint.hpp"

namespace {

using rtlint::Diagnostic;

std::string fixture(const std::string& name) {
  return std::string(RTLINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Diagnostic> lint_fixture(const std::string& name,
                                     rtlint::LintOptions options = {}) {
  return rtlint::lint_tree({fixture(name)}, std::move(options));
}

std::size_t count_rule(const std::vector<Diagnostic>& diagnostics, const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

TEST(RtlintScrub, BlanksCommentsAndStringsPreservingLines) {
  const std::string source =
      "int x = 1; // std::rand here\n"
      "const char* s = \"time(nullptr)\";\n"
      "/* block\n   std::rand */ int y = 2;\n";
  const std::string scrubbed = rtlint::scrub(source);
  EXPECT_EQ(std::count(scrubbed.begin(), scrubbed.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
  EXPECT_EQ(scrubbed.find("std::rand"), std::string::npos);
  EXPECT_EQ(scrubbed.find("time(nullptr)"), std::string::npos);
  EXPECT_NE(scrubbed.find("int y = 2;"), std::string::npos);
}

TEST(RtlintScrub, HandlesEscapesAndRawStrings) {
  const std::string source =
      "const char* a = \"quote \\\" std::rand\";\n"
      "const char* b = R\"(raw time(nullptr) raw)\";\n"
      "char c = '\\'';\n"
      "int real = 0;\n";
  const std::string scrubbed = rtlint::scrub(source);
  EXPECT_EQ(scrubbed.find("std::rand"), std::string::npos);
  EXPECT_EQ(scrubbed.find("time(nullptr)"), std::string::npos);
  EXPECT_NE(scrubbed.find("int real = 0;"), std::string::npos);
}

TEST(RtlintRules, NondeterministicSourceFires) {
  const auto diagnostics = lint_fixture("fixture_nondeterministic.cpp");
  EXPECT_GE(count_rule(diagnostics, "nondeterministic-source"), 4u)
      << "srand, time(nullptr), random_device, and std::rand must all fire";
  for (const Diagnostic& d : diagnostics) EXPECT_EQ(d.rule, "nondeterministic-source");
}

TEST(RtlintRules, UnorderedIterFiresAndSparesOrderedOuter) {
  const auto diagnostics = lint_fixture("fixture_unordered_iter.cpp");
  EXPECT_EQ(count_rule(diagnostics, "unordered-iter"), 3u)
      << "member map, set, and function-result loops fire; the vector-of-maps "
         "loop must not";
  for (const Diagnostic& d : diagnostics) EXPECT_EQ(d.rule, "unordered-iter");
}

TEST(RtlintRules, FloatEqFiresOnLiteralsOnly) {
  const auto diagnostics = lint_fixture("fixture_float_eq.cpp");
  EXPECT_EQ(count_rule(diagnostics, "float-eq"), 6u)
      << "==0.0, !=1.5f, ==1e-9 and the three scale/ratio/factor variable "
         "comparisons fire; >=, <= and integer == must not";
  // The variable-vs-variable diagnostics name both operands and point at
  // the bit-pattern helper.
  bool saw_hinted = false;
  for (const Diagnostic& d : diagnostics)
    if (d.message.find("time_bits_eq") != std::string::npos) {
      saw_hinted = true;
      EXPECT_NE(d.message.find("'"), std::string::npos) << d.message;
    }
  EXPECT_TRUE(saw_hinted)
      << "scale/ratio/factor comparisons must carry the bit-pattern hint";
}

TEST(RtlintRules, DiscardedErrorFiresOnBareStatements) {
  const auto diagnostics = lint_fixture("fixture_discarded_error.cpp");
  EXPECT_EQ(count_rule(diagnostics, "discarded-error"), 2u)
      << "bare try_parse(...) and checked_divide(...) statements fire; "
         "assigned and tested calls must not";
}

TEST(RtlintRules, IncludeHygieneFires) {
  const auto diagnostics = lint_fixture("fixture_include_hygiene.hpp");
  EXPECT_EQ(count_rule(diagnostics, "include-hygiene"), 3u)
      << "missing #pragma once, \"../\" include, and <bits/...> include";
}

TEST(RtlintRules, RawIoFiresOnGlobalCallsOnly) {
  const auto diagnostics = lint_fixture("fixture_raw_io.cpp");
  EXPECT_EQ(count_rule(diagnostics, "raw-io"), 4u)
      << "::write, ::read, ::send and ::recv fire; istream member calls and "
         "the annotated call must not";
  for (const Diagnostic& d : diagnostics) EXPECT_EQ(d.rule, "raw-io");
}

TEST(RtlintRules, RawIoSparesWrappersViaAnnotation) {
  // The wrapper implementation itself carries inline allow(raw-io)
  // annotations; linting a snippet in its style must come back clean.
  const std::string source =
      "long wrap(int fd, char* b, unsigned long n) {\n"
      "  // rtlint: allow(raw-io) this IS the checked wrapper\n"
      "  return ::read(fd, b, n);\n"
      "}\n";
  EXPECT_TRUE(rtlint::lint_source("io.cpp", source, {}).empty());
}

TEST(RtlintRules, RawSocketFiresOnGlobalCallsOnly) {
  const auto diagnostics = lint_fixture("fixture_raw_socket.cpp");
  EXPECT_EQ(count_rule(diagnostics, "raw-socket"), 3u)
      << "::socket, ::connect and ::accept fire; member calls, a qualified "
         "static member and the annotated call must not";
  for (const Diagnostic& d : diagnostics) {
    EXPECT_EQ(d.rule, "raw-socket");
    EXPECT_NE(d.message.find("TCP_NODELAY"), std::string::npos) << d.message;
  }
}

TEST(RtlintRules, RawSocketAllowlistCarvesOutOnlyTheIoHelpers) {
  // The repo's own allowlist exempts src/service/io.cpp, the one file that
  // makes sockets; the same call anywhere else in the service still fires.
  std::ifstream in(std::string(RTLINT_FIXTURE_DIR) + "/../../tools/rtlint.allow");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  rtlint::LintOptions options;
  options.allowlist = rtlint::parse_allowlist(text.str());
  const std::string source = "int make() { return ::socket(2, 1, 0); }\n";
  EXPECT_TRUE(rtlint::lint_source("src/service/io.cpp", source, options).empty());
  EXPECT_EQ(count_rule(rtlint::lint_source("src/service/server.cpp", source, options),
                       "raw-socket"),
            1u);
  EXPECT_EQ(count_rule(rtlint::lint_source("tools/rtpfault/main.cpp", source, options),
                       "raw-socket"),
            1u);
}

TEST(RtlintSuppression, InlineAnnotationsSilenceEachRule) {
  EXPECT_TRUE(lint_fixture("fixture_allowed.cpp").empty());
}

TEST(RtlintSuppression, CleanFixtureIsClean) {
  EXPECT_TRUE(lint_fixture("fixture_clean.cpp").empty());
}

TEST(RtlintSuppression, AllowlistEntriesMatchSuffixAndLine) {
  rtlint::LintOptions options;
  options.allowlist = rtlint::parse_allowlist(
      "# comment\n"
      "float-eq fixture_float_eq.cpp\n"
      "unordered-iter tests/rtlint_fixtures/fixture_unordered_iter.cpp\n");
  EXPECT_EQ(count_rule(lint_fixture("fixture_float_eq.cpp", options), "float-eq"), 0u);
  EXPECT_EQ(count_rule(lint_fixture("fixture_unordered_iter.cpp", options), "unordered-iter"),
            0u);
  // A line-qualified entry only suppresses that line.
  const auto all = lint_fixture("fixture_float_eq.cpp");
  ASSERT_FALSE(all.empty());
  rtlint::LintOptions one_line;
  one_line.allowlist = rtlint::parse_allowlist(
      "float-eq fixture_float_eq.cpp:" + std::to_string(all.front().line) + "\n");
  const auto remaining = lint_fixture("fixture_float_eq.cpp", one_line);
  EXPECT_EQ(remaining.size(), all.size() - 1);
}

TEST(RtlintSuppression, MalformedAllowlistThrows) {
  EXPECT_THROW(rtlint::parse_allowlist("lonely-rule-without-path\n"), std::runtime_error);
}

TEST(RtlintApi, CollectNodiscardNames) {
  const auto names = rtlint::collect_nodiscard_names(
      "std::optional<int> lookup(int key);\n"
      "[[nodiscard]] bool must_check(double x);\n"
      "void plain(int);\n");
  EXPECT_NE(std::find(names.begin(), names.end(), "lookup"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "must_check"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "plain"), names.end());
}

TEST(RtlintApi, DiagnosticsCarryFileAndLine) {
  const auto diagnostics = lint_fixture("fixture_float_eq.cpp");
  ASSERT_FALSE(diagnostics.empty());
  const std::string formatted = rtlint::format_diagnostic(diagnostics.front());
  EXPECT_NE(formatted.find("fixture_float_eq.cpp:"), std::string::npos);
  EXPECT_NE(formatted.find("[float-eq]"), std::string::npos);
  for (const Diagnostic& d : diagnostics) EXPECT_GT(d.line, 0u);
}

TEST(RtlintApi, LintSourceSeesPairHeaderMembers) {
  // A .cpp iterating a member declared unordered in its header must fire
  // even though the declaration is not in the .cpp itself.
  const std::string header = "#pragma once\n#include <unordered_map>\n"
                             "struct S { std::unordered_map<int, int> table_; void f(); };\n";
  const std::string source = "void S::f() {\n  for (auto& [k, v] : table_) v = k;\n}\n";
  const auto with_pair = rtlint::lint_source("s.cpp", source, {}, header);
  EXPECT_EQ(count_rule(with_pair, "unordered-iter"), 1u);
  const auto without_pair = rtlint::lint_source("s.cpp", source, {});
  EXPECT_EQ(count_rule(without_pair, "unordered-iter"), 0u);
}

}  // namespace
