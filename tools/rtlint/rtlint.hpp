// rtlint — repo-specific determinism linter.
//
// The project's headline contract is reproducibility: byte-identical tables
// at any thread count, service answers bit-identical to the recompute oracle,
// policy-independent fault sequences.  Generic tools (compilers, clang-tidy,
// sanitizers) cannot check the conventions that contract rests on, so this
// tool does.  It scans a comment- and string-scrubbed view of every source
// file and enforces:
//
//   nondeterministic-source  no std::rand/srand/random_device/time(nullptr)/
//                            gettimeofday/... outside src/core/rng; all
//                            randomness must flow through a seeded rtp::Rng
//   unordered-iter           no range-for over a std::unordered_{map,set}
//                            (hash order is not part of any contract; an
//                            iteration that feeds results or output makes
//                            the answer depend on it)
//   float-eq                 no ==/!= against floating-point literals
//                            (exact-representation sentinels compare via
//                            named constants; everything else via an
//                            explicit tolerance helper), and no
//                            variable==variable where either name contains
//                            scale/ratio/factor — those are floating-point
//                            cache keys and must compare bit patterns
//                            (rtp::time_bits_eq) so ±0.0 stay distinct and
//                            NaN keys still hit
//   discarded-error          calls to try_*/std::optional-returning/
//                            [[nodiscard]]-annotated functions declared in
//                            this tree must not be discarded as bare
//                            expression statements
//   include-hygiene          headers carry #pragma once; no "../" relative
//                            includes; no <bits/...> internals
//   raw-io                   no global-qualified ::write/::read/::send/::recv
//                            calls outside the checked wrappers in
//                            src/service/io.hpp (which retry EINTR, loop
//                            partial transfers, and classify errno)
//   raw-socket               no global-qualified ::socket/::accept/::connect
//                            calls outside src/service/io.cpp, whose
//                            helpers set TCP_NODELAY on every TCP socket
//
// Suppression is explicit and auditable: an inline
//   // rtlint: allow(<rule>) <justification>
// on the flagged line, or an entry in the allowlist file
// ("<rule> <path-suffix>[:<line>]").  Diagnostics print as
// "file:line: [rule] message" and the CLI exits non-zero if any survive.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rtlint {

struct Diagnostic {
  std::string path;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

struct AllowEntry {
  std::string rule;         // exact rule name, or "*"
  std::string path_suffix;  // matches if the diagnostic path ends with this
  std::size_t line = 0;     // 0 = any line
};

struct LintOptions {
  std::vector<AllowEntry> allowlist;
  /// Names of functions (declared anywhere in the linted tree) whose return
  /// value must not be discarded.  Populated by collect_nodiscard_names().
  std::vector<std::string> nodiscard_functions;
};

/// All rule names, for --list-rules and fixture tests.
const std::vector<std::string>& rule_names();

/// Replace comments and string/character literal contents with spaces,
/// preserving line structure, so rules never fire inside text.  Inline
/// `rtlint: allow(...)` annotations are honoured before scrubbing.
std::string scrub(std::string_view source);

/// Parse an allowlist file.  Lines: `<rule> <path-suffix>[:<line>]`,
/// blank lines and `#` comments ignored.  Throws std::runtime_error on a
/// malformed line.
std::vector<AllowEntry> parse_allowlist(std::string_view text);

/// Scan one file's contents for declarations of functions whose results
/// must not be discarded (`try_*` prefix, `std::optional<...>` return, or
/// an explicit [[nodiscard]]).  Used to seed LintOptions across the tree.
std::vector<std::string> collect_nodiscard_names(std::string_view source);

/// Lint one file.  `pair_header` optionally carries the contents of the
/// sibling header (same stem) so member declarations are visible when
/// linting a .cpp.
std::vector<Diagnostic> lint_source(const std::string& path, std::string_view source,
                                    const LintOptions& options,
                                    std::string_view pair_header = {});

/// Lint every .hpp/.cpp under `roots` (files or directories), in sorted
/// path order.  Handles pair-header lookup and tree-wide nodiscard
/// collection.  `options.allowlist` is respected.
std::vector<Diagnostic> lint_tree(const std::vector<std::string>& roots,
                                  LintOptions options);

/// "file:line: [rule] message"
std::string format_diagnostic(const Diagnostic& d);

}  // namespace rtlint
