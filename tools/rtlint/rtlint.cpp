#include "rtlint/rtlint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace rtlint {
namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool has_suffix(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// 1-based line number of a byte offset, via the sorted line-start table.
class LineIndex {
 public:
  explicit LineIndex(std::string_view text) {
    starts_.push_back(0);
    for (std::size_t i = 0; i < text.size(); ++i)
      if (text[i] == '\n') starts_.push_back(i + 1);
  }
  std::size_t line_of(std::size_t offset) const {
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), offset);
    return static_cast<std::size_t>(it - starts_.begin());
  }

 private:
  std::vector<std::size_t> starts_;
};

/// Inline suppression annotations, parsed from the unscrubbed source so
/// they can live inside comments.
struct Annotations {
  std::map<std::size_t, std::set<std::string>> per_line;  // line -> rules
  std::set<std::string> whole_file;                       // allow-file rules

  bool allows(const std::string& rule, std::size_t line) const {
    if (whole_file.count(rule) != 0 || whole_file.count("*") != 0) return true;
    const auto it = per_line.find(line);
    if (it == per_line.end()) return false;
    return it->second.count(rule) != 0 || it->second.count("*") != 0;
  }
};

/// Split into lines (without terminators); index i holds 1-based line i+1.
std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) {
      out.emplace_back(text.substr(begin));
      break;
    }
    out.emplace_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

bool blank_line(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

/// An annotation on a comment-only line covers the next code line, so a
/// justification can sit above the construct it blesses instead of
/// stretching it past the line-length limit.
Annotations parse_annotations(std::string_view source, std::string_view scrubbed) {
  Annotations out;
  const LineIndex lines(source);
  const std::vector<std::string> scrubbed_lines = split_lines(scrubbed);
  static const std::string_view kMarker = "rtlint:";
  std::size_t pos = 0;
  while ((pos = source.find(kMarker, pos)) != std::string_view::npos) {
    std::size_t cursor = pos + kMarker.size();
    while (cursor < source.size() && source[cursor] == ' ') ++cursor;
    const bool file_wide = source.compare(cursor, 11, "allow-file(") == 0;
    const bool line_wide = !file_wide && source.compare(cursor, 6, "allow(") == 0;
    if (file_wide || line_wide) {
      cursor += file_wide ? 11 : 6;
      const std::size_t close = source.find(')', cursor);
      if (close != std::string_view::npos) {
        const std::string rule(source.substr(cursor, close - cursor));
        if (file_wide) {
          out.whole_file.insert(rule);
        } else {
          std::size_t line = lines.line_of(pos);
          out.per_line[line].insert(rule);
          if (line - 1 < scrubbed_lines.size() && blank_line(scrubbed_lines[line - 1])) {
            while (line < scrubbed_lines.size() && blank_line(scrubbed_lines[line])) ++line;
            out.per_line[line + 1].insert(rule);
          }
        }
      }
    }
    pos += kMarker.size();
  }
  return out;
}

/// Skip an escape sequence inside a quoted literal; returns chars consumed.
std::size_t escape_len(std::string_view text, std::size_t i) {
  return (text[i] == '\\' && i + 1 < text.size()) ? 2 : 1;
}

struct RangeFor {
  std::size_t offset = 0;    // offset of the `for` keyword
  std::string range_expr;    // text after the top-level `:`
};

/// Find every range-based for loop in scrubbed text, handling nested
/// parentheses and ignoring `::` when looking for the range colon.
std::vector<RangeFor> find_range_fors(std::string_view text) {
  std::vector<RangeFor> out;
  std::size_t pos = 0;
  while ((pos = text.find("for", pos)) != std::string_view::npos) {
    const bool word_start = pos == 0 || !is_ident_char(text[pos - 1]);
    const bool word_end = pos + 3 >= text.size() || !is_ident_char(text[pos + 3]);
    if (!word_start || !word_end) {
      pos += 3;
      continue;
    }
    std::size_t open = pos + 3;
    while (open < text.size() && std::isspace(static_cast<unsigned char>(text[open])))
      ++open;
    if (open >= text.size() || text[open] != '(') {
      pos += 3;
      continue;
    }
    int depth = 0;
    std::size_t colon = std::string_view::npos;
    std::size_t close = std::string_view::npos;
    for (std::size_t i = open; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') {
        --depth;
        if (depth == 0) {
          close = i;
          break;
        }
      }
      if (c == ';' && depth == 1) break;  // classic for, not range-for
      if (c == ':' && depth == 1 && colon == std::string_view::npos) {
        const bool scope_op = (i + 1 < text.size() && text[i + 1] == ':') ||
                              (i > 0 && text[i - 1] == ':');
        if (!scope_op) colon = i;
      }
    }
    if (colon != std::string_view::npos && close != std::string_view::npos) {
      RangeFor loop;
      loop.offset = pos;
      loop.range_expr = std::string(text.substr(colon + 1, close - colon - 1));
      out.push_back(std::move(loop));
    }
    pos = close == std::string_view::npos ? pos + 3 : close;
  }
  return out;
}

bool contains_word(std::string_view text, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return true;
    pos += word.size();
  }
  return false;
}

/// Identifier ending at (exclusive) offset `end`, or empty.
std::string ident_before(std::string_view text, std::size_t end) {
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(text[begin - 1])) --begin;
  if (begin == end) return {};
  if (std::isdigit(static_cast<unsigned char>(text[begin])) != 0) return {};
  return std::string(text.substr(begin, end - begin));
}

std::size_t skip_spaces(std::string_view text, std::size_t i) {
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  return i;
}

/// Declared names whose (outermost) type is an unordered container, plus —
/// via `functions` — names of functions *returning* one.  Heuristic and
/// line-oriented, which matches the codebase's declaration style.
void collect_unordered_names(std::string_view scrubbed, std::set<std::string>& variables,
                             std::set<std::string>& functions) {
  std::istringstream stream{std::string(scrubbed)};
  std::string line;
  while (std::getline(stream, line)) {
    const std::size_t hit = std::min(line.find("unordered_map"), line.find("unordered_set"));
    if (hit == std::string::npos) continue;
    // Outermost-container check: a '<' before the match means the unordered
    // container is nested inside something ordered (vector<...unordered...>)
    // and iterating the outer object is fine.
    if (line.find('<', 0) < hit) continue;
    // Find the matching '>' of the template argument list, then the
    // declared identifier after it.
    std::size_t i = line.find('<', hit);
    if (i == std::string::npos) continue;
    int depth = 0;
    for (; i < line.size(); ++i) {
      if (line[i] == '<') ++depth;
      if (line[i] == '>' && --depth == 0) break;
    }
    if (depth != 0) continue;
    std::size_t cursor = skip_spaces(line, i + 1);
    while (cursor < line.size() && (line[cursor] == '&' || line[cursor] == '*'))
      cursor = skip_spaces(line, cursor + 1);
    std::size_t name_end = cursor;
    while (name_end < line.size() && is_ident_char(line[name_end])) ++name_end;
    if (name_end == cursor) continue;
    const std::string name = line.substr(cursor, name_end - cursor);
    const std::size_t after = skip_spaces(line, name_end);
    const char next = after < line.size() ? line[after] : ';';
    if (next == '(')
      functions.insert(name);
    else if (next == ';' || next == '=' || next == '{' || next == ',')
      variables.insert(name);
  }
}

bool is_float_literal(std::string_view token) {
  if (token.empty()) return false;
  bool digits = false, dot = false, exponent = false;
  std::size_t i = 0;
  for (; i < token.size(); ++i) {
    const char c = token[i];
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      digits = true;
    } else if (c == '.' && !dot && !exponent) {
      dot = true;
    } else if ((c == 'e' || c == 'E') && digits && !exponent) {
      exponent = true;
      if (i + 1 < token.size() && (token[i + 1] == '+' || token[i + 1] == '-')) ++i;
    } else {
      break;
    }
  }
  if (!digits || (!dot && !exponent)) return false;
  // Optional suffix, then end-of-token required.
  if (i < token.size() && (token[i] == 'f' || token[i] == 'F' || token[i] == 'l' ||
                           token[i] == 'L'))
    ++i;
  return i == token.size();
}

/// Longest [-\w.+] token ending at `end` (backwards), for float detection.
std::string number_token_before(std::string_view text, std::size_t end) {
  std::size_t begin = end;
  while (begin > 0) {
    const char c = text[begin - 1];
    if (is_ident_char(c) || c == '.') {
      --begin;
    } else if ((c == '+' || c == '-') && begin >= 2 &&
               (text[begin - 2] == 'e' || text[begin - 2] == 'E')) {
      begin -= 2;
    } else {
      break;
    }
  }
  return std::string(text.substr(begin, end - begin));
}

std::string number_token_after(std::string_view text, std::size_t begin) {
  std::size_t end = begin;
  while (end < text.size()) {
    const char c = text[end];
    if (is_ident_char(c) || c == '.') {
      ++end;
    } else if ((c == '+' || c == '-') && end > begin &&
               (text[end - 1] == 'e' || text[end - 1] == 'E')) {
      ++end;
    } else {
      break;
    }
  }
  return std::string(text.substr(begin, end - begin));
}

struct RuleContext {
  const std::string& path;
  std::string_view scrubbed;
  const LineIndex& lines;
  std::vector<Diagnostic>& out;

  void report(std::size_t offset, const std::string& rule, std::string message) const {
    out.push_back({path, lines.line_of(offset), rule, std::move(message)});
  }
};

void check_nondeterministic_source(const RuleContext& ctx) {
  static const std::string_view kBanned[] = {
      "std::rand", "srand",   "random_device", "gettimeofday",
      "drand48",   "rand_r",  "lrand48",       "getpid",
  };
  for (const std::string_view name : kBanned) {
    std::size_t pos = 0;
    while ((pos = ctx.scrubbed.find(name, pos)) != std::string_view::npos) {
      // A ':' on the left is namespace qualification (std::srand), which is
      // still the banned entity — only a longer identifier disqualifies.
      const bool left_ok = pos == 0 || !is_ident_char(ctx.scrubbed[pos - 1]);
      const std::size_t end = pos + name.size();
      const bool right_ok = end >= ctx.scrubbed.size() || !is_ident_char(ctx.scrubbed[end]);
      if (left_ok && right_ok)
        ctx.report(pos, "nondeterministic-source",
                   std::string(name) +
                       " is nondeterministic; draw from a seeded rtp::Rng (src/core/rng)");
      pos = end;
    }
  }
  // time(nullptr) / time(NULL) / time(0): wall-clock seeds in disguise.
  // `.`/`_`/`:` on the left mean some other entity named time (member call,
  // my_time, Clock::time) — except the std:: qualification of the libc call.
  std::size_t pos = 0;
  while ((pos = ctx.scrubbed.find("time", pos)) != std::string_view::npos) {
    const bool std_qualified =
        pos >= 5 && ctx.scrubbed.compare(pos - 5, 5, "std::") == 0;
    const bool left_ok =
        std_qualified || pos == 0 ||
        (!is_ident_char(ctx.scrubbed[pos - 1]) && ctx.scrubbed[pos - 1] != ':' &&
         ctx.scrubbed[pos - 1] != '.' && ctx.scrubbed[pos - 1] != '_');
    std::size_t cursor = skip_spaces(ctx.scrubbed, pos + 4);
    if (left_ok && cursor < ctx.scrubbed.size() && ctx.scrubbed[cursor] == '(') {
      cursor = skip_spaces(ctx.scrubbed, cursor + 1);
      for (const std::string_view arg : {"nullptr", "NULL", "0"}) {
        if (ctx.scrubbed.compare(cursor, arg.size(), arg) == 0) {
          const std::size_t after = skip_spaces(ctx.scrubbed, cursor + arg.size());
          if (after < ctx.scrubbed.size() && ctx.scrubbed[after] == ')') {
            ctx.report(pos, "nondeterministic-source",
                       "time(" + std::string(arg) +
                           ") reads the wall clock; experiments must not depend on it");
            break;
          }
        }
      }
    }
    pos += 4;
  }
}

void check_unordered_iter(const RuleContext& ctx, const std::set<std::string>& variables,
                          const std::set<std::string>& functions) {
  for (const RangeFor& loop : find_range_fors(ctx.scrubbed)) {
    const std::string_view expr = loop.range_expr;
    std::string culprit;
    if (expr.find("unordered_map") != std::string_view::npos ||
        expr.find("unordered_set") != std::string_view::npos) {
      culprit = "an unordered container expression";
    } else {
      for (const std::string& name : variables)
        if (contains_word(expr, name)) {
          culprit = "'" + name + "'";
          break;
        }
      if (culprit.empty())
        for (const std::string& name : functions)
          if (contains_word(expr, name) &&
              expr.find('(') != std::string_view::npos) {
            culprit = "the result of '" + name + "()'";
            break;
          }
    }
    if (!culprit.empty())
      ctx.report(loop.offset, "unordered-iter",
                 "range-for over " + culprit +
                     " iterates in hash order; use an ordered container or iterate a "
                     "sorted key list");
  }
}

/// Names that mark a value as a floating-point quantity even without a
/// visible literal: cache keys and multipliers.  `scale == cached_scale`
/// silently treats +0.0/-0.0 as one key and NaN as unequal to itself; such
/// comparisons must go through bit patterns (time_bits_eq) or a tolerance.
bool float_hinted_name(std::string_view token) {
  if (token.empty() || is_float_literal(token)) return false;
  if (std::isdigit(static_cast<unsigned char>(token.front())) != 0) return false;
  std::string lower;
  lower.reserve(token.size());
  for (const char c : token)
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  // The hint must be a whole word segment (snake_case or camelCase bounded),
  // or "generations" would match "ratio".
  const auto is_alpha = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0;
  };
  const auto is_upper = [](char c) {
    return std::isupper(static_cast<unsigned char>(c)) != 0;
  };
  for (const std::string_view hint : {"scale", "ratio", "factor"}) {
    for (std::size_t pos = lower.find(hint); pos != std::string::npos;
         pos = lower.find(hint, pos + 1)) {
      const std::size_t end = pos + hint.size();
      const bool left_ok =
          pos == 0 || !is_alpha(lower[pos - 1]) || is_upper(token[pos]);
      const bool right_ok =
          end == lower.size() || !is_alpha(lower[end]) || is_upper(token[end]);
      if (left_ok && right_ok) return true;
    }
  }
  return false;
}

void check_float_eq(const RuleContext& ctx) {
  const std::string_view text = ctx.scrubbed;
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    const bool eq = text[i] == '=' && text[i + 1] == '=';
    const bool ne = text[i] == '!' && text[i + 1] == '=';
    if (!eq && !ne) continue;
    if (i > 0 && (text[i - 1] == '=' || text[i - 1] == '<' || text[i - 1] == '>' ||
                  text[i - 1] == '!'))
      continue;
    if (i + 2 < text.size() && text[i + 2] == '=') continue;
    const std::size_t lhs_end = [&] {
      std::size_t j = i;
      while (j > 0 && (text[j - 1] == ' ' || text[j - 1] == '\t')) --j;
      return j;
    }();
    const std::string lhs = number_token_before(text, lhs_end);
    const std::string rhs = number_token_after(text, skip_spaces(text, i + 2));
    if (is_float_literal(lhs) || is_float_literal(rhs)) {
      ctx.report(i, "float-eq",
                 std::string(eq ? "==" : "!=") +
                     " against a floating-point literal; compare via a named sentinel "
                     "constant or an explicit tolerance helper");
    } else if (float_hinted_name(lhs) || float_hinted_name(rhs)) {
      // Variable-vs-variable equality in a cache-key position: either
      // operand is named like a floating-point multiplier.
      ctx.report(i, "float-eq",
                 std::string(eq ? "==" : "!=") + " between '" + lhs + "' and '" + rhs +
                     "'; a scale/ratio/factor is a floating-point cache key — compare "
                     "bit patterns (time_bits_eq) or use a tolerance helper");
    }
  }
}

void check_discarded_error(const RuleContext& ctx,
                           const std::vector<std::string>& nodiscard_names) {
  std::istringstream stream{std::string(ctx.scrubbed)};
  std::string line;
  std::size_t line_number = 0;
  std::size_t offset = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    const std::size_t line_offset = offset;
    offset += line.size() + 1;
    // Bare expression statement: `[obj.]name(...);` with nothing else.
    const std::size_t paren = line.find('(');
    if (paren == std::string::npos) continue;
    std::string trimmed = line;
    const std::size_t last = trimmed.find_last_not_of(" \t");
    if (last == std::string::npos || trimmed[last] != ';') continue;
    const std::string name = ident_before(line, paren);
    if (name.empty()) continue;
    const bool tracked = name.compare(0, 4, "try_") == 0 ||
                         std::find(nodiscard_names.begin(), nodiscard_names.end(), name) !=
                             nodiscard_names.end();
    if (!tracked) continue;
    // Everything before the callee must be whitespace or an object path —
    // an `=`, `return`, or comparison anywhere means the result is used.
    std::size_t start = 0;
    std::size_t name_begin = paren;
    while (name_begin > 0 && is_ident_char(line[name_begin - 1])) --name_begin;
    bool bare = true;
    for (start = 0; start < name_begin; ++start) {
      const char c = line[start];
      if (c == ' ' || c == '\t' || c == '.' || c == ':' || c == '>' || c == '-' ||
          is_ident_char(c))
        continue;
      bare = false;
      break;
    }
    if (line.find("return") != std::string::npos || line.find('=') < paren) bare = false;
    if (bare)
      ctx.report(line_offset + name_begin, "discarded-error",
                 "result of '" + name +
                     "' is discarded; it reports failure through its return value");
  }
}

/// Flags global-qualified calls (`::write(...)`) to any of `calls`.  Member
/// qualifications (istream::read) have an identifier before the `::` and
/// are skipped.
void check_global_calls(const RuleContext& ctx, std::initializer_list<std::string_view> calls,
                        const char* rule, const char* advice) {
  const std::string_view text = ctx.scrubbed;
  for (const std::string_view name : calls) {
    std::size_t pos = 0;
    while ((pos = text.find(name, pos)) != std::string_view::npos) {
      const std::size_t end = pos + name.size();
      const bool global_qualified =
          pos >= 2 && text[pos - 1] == ':' && text[pos - 2] == ':' &&
          (pos == 2 || (!is_ident_char(text[pos - 3]) && text[pos - 3] != ':'));
      const bool name_ends = end >= text.size() || !is_ident_char(text[end]);
      const std::size_t cursor = skip_spaces(text, end);
      const bool is_call = cursor < text.size() && text[cursor] == '(';
      if (global_qualified && name_ends && is_call)
        ctx.report(pos, rule, "raw ::" + std::string(name) + " call; " + advice);
      pos = end;
    }
  }
}

void check_raw_io(const RuleContext& ctx) {
  // POSIX I/O that bypasses the checked wrappers in src/service/io.hpp,
  // which retry EINTR, loop partial writes and classify errno.
  check_global_calls(ctx, {"write", "read", "send", "recv"}, "raw-io",
                     "use the checked rtp::io wrappers (src/service/io.hpp), "
                     "which retry EINTR and classify errno");
}

void check_raw_socket(const RuleContext& ctx) {
  // A socket made outside src/service/io.cpp would skip TCP_NODELAY, and
  // Nagle's algorithm would then hold each pipelined reply for a delayed ACK.
  check_global_calls(ctx, {"socket", "accept", "connect"}, "raw-socket",
                     "make TCP sockets through rtp::io (dial_tcp, listen_loopback, "
                     "accept_tcp), which set TCP_NODELAY");
}

void check_include_hygiene(const RuleContext& ctx, std::string_view source, bool is_header) {
  const std::string_view text = ctx.scrubbed;
  if (is_header && text.find("#pragma once") == std::string_view::npos)
    ctx.report(0, "include-hygiene", "header is missing #pragma once");
  std::size_t pos = 0;
  while ((pos = text.find("#include", pos)) != std::string_view::npos) {
    // The directive is located in scrubbed text (so commented-out includes
    // stay silent), but quoted paths are string literals the scrubber blanks
    // — quotes included — so the path itself is read from the original
    // source (scrub is offset-preserving).
    const std::size_t cursor = skip_spaces(source, pos + 8);
    if (source.compare(cursor, 4, "\"../") == 0 || source.compare(cursor, 3, "\"..") == 0)
      ctx.report(pos, "include-hygiene",
                 "parent-relative #include; use a project-root-relative path");
    if (source.compare(cursor, 6, "<bits/") == 0)
      ctx.report(pos, "include-hygiene",
                 "#include <bits/...> reaches into libstdc++ internals");
    pos += 8;
  }
}

bool allowlisted(const Diagnostic& d, const std::vector<AllowEntry>& allowlist) {
  for (const AllowEntry& entry : allowlist) {
    if (entry.rule != "*" && entry.rule != d.rule) continue;
    if (!has_suffix(d.path, entry.path_suffix)) continue;
    if (entry.line != 0 && entry.line != d.line) continue;
    return true;
  }
  return false;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("rtlint: cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool lintable(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

void collect_files(const std::filesystem::path& root, std::vector<std::string>& files) {
  namespace fs = std::filesystem;
  if (fs::is_regular_file(root)) {
    if (lintable(root)) files.push_back(root.string());
    return;
  }
  if (!fs::is_directory(root)) throw std::runtime_error("rtlint: no such path: " + root.string());
  for (fs::directory_iterator it(root), end; it != end; ++it) {
    const std::string name = it->path().filename().string();
    if (name.empty() || name[0] == '.' || name.compare(0, 5, "build") == 0) continue;
    if (it->is_directory())
      collect_files(it->path(), files);
    else if (it->is_regular_file() && lintable(it->path()))
      files.push_back(it->path().string());
  }
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kRules = {
      "nondeterministic-source", "unordered-iter", "float-eq", "discarded-error",
      "include-hygiene", "raw-io", "raw-socket",
  };
  return kRules;
}

std::string scrub(std::string_view source) {
  std::string out(source);
  enum class State { Code, LineComment, BlockComment, String, Char, RawString };
  State state = State::Code;
  std::string raw_delimiter;
  for (std::size_t i = 0; i < source.size();) {
    const char c = source[i];
    switch (state) {
      case State::Code:
        if (c == '/' && i + 1 < source.size() && source[i + 1] == '/') {
          state = State::LineComment;
          out[i] = out[i + 1] = ' ';
          i += 2;
        } else if (c == '/' && i + 1 < source.size() && source[i + 1] == '*') {
          state = State::BlockComment;
          out[i] = out[i + 1] = ' ';
          i += 2;
        } else if (c == 'R' && i + 1 < source.size() && source[i + 1] == '"' &&
                   (i == 0 || !is_ident_char(source[i - 1]))) {
          const std::size_t open = source.find('(', i + 2);
          if (open == std::string_view::npos) return out;
          raw_delimiter = ")" + std::string(source.substr(i + 2, open - i - 2)) + "\"";
          for (std::size_t j = i; j <= open; ++j) out[j] = ' ';
          state = State::RawString;
          i = open + 1;
        } else if (c == '"') {
          state = State::String;
          out[i] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::Char;
          out[i] = ' ';
          ++i;
        } else {
          ++i;
        }
        break;
      case State::LineComment:
        if (c == '\n')
          state = State::Code;
        else
          out[i] = ' ';
        ++i;
        break;
      case State::BlockComment:
        if (c == '*' && i + 1 < source.size() && source[i + 1] == '/') {
          out[i] = out[i + 1] = ' ';
          state = State::Code;
          i += 2;
        } else {
          if (c != '\n') out[i] = ' ';
          ++i;
        }
        break;
      case State::String:
      case State::Char: {
        const char terminator = state == State::String ? '"' : '\'';
        if (c == terminator) {
          out[i] = ' ';
          state = State::Code;
          ++i;
        } else {
          const std::size_t n = escape_len(source, i);
          for (std::size_t j = 0; j < n; ++j)
            if (source[i + j] != '\n') out[i + j] = ' ';
          i += n;
        }
        break;
      }
      case State::RawString:
        if (source.compare(i, raw_delimiter.size(), raw_delimiter) == 0) {
          for (std::size_t j = 0; j < raw_delimiter.size(); ++j) out[i + j] = ' ';
          i += raw_delimiter.size();
          state = State::Code;
        } else {
          if (c != '\n') out[i] = ' ';
          ++i;
        }
        break;
    }
  }
  return out;
}

std::vector<AllowEntry> parse_allowlist(std::string_view text) {
  std::vector<AllowEntry> out;
  std::istringstream stream{std::string(text)};
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    std::istringstream fields(line);
    std::string rule, target;
    if (!(fields >> rule)) continue;  // blank
    if (!(fields >> target))
      throw std::runtime_error("allowlist line " + std::to_string(line_number) +
                               ": expected '<rule> <path-suffix>[:<line>]'");
    AllowEntry entry;
    entry.rule = rule;
    const std::size_t colon = target.rfind(':');
    if (colon != std::string::npos &&
        target.find_first_not_of("0123456789", colon + 1) == std::string::npos &&
        colon + 1 < target.size()) {
      entry.path_suffix = target.substr(0, colon);
      entry.line = static_cast<std::size_t>(std::stoul(target.substr(colon + 1)));
    } else {
      entry.path_suffix = target;
    }
    out.push_back(std::move(entry));
  }
  return out;
}

std::vector<std::string> collect_nodiscard_names(std::string_view source) {
  const std::string scrubbed = scrub(source);
  std::vector<std::string> out;
  std::istringstream stream(scrubbed);
  std::string line;
  while (std::getline(stream, line)) {
    const auto harvest = [&](std::size_t type_end) {
      std::size_t cursor = skip_spaces(line, type_end);
      std::size_t name_end = cursor;
      while (name_end < line.size() && is_ident_char(line[name_end])) ++name_end;
      if (name_end == cursor) return;
      const std::size_t after = skip_spaces(line, name_end);
      if (after < line.size() && line[after] == '(')
        out.push_back(line.substr(cursor, name_end - cursor));
    };
    if (const std::size_t pos = line.find("[[nodiscard]]"); pos != std::string::npos) {
      // Skip the return type: first identifier run after the attribute is
      // the type; the one before '(' is the name.
      const std::size_t paren = line.find('(', pos);
      if (paren != std::string::npos) {
        const std::string name = ident_before(line, paren);
        if (!name.empty()) out.push_back(name);
      }
    }
    if (const std::size_t pos = line.find("std::optional"); pos != std::string::npos) {
      std::size_t i = line.find('<', pos);
      if (i == std::string::npos) continue;
      int depth = 0;
      for (; i < line.size(); ++i) {
        if (line[i] == '<') ++depth;
        if (line[i] == '>' && --depth == 0) break;
      }
      if (depth == 0) harvest(i + 1);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Diagnostic> lint_source(const std::string& path, std::string_view source,
                                    const LintOptions& options,
                                    std::string_view pair_header) {
  const std::string scrubbed = scrub(source);
  const Annotations annotations = parse_annotations(source, scrubbed);
  const LineIndex lines(scrubbed);

  std::set<std::string> unordered_variables;
  std::set<std::string> unordered_functions;
  collect_unordered_names(scrubbed, unordered_variables, unordered_functions);
  if (!pair_header.empty())
    collect_unordered_names(scrub(pair_header), unordered_variables, unordered_functions);

  std::vector<Diagnostic> raw;
  const RuleContext ctx{path, scrubbed, lines, raw};
  check_nondeterministic_source(ctx);
  check_unordered_iter(ctx, unordered_variables, unordered_functions);
  check_float_eq(ctx);
  check_discarded_error(ctx, options.nodiscard_functions);
  check_include_hygiene(ctx, source, has_suffix(path, ".hpp") || has_suffix(path, ".h"));
  check_raw_io(ctx);
  check_raw_socket(ctx);

  std::vector<Diagnostic> out;
  for (Diagnostic& d : raw) {
    if (annotations.allows(d.rule, d.line)) continue;
    if (allowlisted(d, options.allowlist)) continue;
    out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.path, a.line, a.rule) < std::tie(b.path, b.line, b.rule);
  });
  return out;
}

std::vector<Diagnostic> lint_tree(const std::vector<std::string>& roots,
                                  LintOptions options) {
  std::vector<std::string> files;
  for (const std::string& root : roots) collect_files(root, files);
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::map<std::string, std::string> contents;
  for (const std::string& file : files) contents[file] = read_file(file);

  // Tree-wide pass: functions whose results must not be discarded are
  // declared in headers but called from anywhere.
  std::set<std::string> nodiscard;
  for (const auto& [file, text] : contents)
    for (std::string& name : collect_nodiscard_names(text)) nodiscard.insert(std::move(name));
  options.nodiscard_functions.assign(nodiscard.begin(), nodiscard.end());

  std::vector<Diagnostic> out;
  for (const auto& [file, text] : contents) {
    std::string_view pair_header;
    if (has_suffix(file, ".cpp") || has_suffix(file, ".cc")) {
      const std::filesystem::path header =
          std::filesystem::path(file).replace_extension(".hpp");
      const auto it = contents.find(header.string());
      if (it != contents.end()) pair_header = it->second;
    }
    std::vector<Diagnostic> diagnostics = lint_source(file, text, options, pair_header);
    out.insert(out.end(), std::make_move_iterator(diagnostics.begin()),
               std::make_move_iterator(diagnostics.end()));
  }
  return out;
}

std::string format_diagnostic(const Diagnostic& d) {
  return d.path + ":" + std::to_string(d.line) + ": [" + d.rule + "] " + d.message;
}

}  // namespace rtlint
