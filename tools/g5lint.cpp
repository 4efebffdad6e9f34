// g5lint — repo-specific invariant linter (v2).
//
// Generic tools (clang-tidy, -Wconversion, -Wthread-safety) cannot see
// the invariants this codebase actually relies on; g5lint closes that
// gap. v1 shipped four line-oriented rules over comment/string-stripped
// text; v2 adds a real token stream (preprocessor-, comment-, raw-string-
// and line-continuation-aware) and a compile_commands.json mode so the
// analyzer lints exactly the translation units the build compiles.
//
// Line rules (v1, scoped to src/):
//
//   raw-stack     No fixed-size traversal stack arrays outside
//                 tree::TraversalStack. PR 1 replaced the bare
//                 `std::int32_t stack[512]` walkers (which overflowed on
//                 deep trees) with the guarded TraversalStack; this rule
//                 keeps the pattern from creeping back.
//
//   codec-bypass  No narrowing static_cast on particle-data expressions
//                 in src/grape/. Host<->pipeline number-format
//                 conversions must go through FixedPointCodec / the LNS
//                 codecs: a silent narrowing cast corrupts the 0.3 %
//                 pairwise-error budget invisibly. (The math::LnsCode /
//                 math::Fixed20 domain types make most bypasses a
//                 compile error; this rule still catches double-domain
//                 expressions cast behind the codec's back.)
//
//   raw-stdio     No std::cout / std::cerr / bare printf in library
//                 code outside util/log and util/table. Bench/table
//                 output on stdout must stay machine-parsable and log
//                 records must stay serialized (log.cpp's emit mutex).
//
//   raw-thread    No std::thread / std::jthread objects outside
//                 src/util/. Every long-lived thread must sit behind
//                 util::Thread or util::ThreadPool so it is joined
//                 deterministically by a destructor and synchronizes
//                 through the annotated Mutex/CondVar primitives.
//
// Token rules (v2):
//
//   narrowing-in-tools
//                 tools/ and bench/ compile with the same extended
//                 warning set as the library, but a static_cast to a
//                 narrow type silences -Wconversion at exactly the spot
//                 it matters. A narrowing cast whose operand mentions
//                 particle data (pos/mass/acc/...) in tools/ or bench/
//                 is flagged: measurement code that narrows the physics
//                 skews the numbers it claims to report.
//
//   mutex-discipline
//                 No raw std:: synchronization primitives (mutex,
//                 lock_guard, unique_lock, condition_variable, ...)
//                 outside src/util/. util::Mutex carries the
//                 -Wthread-safety capability annotations; a bare
//                 std::mutex is invisible to that analysis, so lock-
//                 order and guarded-by bugs sail through CI.
//
//   hot-path-alloc
//                 Regions bracketed by `// g5lint: hot-begin(name)` and
//                 `// g5lint: hot-end` (the tree-walk and pipeline
//                 inner loops) must not allocate: new / make_unique /
//                 make_shared / malloc-family calls are flagged, and
//                 push_back / emplace_back are flagged unless the file
//                 reserves capacity first. An allocation inside the
//                 per-interaction loop shows up as a host-time cliff
//                 that the performance model cannot explain.
//
//   magic-format-constant
//                 Bare all-ones literals >= 0xFFFF (0xFFFFF, 1048575,
//                 ...) are wire-format field masks by construction in
//                 this codebase; they must be spelled as the named
//                 constant (math::kMortonCoordMax, a constexpr mask
//                 derived from the format's bit count) so a format
//                 change cannot leave a stale width behind. constexpr
//                 definitions and #define lines are the naming sites
//                 themselves and stay legal.
//
// A violation line can be exempted with a trailing comment:
//     ... // g5lint: allow(rule-name) reason
// Exemptions are themselves grep-able, so the audit trail stays visible.
//
// Usage:
//   g5lint <src-root>...              lint every .hpp/.cpp under the roots
//   g5lint --compile-commands <json>  lint every TU the build compiles
//   g5lint --self-test                run the built-in fixtures
//
// Exit status: 0 clean, 1 violations (or failed self-test), 2 usage.
//
// Implementation notes: comments and string/char literals are blanked
// (line structure preserved) before rules run, so prose mentioning
// `stack[512]` or a format string containing "printf" cannot trip a
// rule; the allow() and hot-begin/hot-end scans run on the raw lines
// because those markers live in comments on purpose. The stripper
// understands raw string literals (delimited included) and backslash
// line-continuation inside // comments; the lexer runs over the
// stripped text and tags each token with its line and whether it sits
// on a preprocessor line. The whole tree is ~100 files, speed is
// irrelevant.

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

std::string to_lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// --- stripper --------------------------------------------------------

/// Blank out //, /* */ comments and string/char literals, preserving
/// newlines so line numbers survive. Handles escapes inside literals,
/// raw string literals R"delim(...)delim" (any encoding prefix), and
/// backslash line-continuation inside // comments (phase-2 splicing
/// makes the next physical line part of the comment).
std::string strip_comments_and_strings(const std::string& text) {
  std::string out = text;
  enum class State { Code, Line, Block, Str, Chr } st = State::Code;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char n = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (st) {
      case State::Code:
        if (c == '/' && n == '/') {
          st = State::Line;
          out[i] = ' ';
        } else if (c == '/' && n == '*') {
          st = State::Block;
          out[i] = ' ';
        } else if (c == '"') {
          // Raw string literal? The '"' must be directly preceded by R,
          // optionally with an encoding prefix (u8 / u / U / L), and the
          // prefix must not be the tail of a longer identifier.
          std::size_t prefix = i;  // first char of the R/encoding prefix
          if (i >= 1 && text[i - 1] == 'R') {
            std::size_t p = i - 1;
            if (p >= 2 && text[p - 2] == 'u' && text[p - 1] == '8') {
              p -= 2;
            } else if (p >= 1 && (text[p - 1] == 'u' || text[p - 1] == 'U' ||
                                  text[p - 1] == 'L')) {
              p -= 1;
            }
            if (p == 0 || !ident_char(text[p - 1])) prefix = p;
          }
          if (prefix != i) {
            // Parse the delimiter (up to 16 chars, no parens/space).
            std::size_t open = text.find('(', i + 1);
            if (open == std::string::npos || open - i - 1 > 16) {
              open = std::string::npos;
            }
            std::size_t term_end = std::string::npos;
            if (open != std::string::npos) {
              const std::string delim = text.substr(i + 1, open - i - 1);
              const std::string terminator = ")" + delim + "\"";
              const std::size_t term = text.find(terminator, open + 1);
              if (term != std::string::npos) {
                term_end = term + terminator.size() - 1;  // closing '"'
              }
            }
            if (term_end == std::string::npos) term_end = text.size() - 1;
            for (std::size_t j = i + 1; j < term_end; ++j) {
              if (text[j] != '\n') out[j] = ' ';
            }
            i = term_end;  // stay in Code after the closing quote
          } else {
            st = State::Str;
          }
        } else if (c == '\'') {
          st = State::Chr;
        }
        break;
      case State::Line:
        if (c == '\n') {
          // A backslash immediately before the newline splices the next
          // physical line into the comment.
          if (!(i >= 1 && text[i - 1] == '\\')) st = State::Code;
        } else {
          out[i] = ' ';
        }
        break;
      case State::Block:
        if (c == '*' && n == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::Str:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\n' && n != '\0') out[++i] = ' ';
        } else if (c == '"') {
          st = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::Chr:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\n' && n != '\0') out[++i] = ' ';
        } else if (c == '\'') {
          st = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

bool line_allows(const std::string& raw_line, const std::string& rule) {
  const auto pos = raw_line.find("g5lint: allow(");
  if (pos == std::string::npos) return false;
  const auto close = raw_line.find(')', pos);
  if (close == std::string::npos) return false;
  const auto open = pos + std::string("g5lint: allow(").size();
  return raw_line.substr(open, close - open) == rule;
}

// --- lexer -----------------------------------------------------------

enum class TokKind { Ident, Number, Punct };

struct Token {
  TokKind kind;
  std::string text;
  std::size_t line = 0;  // 1-based
  bool pp = false;       // token sits on a preprocessor (logical) line
};

/// Mark each stripped line that belongs to a preprocessor directive:
/// a line whose first non-blank char is '#', plus every line spliced to
/// it by a trailing backslash.
std::vector<bool> pp_lines(const std::vector<std::string>& code) {
  std::vector<bool> pp(code.size(), false);
  bool cont = false;
  for (std::size_t i = 0; i < code.size(); ++i) {
    bool is_pp = cont;
    if (!cont) {
      const auto j = code[i].find_first_not_of(" \t");
      is_pp = j != std::string::npos && code[i][j] == '#';
    }
    pp[i] = is_pp;
    cont = is_pp && !code[i].empty() && code[i].back() == '\\';
  }
  return pp;
}

/// Tokenize stripped text into identifiers, pp-numbers and punctuation.
/// "::" is combined into one token so qualified names concatenate
/// naturally; all other punctuation is single-char (rules only match
/// < > ( ) and qualified names, so maximal-munch elsewhere is moot).
std::vector<Token> lex(const std::string& code_text,
                       const std::vector<bool>& pp) {
  std::vector<Token> toks;
  std::size_t line = 0;  // 0-based while scanning
  const auto in_pp = [&] { return line < pp.size() && pp[line]; };
  for (std::size_t i = 0; i < code_text.size(); ++i) {
    const char c = code_text[i];
    if (c == '\n') {
      ++line;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t j = i;
      while (j < code_text.size() && ident_char(code_text[j])) ++j;
      toks.push_back(
          {TokKind::Ident, code_text.substr(i, j - i), line + 1, in_pp()});
      i = j - 1;
    } else if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      // pp-number: digits, identifier chars, digit separators, '.', and
      // a sign directly after an exponent marker.
      std::size_t j = i + 1;
      while (j < code_text.size()) {
        const char d = code_text[j];
        const char prev = code_text[j - 1];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') &&
                   (prev == 'e' || prev == 'E' || prev == 'p' ||
                    prev == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      toks.push_back(
          {TokKind::Number, code_text.substr(i, j - i), line + 1, in_pp()});
      i = j - 1;
    } else if (c == ':' && i + 1 < code_text.size() &&
               code_text[i + 1] == ':') {
      toks.push_back({TokKind::Punct, "::", line + 1, in_pp()});
      ++i;
    } else {
      toks.push_back({TokKind::Punct, std::string(1, c), line + 1, in_pp()});
    }
  }
  return toks;
}

// --- hot regions -----------------------------------------------------

struct HotRegion {
  std::size_t begin = 0;  // 1-based, inclusive
  std::size_t end = 0;
  std::string name;
};

/// Regions bracketed by `g5lint: hot-begin(name)` / `g5lint: hot-end`
/// in the raw text (the markers are comments). An unclosed region runs
/// to end of file — the conservative direction.
std::vector<HotRegion> hot_regions(const std::vector<std::string>& raw) {
  std::vector<HotRegion> out;
  HotRegion cur;
  bool open = false;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (!open) {
      const auto pos = raw[i].find("g5lint: hot-begin(");
      if (pos == std::string::npos) continue;
      const auto name_at = pos + std::string("g5lint: hot-begin(").size();
      const auto close = raw[i].find(')', name_at);
      cur.name = close == std::string::npos
                     ? ""
                     : raw[i].substr(name_at, close - name_at);
      cur.begin = i + 1;
      open = true;
    } else if (raw[i].find("g5lint: hot-end") != std::string::npos) {
      cur.end = i + 1;
      out.push_back(cur);
      open = false;
    }
  }
  if (open) {
    cur.end = raw.size();
    out.push_back(cur);
  }
  return out;
}

/// One lintable file: `path` uses forward slashes relative to the lint
/// root (fixtures fake it), `raw` is the original text.
struct Source {
  std::string path;
  std::string raw;
};

bool path_contains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

// --- rule: raw-stack ------------------------------------------------

// A declaration-looking `type name[N]` (or std::array<...> name) whose
// name contains "stack" and whose extent is a literal or named constant.
// Indexing expressions (`stack[i]` after = or () don't match: the match
// must start at line begin or after ; { ( , and begin with a type-ish
// token followed by whitespace and the identifier.
const std::regex kRawStackDecl(
    R"((^|[;{,(])\s*(?:static\s+|constexpr\s+|const\s+)*(?:std::)?)"
    R"(([A-Za-z_][A-Za-z0-9_:]*)(?:\s*[*&])?\s+([A-Za-z_][A-Za-z0-9_]*)\s*)"
    R"(\[\s*([0-9]+[uUlL]*|[A-Za-z_][A-Za-z0-9_:]*)\s*\])");
// Statement keywords that the type-token position of kRawStackDecl can
// also match (`return stack[sp]` is indexing, not a declaration).
bool is_statement_keyword(const std::string& tok) {
  return tok == "return" || tok == "throw" || tok == "delete" ||
         tok == "case" || tok == "goto" || tok == "else" || tok == "new" ||
         tok == "co_return" || tok == "co_yield";
}
const std::regex kRawStackArray(
    R"(std::array\s*<[^;=]*>\s+([A-Za-z_][A-Za-z0-9_]*))");

void rule_raw_stack(const Source& src, const std::vector<std::string>& code,
                    const std::vector<std::string>& raw,
                    std::vector<Violation>& out) {
  if (path_contains(src.path, "tree/traversal_stack.hpp")) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    std::smatch m;
    std::string name;
    if (std::regex_search(code[i], m, kRawStackDecl) &&
        !is_statement_keyword(m[2].str())) {
      name = m[3].str();
    } else if (std::regex_search(code[i], m, kRawStackArray)) {
      name = m[1].str();
    }
    if (name.empty() || to_lower(name).find("stack") == std::string::npos) {
      continue;
    }
    if (line_allows(raw[i], "raw-stack")) continue;
    out.push_back({src.path, i + 1, "raw-stack",
                   "fixed-size stack '" + name +
                       "' — use tree::TraversalStack (guarded, spills)"});
  }
}

// --- rule: codec-bypass ---------------------------------------------

// Narrowing cast targets: float or sub-64-bit integer types.
const std::regex kNarrowCast(
    R"((?:static_cast|reinterpret_cast)\s*<\s*(?:const\s+)?)"
    R"((float|short|int|unsigned|unsigned\s+int|unsigned\s+short|)"
    R"(std::u?int(?:8|16|32)_t|u?int(?:8|16|32)_t)\s*>\s*\()");
// Identifiers that mark an expression as particle data in the pipeline
// sense (positions, masses, forces, potentials, softening).
const std::regex kParticleData(
    R"(\b(pos|mass|acc|pot|vel|force|eps|dx|dy|dz|mass_exact)\w*\b|)"
    R"(\b\w*(_pos|_mass|_acc|_pot|_vel|_force)\b)");

void rule_codec_bypass(const Source& src, const std::vector<std::string>& code,
                       const std::vector<std::string>& raw,
                       std::vector<Violation>& out) {
  if (!path_contains(src.path, "grape/")) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(code[i], m, kNarrowCast)) continue;
    // Examine the cast operand (rest of line past the cast's open paren).
    const std::string operand = m.suffix().str();
    if (!std::regex_search(operand, kParticleData)) continue;
    if (line_allows(raw[i], "codec-bypass")) continue;
    out.push_back({src.path, i + 1, "codec-bypass",
                   "narrowing cast on particle data — convert via "
                   "math::FixedPointCodec / LnsFormat instead"});
  }
}

// --- rule: raw-stdio ------------------------------------------------

const std::regex kRawStdio(
    R"(\bstd::cout\b|\bstd::cerr\b|\bstd::clog\b|)"
    R"((?:std::)?\bprintf\s*\(|(?:std::)?\bputs\s*\(|\bputchar\s*\(|)"
    R"(fprintf\s*\(\s*(?:std)?(?:out|err)\b|)"
    R"(fputs\s*\([^,]*,\s*(?:std)?(?:out|err)\s*\))");

void rule_raw_stdio(const Source& src, const std::vector<std::string>& code,
                    const std::vector<std::string>& raw,
                    std::vector<Violation>& out) {
  if (path_contains(src.path, "util/log.") ||
      path_contains(src.path, "util/table.")) {
    return;
  }
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!std::regex_search(code[i], kRawStdio)) continue;
    if (line_allows(raw[i], "raw-stdio")) continue;
    out.push_back({src.path, i + 1, "raw-stdio",
                   "direct stdout/stderr write in library code — route "
                   "through util::log / util::table or take a sink"});
  }
}

// --- rule: raw-thread -----------------------------------------------

// A std::thread / std::jthread mention that is not a scope access
// (std::thread::id, std::thread::hardware_concurrency): those construct
// or hold thread objects. The lookahead keeps type/static-member uses
// legal anywhere.
const std::regex kRawThread(R"(\bstd::j?thread\b(?!\s*::))");

void rule_raw_thread(const Source& src, const std::vector<std::string>& code,
                     const std::vector<std::string>& raw,
                     std::vector<Violation>& out) {
  if (path_contains(src.path, "util/")) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!std::regex_search(code[i], kRawThread)) continue;
    if (line_allows(raw[i], "raw-thread")) continue;
    out.push_back({src.path, i + 1, "raw-thread",
                   "raw std::thread outside util/ — use util::Thread or "
                   "util::ThreadPool (destructor-joined, annotated sync)"});
  }
}

// --- rule: narrowing-in-tools ---------------------------------------

/// Cast targets that lose range or precision relative to double/int64.
bool narrow_type(const std::string& normalized) {
  static const std::set<std::string> kNarrow = {
      "float",         "short",         "int",
      "unsigned",      "unsignedint",   "unsignedshort",
      "std::int8_t",   "std::int16_t",  "std::int32_t",
      "std::uint8_t",  "std::uint16_t", "std::uint32_t",
      "int8_t",        "int16_t",       "int32_t",
      "uint8_t",       "uint16_t",      "uint32_t"};
  return kNarrow.count(normalized) != 0;
}

void rule_narrowing_in_tools(const Source& src,
                             const std::vector<Token>& toks,
                             const std::vector<std::string>& raw,
                             std::vector<Violation>& out) {
  if (!path_contains(src.path, "tools/") &&
      !path_contains(src.path, "bench/")) {
    return;
  }
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident ||
        (toks[i].text != "static_cast" && toks[i].text != "reinterpret_cast") ||
        toks[i + 1].text != "<") {
      continue;
    }
    // Collect the target type tokens to the matching '>'.
    std::string type;
    int depth = 1;
    std::size_t j = i + 2;
    for (; j < toks.size() && depth > 0; ++j) {
      if (toks[j].text == "<") ++depth;
      else if (toks[j].text == ">") --depth;
      if (depth > 0 && toks[j].text != "const") type += toks[j].text;
    }
    if (depth != 0 || !narrow_type(type)) continue;
    // j now sits one past the '>'; the operand runs to the matching ')'.
    if (j >= toks.size() || toks[j].text != "(") continue;
    bool particle = false;
    int pdepth = 1;
    for (std::size_t k = j + 1; k < toks.size() && pdepth > 0; ++k) {
      if (toks[k].text == "(") ++pdepth;
      else if (toks[k].text == ")") --pdepth;
      else if (toks[k].kind == TokKind::Ident &&
               std::regex_search(toks[k].text, kParticleData)) {
        particle = true;
      }
    }
    if (!particle) continue;
    const std::size_t line = toks[i].line;
    if (line <= raw.size() && line_allows(raw[line - 1], "narrowing-in-tools"))
      continue;
    out.push_back(
        {src.path, line, "narrowing-in-tools",
         "narrowing cast on particle data in measurement code — keep the "
         "physics in double (or cast through the codec it measures)"});
  }
}

// --- rule: mutex-discipline -----------------------------------------

void rule_mutex_discipline(const Source& src, const std::vector<Token>& toks,
                           const std::vector<std::string>& raw,
                           std::vector<Violation>& out) {
  if (path_contains(src.path, "util/") || path_contains(src.path, "tests/")) {
    return;
  }
  static const std::set<std::string> kSyncNames = {
      "mutex",          "timed_mutex",
      "recursive_mutex", "recursive_timed_mutex",
      "shared_mutex",   "shared_timed_mutex",
      "lock_guard",     "unique_lock",
      "scoped_lock",    "shared_lock",
      "condition_variable", "condition_variable_any"};
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident || toks[i].text != "std" ||
        toks[i + 1].text != "::" || toks[i + 2].kind != TokKind::Ident ||
        kSyncNames.count(toks[i + 2].text) == 0) {
      continue;
    }
    const std::size_t line = toks[i].line;
    if (line <= raw.size() && line_allows(raw[line - 1], "mutex-discipline"))
      continue;
    out.push_back({src.path, line, "mutex-discipline",
                   "raw std::" + toks[i + 2].text +
                       " outside util/ — use util::Mutex / util::MutexLock / "
                       "util::CondVar (thread-safety annotated)"});
  }
}

// --- rule: hot-path-alloc -------------------------------------------

void rule_hot_path_alloc(const Source& src, const std::vector<Token>& toks,
                         const std::vector<std::string>& raw,
                         std::vector<Violation>& out) {
  const auto regions = hot_regions(raw);
  if (regions.empty()) return;
  static const std::set<std::string> kAllocNames = {
      "new",        "malloc",      "calloc",     "realloc",
      "make_unique", "make_shared", "aligned_alloc"};
  static const std::set<std::string> kGrowthNames = {"push_back",
                                                     "emplace_back"};
  const auto region_of = [&](std::size_t line) -> const HotRegion* {
    for (const auto& r : regions) {
      if (line >= r.begin && line <= r.end) return &r;
    }
    return nullptr;
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident) continue;
    const HotRegion* r = region_of(toks[i].line);
    if (r == nullptr) continue;
    const bool alloc = kAllocNames.count(toks[i].text) != 0;
    bool growth = kGrowthNames.count(toks[i].text) != 0;
    if (growth) {
      // A container grown after an explicit reserve amortizes to
      // no-allocation; accept a reserve anywhere earlier in the file
      // (the setup code outside the marked region).
      for (std::size_t k = 0; k < i; ++k) {
        if (toks[k].kind == TokKind::Ident && toks[k].text == "reserve") {
          growth = false;
          break;
        }
      }
    }
    if (!alloc && !growth) continue;
    const std::size_t line = toks[i].line;
    if (line <= raw.size() && line_allows(raw[line - 1], "hot-path-alloc"))
      continue;
    out.push_back({src.path, line, "hot-path-alloc",
                   "'" + toks[i].text + "' inside hot region '" + r->name +
                       "' — hoist the allocation out of the inner loop" +
                       (growth ? " (or reserve first)" : "")});
  }
}

// --- rule: magic-format-constant ------------------------------------

/// Parse an integer literal token (hex / binary / octal / decimal, with
/// digit separators and suffixes). Returns false for floating literals
/// or malformed tokens.
bool parse_int_literal(const std::string& tok, unsigned long long& value) {
  std::string s;
  for (char c : tok) {
    if (c != '\'') s.push_back(c);
  }
  while (!s.empty() &&
         (s.back() == 'u' || s.back() == 'U' || s.back() == 'l' ||
          s.back() == 'L' || s.back() == 'z' || s.back() == 'Z')) {
    s.pop_back();
  }
  if (s.empty() || s.find('.') != std::string::npos) return false;
  unsigned base = 10;
  std::size_t pos = 0;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    pos = 2;
  } else if (s.size() > 2 && s[0] == '0' && (s[1] == 'b' || s[1] == 'B')) {
    base = 2;
    pos = 2;
  } else if (s.size() > 1 && s[0] == '0') {
    base = 8;
    pos = 1;
  }
  if (base == 16) {
    if (s.find('p') != std::string::npos || s.find('P') != std::string::npos)
      return false;  // hex float
  } else {
    if (s.find('e') != std::string::npos || s.find('E') != std::string::npos)
      return false;  // decimal float exponent
  }
  value = 0;
  for (std::size_t i = pos; i < s.size(); ++i) {
    const char c = s[i];
    unsigned d = 0;
    if (c >= '0' && c <= '9') d = static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') d = static_cast<unsigned>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F') d = static_cast<unsigned>(c - 'A') + 10;
    else return false;
    if (d >= base) return false;
    value = value * base + d;
  }
  return true;
}

void rule_magic_format_constant(const Source& src,
                                const std::vector<Token>& toks,
                                const std::vector<std::string>& code,
                                const std::vector<std::string>& raw,
                                std::vector<Violation>& out) {
  if (!path_contains(src.path, "src/") && !path_contains(src.path, "tools/") &&
      !path_contains(src.path, "bench/")) {
    return;
  }
  if (path_contains(src.path, "tests/")) return;
  for (const auto& tok : toks) {
    if (tok.kind != TokKind::Number) continue;
    if (tok.pp) continue;  // #define MASK ... is a naming site
    const std::size_t line = tok.line;
    // A constexpr definition is the named constant itself.
    if (line <= code.size() &&
        code[line - 1].find("constexpr") != std::string::npos) {
      continue;
    }
    unsigned long long v = 0;
    if (!parse_int_literal(tok.text, v)) continue;
    // All-ones masks at least 16 bits wide: 0xFFFF, 0xFFFFF, ... —
    // wire-format field masks by construction in this codebase.
    constexpr unsigned long long kMinMask = 0xFFFF;
    if (v < kMinMask || (v & (v + 1)) != 0) continue;
    if (line <= raw.size() &&
        line_allows(raw[line - 1], "magic-format-constant")) {
      continue;
    }
    out.push_back({src.path, line, "magic-format-constant",
                   "bare field mask " + tok.text +
                       " — name it as a constexpr constant derived from the "
                       "format's bit count (e.g. math::kMortonCoordMax)"});
  }
}

// --- driver ---------------------------------------------------------

std::vector<Violation> lint_source(const Source& src) {
  const std::vector<std::string> raw = split_lines(src.raw);
  const std::string stripped = strip_comments_and_strings(src.raw);
  const std::vector<std::string> code = split_lines(stripped);
  const std::vector<bool> pp = pp_lines(code);
  const std::vector<Token> toks = lex(stripped, pp);
  std::vector<Violation> out;
  // Line rules guard library code: scoped to src/ so tool/bench mains
  // may keep their by-design stdout reporting.
  if (path_contains(src.path, "src/")) {
    rule_raw_stack(src, code, raw, out);
    rule_codec_bypass(src, code, raw, out);
    rule_raw_stdio(src, code, raw, out);
    rule_raw_thread(src, code, raw, out);
  }
  rule_narrowing_in_tools(src, toks, raw, out);
  rule_mutex_discipline(src, toks, raw, out);
  rule_hot_path_alloc(src, toks, raw, out);
  rule_magic_format_constant(src, toks, code, raw, out);
  return out;
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int report(std::vector<Violation>& all, std::size_t files) {
  for (const auto& v : all) {
    std::cerr << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  }
  if (all.empty()) {
    std::cout << "g5lint: " << files << " files clean\n";
    return 0;
  }
  std::cerr << "g5lint: " << all.size() << " violation(s) in " << files
            << " files\n";
  return 1;
}

int lint_tree(const std::vector<std::string>& roots) {
  std::vector<Violation> all;
  std::size_t files = 0;
  for (const auto& root : roots) {
    if (!fs::exists(root)) {
      std::cerr << "g5lint: no such path: " << root << "\n";
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file() || !lintable(entry.path())) continue;
      std::string rel = fs::path(entry.path()).generic_string();
      ++files;
      for (auto& v : lint_source({rel, read_file(entry.path())}))
        all.push_back(std::move(v));
    }
  }
  return report(all, files);
}

// --- compile_commands mode ------------------------------------------

/// Minimal JSON string reader: `p` at the opening quote on entry, one
/// past the closing quote on exit. Handles the escapes CMake emits.
std::string json_string(const std::string& text, std::size_t& p) {
  std::string out;
  ++p;
  while (p < text.size() && text[p] != '"') {
    if (text[p] == '\\' && p + 1 < text.size()) {
      const char e = text[p + 1];
      switch (e) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case '\\': out += '\\'; break;
        case '"': out += '"'; break;
        case '/': out += '/'; break;
        default: out += e; break;
      }
      p += 2;
    } else {
      out += text[p++];
    }
  }
  if (p < text.size()) ++p;  // closing quote
  return out;
}

/// Extract the source files from a compile_commands.json: for each
/// top-level object, read the "directory" and "file" string members
/// (string-aware, so paths inside "command" cannot confuse the scan)
/// and resolve relative files against the directory.
std::vector<std::string> parse_compile_commands(const std::string& text) {
  std::vector<std::string> files;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '{') {
      ++i;
      continue;
    }
    ++i;
    int depth = 1;
    std::string dir, file;
    while (i < text.size() && depth > 0) {
      const char c = text[i];
      if (c == '"') {
        const std::string key = json_string(text, i);
        std::size_t j = i;
        while (j < text.size() &&
               std::isspace(static_cast<unsigned char>(text[j])) != 0) {
          ++j;
        }
        if (j < text.size() && text[j] == ':') {
          ++j;
          while (j < text.size() &&
                 std::isspace(static_cast<unsigned char>(text[j])) != 0) {
            ++j;
          }
          if (j < text.size() && text[j] == '"') {
            const std::string val = json_string(text, j);
            i = j;
            if (depth == 1) {
              if (key == "directory") dir = val;
              else if (key == "file") file = val;
            }
            continue;
          }
        }
      } else if (c == '{') {
        ++depth;
        ++i;
      } else if (c == '}') {
        --depth;
        ++i;
      } else {
        ++i;
      }
    }
    if (!file.empty()) {
      fs::path p(file);
      if (p.is_relative() && !dir.empty()) p = fs::path(dir) / p;
      files.push_back(p.lexically_normal().generic_string());
    }
  }
  return files;
}

int lint_compile_commands(const std::string& db_path) {
  if (!fs::exists(db_path)) {
    std::cerr << "g5lint: no such compile database: " << db_path << "\n";
    return 2;
  }
  const std::string text = read_file(db_path);
  std::set<std::string> seen;
  std::vector<Violation> all;
  std::size_t files = 0;
  for (const auto& f : parse_compile_commands(text)) {
    const std::string ext = fs::path(f).extension().string();
    if (ext != ".cpp" && ext != ".cc" && ext != ".cxx") continue;
    // Generated/vendored TUs and the deliberate compile-fail fixtures
    // are not ours to lint.
    if (path_contains(f, "/build/") || path_contains(f, "_deps") ||
        path_contains(f, "CMakeFiles") || path_contains(f, "compile_fail")) {
      continue;
    }
    if (!seen.insert(f).second) continue;
    if (!fs::exists(f)) continue;
    ++files;
    for (auto& v : lint_source({f, read_file(f)}))
      all.push_back(std::move(v));
  }
  if (files == 0) {
    std::cerr << "g5lint: compile database lists no lintable sources\n";
    return 2;
  }
  return report(all, files);
}

// --- self-test -------------------------------------------------------

struct Fixture {
  const char* name;
  const char* path;
  const char* content;
  const char* expect_rule;  // nullptr => must be clean
};

const Fixture kFixtures[] = {
    {"raw stack array is caught", "src/tree/bad_walk.cpp",
     "void walk() {\n  std::int32_t stack[512];\n  (void)stack;\n}\n",
     "raw-stack"},
    {"named-constant stack extent is caught", "src/tree/bad_walk2.cpp",
     "void walk() {\n  NodeId node_stack[kMaxDepth];\n}\n", "raw-stack"},
    {"std::array stack is caught", "src/core/bad_walk3.cpp",
     "void walk() {\n  std::array<std::uint32_t, 512> stack{};\n}\n",
     "raw-stack"},
    {"stack mention in comment is ignored", "src/tree/ok_comment.cpp",
     "// the old code used std::int32_t stack[512]; never again\n"
     "void walk();\n",
     nullptr},
    {"indexing an outside-provided stack is ignored", "src/tree/ok_index.cpp",
     "int top(int* stack, int sp) {\n  return stack[sp];\n}\n", nullptr},
    {"TraversalStack implementation is exempt",
     "src/tree/traversal_stack.hpp",
     "struct TraversalStack {\n  std::int32_t inline_stack[64];\n};\n",
     nullptr},
    {"allow() comment exempts a stack", "src/tree/ok_allow.cpp",
     "void walk() {\n"
     "  int stack[8];  // g5lint: allow(raw-stack) bounded by protocol\n"
     "}\n",
     nullptr},

    {"narrowing cast on particle data in grape is caught",
     "src/grape/bad_cast.cpp",
     "float f(double* pos) {\n  return static_cast<float>(pos[0]);\n}\n",
     "codec-bypass"},
    {"narrowing cast on mass is caught", "src/grape/bad_cast2.cpp",
     "int g(double mass) {\n  return static_cast<std::int32_t>(mass * s);\n}\n",
     "codec-bypass"},
    {"narrowing cast on counters is fine", "src/grape/ok_cast.cpp",
     "int boards(const Config& cfg) {\n"
     "  return static_cast<int>(cfg.boards * cfg.board.i_slots());\n}\n",
     nullptr},
    {"widening cast on particle data is fine", "src/grape/ok_cast2.cpp",
     "double h(std::int64_t dx_code) {\n"
     "  return static_cast<double>(dx_code) * q;\n}\n",
     nullptr},
    {"particle-data cast outside grape/ is out of scope",
     "src/ic/ok_cast.cpp",
     "float f(double mass) {\n  return static_cast<float>(mass);\n}\n",
     nullptr},
    {"allow() comment exempts a cast", "src/grape/ok_allow.cpp",
     "int f(double pot) {\n"
     "  return static_cast<int>(pot);  "
     "// g5lint: allow(codec-bypass) display only\n}\n",
     nullptr},

    {"std::cout in library code is caught", "src/core/bad_io.cpp",
     "void dump() {\n  std::cout << \"x\";\n}\n", "raw-stdio"},
    {"bare printf is caught", "src/core/bad_io2.cpp",
     "void dump() {\n  printf(\"%d\", 1);\n}\n", "raw-stdio"},
    {"fprintf to stderr is caught", "src/grape/bad_io3.cpp",
     "void dump() {\n  std::fprintf(stderr, \"x\");\n}\n", "raw-stdio"},
    {"fprintf to an explicit FILE* sink is fine", "src/core/ok_io.cpp",
     "void dump(std::FILE* f) {\n  std::fprintf(f, \"x\");\n}\n", nullptr},
    {"snprintf into a buffer is fine", "src/core/ok_io2.cpp",
     "void name(char* b, size_t n) {\n  std::snprintf(b, n, \"x\");\n}\n",
     nullptr},
    {"util/log.cpp is exempt", "src/util/log.cpp",
     "void emit() {\n  std::fprintf(stderr, \"x\");\n}\n", nullptr},
    {"printf inside a string literal is ignored", "src/core/ok_io3.cpp",
     "const char* kHelp = \"use printf(3) formatting\";\n", nullptr},

    {"raw std::thread outside util/ is caught", "src/core/bad_thread.cpp",
     "void f() {\n  std::thread t([] {});\n  t.join();\n}\n", "raw-thread"},
    {"std::jthread is caught too", "src/grape/bad_thread2.cpp",
     "struct S {\n  std::jthread worker;\n};\n", "raw-thread"},
    {"util/ may hold the raw thread", "src/util/thread.hpp",
     "class Thread {\n  std::thread t_;\n};\n", nullptr},
    {"std::thread::id is a type use, not a spawn", "src/obs/ok_tid.cpp",
     "std::map<std::thread::id, int> tids;\n", nullptr},
    {"thread mention in a comment is ignored", "src/core/ok_thread.cpp",
     "// never use std::thread here\nvoid f();\n", nullptr},
    {"allow() comment exempts a thread", "src/core/ok_thread2.cpp",
     "void f() {\n"
     "  std::thread t(fn);  // g5lint: allow(raw-thread) test harness\n"
     "  t.join();\n}\n",
     nullptr},

    // ---- stripper v2: raw strings and comment line-continuation ----
    {"stdio name inside a raw string with an embedded quote is ignored",
     "src/core/ok_raw1.cpp",
     "const char* s = R\"(a \" quote then std::cout << 1;)\";\n", nullptr},
    {"printf inside a delimited raw string is ignored",
     "src/core/ok_raw2.cpp",
     "const char* s = R\"x(printf(\")x\";\n", nullptr},
    {"code after a raw string is still linted", "src/core/bad_raw3.cpp",
     "void f() {\n"
     "  const char* s = R\"(text)\";\n"
     "  std::cout << s;\n"
     "}\n",
     "raw-stdio"},
    {"line-continued // comment swallows the next line",
     "src/core/ok_cont1.cpp",
     "void f() {\n"
     "  // the next line is spliced into this comment \\\n"
     "  std::cout << 1;\n"
     "}\n",
     nullptr},
    {"code after a continued #define is still linted",
     "src/core/bad_cont2.cpp",
     "#define LOG(x) \\\n"
     "  do_log(x)\n"
     "void f() { std::cout << 1; }\n",
     "raw-stdio"},

    // ---- narrowing-in-tools ----
    {"narrowing cast on mass in tools is caught", "tools/bad_cast.cpp",
     "float f(double mass) {\n  return static_cast<float>(mass);\n}\n",
     "narrowing-in-tools"},
    {"narrowing cast on pos in bench is caught", "bench/bad_cast.cpp",
     "int g(const double* pos) {\n  return static_cast<int>(pos[0]);\n}\n",
     "narrowing-in-tools"},
    {"narrowing a counter in tools is fine", "tools/ok_cast1.cpp",
     "int f(std::size_t n_items) {\n  return static_cast<int>(n_items);\n}\n",
     nullptr},
    {"widening cast on particle data in tools is fine", "tools/ok_cast2.cpp",
     "double f(float mass) {\n  return static_cast<double>(mass);\n}\n",
     nullptr},
    {"allow() comment exempts a tools narrowing", "tools/ok_cast3.cpp",
     "float f(double pos) {\n"
     "  return static_cast<float>(pos);  "
     "// g5lint: allow(narrowing-in-tools) plot coordinates only\n}\n",
     nullptr},

    // ---- mutex-discipline ----
    {"std::mutex member outside util/ is caught", "src/core/bad_mutex1.cpp",
     "class Q {\n  std::mutex m_;\n};\n", "mutex-discipline"},
    {"std::lock_guard (CTAD) outside util/ is caught",
     "src/grape/bad_mutex2.cpp",
     "void f() {\n  std::lock_guard g(m_);\n}\n", "mutex-discipline"},
    {"util/ may hold the raw mutex", "src/util/mutex2.hpp",
     "class Mutex {\n  std::mutex m_;\n};\n", nullptr},
    {"util::Mutex wrapper use is fine", "src/core/ok_mutex1.cpp",
     "class Q {\n  util::Mutex m_;\n  void f() { util::MutexLock g(m_); }\n"
     "};\n",
     nullptr},
    {"tests may use std sync directly", "tests/ok_mutex_test.cpp",
     "void f() {\n  std::mutex m;\n  std::scoped_lock lock(m);\n}\n",
     nullptr},
    {"allow() comment exempts a mutex", "src/core/ok_mutex2.cpp",
     "class Q {\n"
     "  std::mutex m_;  // g5lint: allow(mutex-discipline) ABI boundary\n"
     "};\n",
     nullptr},
    {"std::condition_variable outside util/ is caught",
     "src/grape/bad_cv.cpp",
     "class Q {\n  std::condition_variable cv_;\n};\n", "mutex-discipline"},

    // ---- hot-path-alloc ----
    {"operator new inside a hot region is caught", "src/tree/bad_hot1.cpp",
     "void f() {\n"
     "  // g5lint: hot-begin(walk)\n"
     "  int* p = new int[4];\n"
     "  // g5lint: hot-end\n"
     "  delete[] p;\n"
     "}\n",
     "hot-path-alloc"},
    {"make_unique inside a hot region is caught", "src/grape/bad_hot2.cpp",
     "void f() {\n"
     "  // g5lint: hot-begin(pipeline)\n"
     "  auto q = std::make_unique<int>(3);\n"
     "  // g5lint: hot-end\n"
     "}\n",
     "hot-path-alloc"},
    {"push_back without reserve inside a hot region is caught",
     "src/tree/bad_hot3.cpp",
     "void f(std::vector<int>& v) {\n"
     "  // g5lint: hot-begin(walk)\n"
     "  v.push_back(1);\n"
     "  // g5lint: hot-end\n"
     "}\n",
     "hot-path-alloc"},
    {"push_back after a reserve is fine", "src/tree/ok_hot1.cpp",
     "void f(std::vector<int>& v, std::size_t n) {\n"
     "  v.reserve(n);\n"
     "  // g5lint: hot-begin(walk)\n"
     "  v.push_back(1);\n"
     "  // g5lint: hot-end\n"
     "}\n",
     nullptr},
    {"allocation outside the region is fine", "src/tree/ok_hot2.cpp",
     "void f() {\n"
     "  auto q = std::make_unique<int>(3);\n"
     "  // g5lint: hot-begin(walk)\n"
     "  *q += 1;\n"
     "  // g5lint: hot-end\n"
     "}\n",
     nullptr},
    {"allow() comment exempts a hot allocation", "src/tree/ok_hot3.cpp",
     "void f() {\n"
     "  // g5lint: hot-begin(walk)\n"
     "  int* p = new int;  // g5lint: allow(hot-path-alloc) cold error path\n"
     "  // g5lint: hot-end\n"
     "  delete p;\n"
     "}\n",
     nullptr},

    // ---- magic-format-constant ----
    {"bare hex all-ones mask is caught", "src/core/bad_magic1.cpp",
     "std::uint32_t f(std::uint32_t x) {\n  return x & 0xFFFFF;\n}\n",
     "magic-format-constant"},
    {"bare decimal all-ones mask is caught", "src/core/bad_magic2.cpp",
     "bool f(long x) {\n  return x > 1048575;\n}\n",
     "magic-format-constant"},
    {"constexpr definition is the naming site", "src/math/ok_magic1.hpp",
     "inline constexpr std::uint32_t kCoordMask = 0xFFFFF;\n", nullptr},
    {"small literals are fine", "src/core/ok_magic2.cpp",
     "int f(int x) {\n  return (x & 0xFF) + 1024;\n}\n", nullptr},
    {"non-all-ones morton mask is fine", "src/math/ok_magic3.cpp",
     "std::uint64_t f(std::uint64_t v) {\n"
     "  return v & 0x1f00000000ffffULL;\n}\n",
     nullptr},
    {"allow() comment exempts a mask", "src/core/ok_magic4.cpp",
     "std::uint32_t f(std::uint32_t x) {\n"
     "  return x & 0xffff;  "
     "// g5lint: allow(magic-format-constant) checksum, not a format\n}\n",
     nullptr},
    {"#define mask is the naming site", "src/core/ok_magic5.hpp",
     "#define G5_COORD_MASK 0xFFFFF\n", nullptr},
};

int self_test() {
  int failures = 0;
  for (const auto& fx : kFixtures) {
    const auto violations = lint_source({fx.path, fx.content});
    std::string got;
    for (const auto& v : violations) {
      got += (got.empty() ? "" : ",") + v.rule;
    }
    const bool ok = fx.expect_rule
                        ? (violations.size() == 1 &&
                           violations[0].rule == fx.expect_rule)
                        : violations.empty();
    if (!ok) {
      ++failures;
      std::cerr << "FAIL: " << fx.name << " — expected "
                << (fx.expect_rule ? fx.expect_rule : "clean") << ", got "
                << (got.empty() ? "clean" : got) << "\n";
    }
  }
  const auto total = sizeof(kFixtures) / sizeof(kFixtures[0]);
  if (failures == 0) {
    std::cout << "g5lint self-test: " << total << " fixtures ok\n";
    return 0;
  }
  std::cerr << "g5lint self-test: " << failures << "/" << total
            << " fixtures failed\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string db;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (arg == "--compile-commands") {
      if (i + 1 >= argc) {
        std::cerr << "g5lint: --compile-commands needs a path\n";
        return 2;
      }
      db = argv[++i];
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: g5lint <src-root>... | "
                   "g5lint --compile-commands <json> | g5lint --self-test\n";
      return 0;
    }
    roots.push_back(arg);
  }
  if (!db.empty()) {
    if (!roots.empty()) {
      std::cerr << "g5lint: --compile-commands excludes explicit roots\n";
      return 2;
    }
    return lint_compile_commands(db);
  }
  if (roots.empty()) {
    std::cerr << "usage: g5lint <src-root>... | "
                 "g5lint --compile-commands <json> | g5lint --self-test\n";
    return 2;
  }
  return lint_tree(roots);
}
