#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "common/assert.hpp"
#include "lint/rules_semantic.hpp"
#include "obs/json.hpp"
#include "parallel/thread_pool.hpp"

namespace plos::lint {

namespace {

namespace json = plos::obs::json;

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    if (end == text.size()) break;
    start = end + 1;
  }
  return lines;
}

// ---- suppressions --------------------------------------------------------

struct Suppressions {
  std::set<std::string> file_wide;                  // allow-file(rule)
  std::map<int, std::set<std::string>> per_line;    // allow(rule) on line N
};

void parse_allow_list(std::string_view text, std::set<std::string>& out) {
  std::string name;
  for (char c : text) {
    if (c == ',' || c == ')') {
      if (!name.empty()) out.insert(name);
      name.clear();
      if (c == ')') return;
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      name += c;
    }
  }
}

Suppressions parse_suppressions(const std::vector<std::string_view>& lines) {
  Suppressions sup;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    const std::size_t marker = line.find("plos-lint:");
    if (marker == std::string_view::npos) continue;
    std::string_view rest = line.substr(marker + 10);
    while (!rest.empty() &&
           std::isspace(static_cast<unsigned char>(rest.front()))) {
      rest.remove_prefix(1);
    }
    if (rest.rfind("allow-file(", 0) == 0) {
      parse_allow_list(rest.substr(11), sup.file_wide);
    } else if (rest.rfind("allow(", 0) == 0) {
      parse_allow_list(rest.substr(6), sup.per_line[static_cast<int>(i + 1)]);
    }
  }
  return sup;
}

bool suppressed(const Suppressions& sup, const std::string& rule, int line) {
  if (sup.file_wide.count(rule) != 0) return true;
  for (int l : {line, line - 1}) {
    auto it = sup.per_line.find(l);
    if (it != sup.per_line.end() && it->second.count(rule) != 0) return true;
  }
  return false;
}

// ---- path scoping --------------------------------------------------------

bool has_prefix(const std::string& path, const std::string& prefix) {
  return path.rfind(prefix, 0) == 0;
}

bool rule_applies(const Rule& rule, const std::string& path) {
  if (!rule.paths.empty() &&
      std::none_of(rule.paths.begin(), rule.paths.end(),
                   [&](const std::string& p) { return has_prefix(path, p); })) {
    return false;
  }
  return std::none_of(
      rule.allow_paths.begin(), rule.allow_paths.end(),
      [&](const std::string& p) { return has_prefix(path, p); });
}

bool is_header(const std::string& path) {
  return path.size() >= 4 && (path.rfind(".hpp") == path.size() - 4 ||
                              path.rfind(".h") == path.size() - 2);
}

// ---- rule engines --------------------------------------------------------

std::string stem_of(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

void apply_banned_patterns(const Rule& rule, const std::string& path,
                           const std::vector<std::string_view>& code_lines,
                           std::vector<Finding>& findings) {
  std::vector<std::regex> compiled;
  compiled.reserve(rule.patterns.size());
  for (const std::string& p : rule.patterns) {
    compiled.emplace_back(p, std::regex::optimize);
  }
  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    for (std::size_t r = 0; r < compiled.size(); ++r) {
      if (std::regex_search(code_lines[i].begin(), code_lines[i].end(),
                            compiled[r])) {
        findings.push_back(Finding{rule.name, path, static_cast<int>(i + 1),
                                   rule.message});
        break;  // one finding per line per rule
      }
    }
  }
}

void apply_float_eq(const Rule& rule, const std::string& path,
                    const std::vector<std::string_view>& code_lines,
                    std::vector<Finding>& findings) {
  // A floating literal: 1.5 / .5 / 1. / 1e-9 / 1.5e3, optional f/F suffix.
  static const char* kFloat =
      R"((\d+\.\d*([eE][-+]?\d+)?|\.\d+([eE][-+]?\d+)?|\d+[eE][-+]?\d+)[fFlL]?)";
  static const std::regex rhs_re(std::string(R"((==|!=)\s*[-+]?)") + kFloat,
                                 std::regex::optimize);
  static const std::regex lhs_re(std::string(kFloat) + R"(\s*(==|!=))",
                                 std::regex::optimize);
  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    const std::string line(code_lines[i]);
    bool flagged = false;
    for (const std::regex* re : {&rhs_re, &lhs_re}) {
      for (auto it = std::sregex_iterator(line.begin(), line.end(), *re);
           !flagged && it != std::sregex_iterator(); ++it) {
        const std::smatch& m = *it;
        // Exact comparison against zero (x == 0.0) is the explicit
        // "was this coordinate ever touched" idiom and stays legal.
        const std::string literal =
            m[1].str() == "==" || m[1].str() == "!=" ? m[2].str() : m[1].str();
        flagged = std::strtod(literal.c_str(), nullptr) != 0.0;
      }
      if (flagged) break;
    }
    if (flagged) {
      findings.push_back(
          Finding{rule.name, path, static_cast<int>(i + 1), rule.message});
    }
  }
}

void apply_pragma_once(const Rule& rule, const std::string& path,
                       std::string_view source,
                       std::vector<Finding>& findings) {
  if (!is_header(path)) return;
  if (source.find("#pragma once") == std::string_view::npos) {
    findings.push_back(Finding{rule.name, path, 1, rule.message});
  }
}

void apply_include_order(const Rule& rule, const std::string& path,
                         const std::vector<Include>& includes,
                         std::vector<Finding>& findings) {
  if (includes.empty()) return;

  // A .cpp's own header (same stem) must be the very first include.
  const bool is_source = path.rfind(".cpp") == path.size() - 4;
  if (is_source) {
    const std::string stem = stem_of(path);
    for (std::size_t i = 0; i < includes.size(); ++i) {
      if (!includes[i].angle && stem_of(includes[i].target) == stem) {
        if (i != 0) {
          findings.push_back(Finding{rule.name, path, includes[i].line,
                                     "own header must be the first include"});
        }
        break;
      }
    }
  }

  // After an optional leading quoted subject header, the angle-bracket
  // block must precede the quoted block (no interleaving back).
  std::size_t start = includes.empty() || includes[0].angle ? 0 : 1;
  bool seen_quoted = false;
  for (std::size_t i = start; i < includes.size(); ++i) {
    if (!includes[i].angle) {
      seen_quoted = true;
    } else if (seen_quoted) {
      findings.push_back(
          Finding{rule.name, path, includes[i].line,
                  "angle-bracket include after project includes"});
    }
  }
}

void apply_using_namespace(const Rule& rule, const std::string& path,
                           const std::vector<std::string_view>& code_lines,
                           std::vector<Finding>& findings) {
  if (!is_header(path)) return;
  static const std::regex re(R"(\busing\s+namespace\b)", std::regex::optimize);
  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    if (std::regex_search(code_lines[i].begin(), code_lines[i].end(), re)) {
      findings.push_back(
          Finding{rule.name, path, static_cast<int>(i + 1), rule.message});
    }
  }
}

// ---- config parsing ------------------------------------------------------

std::vector<std::string> string_array(const json::Value& obj,
                                      std::string_view key) {
  std::vector<std::string> out;
  const json::Value* field = obj.find(key);
  if (field == nullptr || !field->is_array()) return out;
  for (const json::Value& v : field->as_array()) {
    if (v.is_string()) out.push_back(v.as_string());
  }
  return out;
}

std::optional<RuleKind> kind_from_string(const std::string& kind) {
  if (kind == "banned-pattern") return RuleKind::kBannedPattern;
  if (kind == "float-eq") return RuleKind::kFloatEq;
  if (kind == "pragma-once") return RuleKind::kPragmaOnce;
  if (kind == "include-order") return RuleKind::kIncludeOrder;
  if (kind == "using-namespace-header") return RuleKind::kUsingNamespaceHeader;
  if (kind == "race-surface") return RuleKind::kRaceSurface;
  if (kind == "accumulation-order") return RuleKind::kAccumulationOrder;
  if (kind == "layering") return RuleKind::kLayering;
  return std::nullopt;
}

}  // namespace

std::optional<Config> parse_config(std::string_view json_text,
                                   std::string* error) {
  std::string parse_error;
  const auto doc = json::parse(json_text, &parse_error);
  if (!doc || !doc->is_object()) {
    if (error != nullptr) {
      *error = "lint_rules.json: " +
               (parse_error.empty() ? "not a JSON object" : parse_error);
    }
    return std::nullopt;
  }

  Config config;
  config.roots = string_array(*doc, "roots");
  config.extensions = string_array(*doc, "extensions");
  if (config.extensions.empty()) config.extensions = {".cpp", ".hpp", ".h"};

  const json::Value* rules = doc->find("rules");
  if (rules == nullptr || !rules->is_array()) {
    if (error != nullptr) *error = "lint_rules.json: missing \"rules\" array";
    return std::nullopt;
  }
  for (const json::Value& entry : rules->as_array()) {
    if (!entry.is_object()) continue;
    Rule rule;
    if (const json::Value* v = entry.find("name"); v && v->is_string()) {
      rule.name = v->as_string();
    }
    std::string kind = "banned-pattern";
    if (const json::Value* v = entry.find("kind"); v && v->is_string()) {
      kind = v->as_string();
    }
    const auto parsed_kind = kind_from_string(kind);
    if (rule.name.empty() || !parsed_kind) {
      if (error != nullptr) {
        *error = "lint_rules.json: rule \"" + rule.name +
                 "\" has missing name or unknown kind \"" + kind + "\"";
      }
      return std::nullopt;
    }
    rule.kind = *parsed_kind;
    if (const json::Value* v = entry.find("message"); v && v->is_string()) {
      rule.message = v->as_string();
    }
    if (const json::Value* v = entry.find("enabled"); v && v->is_bool()) {
      rule.enabled = v->as_bool();
    }
    rule.patterns = string_array(entry, "patterns");
    rule.paths = string_array(entry, "paths");
    rule.allow_paths = string_array(entry, "allow_paths");
    config.rules.push_back(std::move(rule));
  }
  return config;
}

std::vector<Finding> lint_source(const Config& config, const std::string& path,
                                 std::string_view source) {
  const std::string code = strip_comments_and_strings(source);
  const std::vector<std::string_view> code_lines = split_lines(code);
  const std::vector<Include> includes = parse_includes(code);
  const Suppressions sup = parse_suppressions(split_lines(source));

  // The token stream is shared by the semantic rules and built on demand:
  // pattern-only configs never pay for tokenization.
  std::optional<std::vector<Token>> tokens;
  const auto token_stream = [&]() -> const std::vector<Token>& {
    if (!tokens) tokens = tokenize(code);
    return *tokens;
  };

  std::vector<Finding> findings;
  for (const Rule& rule : config.rules) {
    if (!rule.enabled || !rule_applies(rule, path)) continue;
    switch (rule.kind) {
      case RuleKind::kBannedPattern:
        apply_banned_patterns(rule, path, code_lines, findings);
        break;
      case RuleKind::kFloatEq:
        apply_float_eq(rule, path, code_lines, findings);
        break;
      case RuleKind::kPragmaOnce:
        apply_pragma_once(rule, path, source, findings);
        break;
      case RuleKind::kIncludeOrder:
        apply_include_order(rule, path, includes, findings);
        break;
      case RuleKind::kUsingNamespaceHeader:
        apply_using_namespace(rule, path, code_lines, findings);
        break;
      case RuleKind::kRaceSurface:
        apply_race_surface(rule, path, token_stream(), findings);
        break;
      case RuleKind::kAccumulationOrder:
        apply_accumulation_order(rule, path, token_stream(), findings);
        break;
      case RuleKind::kLayering:
        if (config.layers_loaded) {
          apply_layering(rule, path, code, config.layers, findings);
        }
        break;
    }
  }

  std::erase_if(findings, [&](const Finding& f) {
    return suppressed(sup, f.rule, f.line);
  });
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return findings;
}

std::vector<Finding> lint_files(const Config& config, const FileSet& files,
                                int threads) {
  std::vector<const FileSet::value_type*> entries;
  entries.reserve(files.size());
  for (const auto& entry : files) entries.push_back(&entry);

  std::vector<std::vector<Finding>> per_file(entries.size());
  const auto scan_one = [&](std::size_t i) {
    per_file[i] = lint_source(config, entries[i]->first, entries[i]->second);
  };
  if (threads > 1 && entries.size() > 1) {
    parallel::ThreadPool pool(threads);
    pool.parallel_for(entries.size(), scan_one);
  } else {
    for (std::size_t i = 0; i < entries.size(); ++i) scan_one(i);
  }

  // Merge in path order: the report is byte-identical at any thread count.
  std::vector<Finding> findings;
  for (auto& file_findings : per_file) {
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

std::optional<FileSet> collect_tree(const std::string& root_dir,
                                    const Config& config, std::string* error) {
  namespace fs = std::filesystem;
  FileSet files;
  for (const std::string& root : config.roots) {
    const fs::path dir = fs::path(root_dir) / root;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
      if (error != nullptr) {
        *error = "scan root not found: " + dir.generic_string();
      }
      return std::nullopt;
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string rel =
          fs::relative(entry.path(), root_dir).generic_string();
      const bool wanted = std::any_of(
          config.extensions.begin(), config.extensions.end(),
          [&](const std::string& ext) {
            return rel.size() >= ext.size() &&
                   rel.compare(rel.size() - ext.size(), ext.size(), ext) == 0;
          });
      if (!wanted) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream contents;
      contents << in.rdbuf();
      files[rel] = contents.str();
    }
  }
  return files;
}

std::string format_findings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": error: [" + f.rule +
           "] " + f.message + "\n";
  }
  return out;
}

std::string format_sarif(const Config& config,
                         const std::vector<Finding>& findings) {
  std::map<std::string, std::size_t> rule_index;
  std::string rules_json;
  for (const Rule& rule : config.rules) {
    if (!rule.enabled) continue;
    if (!rules_json.empty()) rules_json += ",";
    rule_index[rule.name] = rule_index.size();
    rules_json += "{\"id\":" + json::escape(rule.name) +
                  ",\"shortDescription\":{\"text\":" +
                  json::escape(rule.message) + "}}";
  }

  std::string results_json;
  for (const Finding& f : findings) {
    if (!results_json.empty()) results_json += ",";
    results_json += "{\"ruleId\":" + json::escape(f.rule);
    const auto it = rule_index.find(f.rule);
    if (it != rule_index.end()) {
      results_json += ",\"ruleIndex\":" + std::to_string(it->second);
    }
    results_json +=
        ",\"level\":\"error\",\"message\":{\"text\":" + json::escape(f.message) +
        "},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":" +
        json::escape(f.file) +
        ",\"uriBaseId\":\"SRCROOT\"},\"region\":{\"startLine\":" +
        std::to_string(f.line) + "}}}]}";
  }

  return "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\","
         "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":"
         "{\"name\":\"plos_lint\",\"rules\":[" +
         rules_json + "]}},\"columnKind\":\"utf16CodeUnits\",\"results\":[" +
         results_json + "]}]}\n";
}

// ---- mechanical fixes ----------------------------------------------------

namespace {

std::string_view trim_left(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  return s;
}

std::vector<std::string> split_lines_owned(std::string_view text) {
  std::vector<std::string> lines;
  for (std::string_view line : split_lines(text)) {
    lines.emplace_back(line);
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size()) out += "\n";
  }
  return out;
}

}  // namespace

FixOutcome fix_mechanical(const Config& config, const std::string& path,
                          std::string_view source) {
  FixOutcome outcome;
  if (source.find("plos-lint:") != std::string_view::npos) {
    outcome.refused = true;
    return outcome;
  }
  bool want_pragma = false;
  bool want_order = false;
  for (const Rule& rule : config.rules) {
    if (!rule.enabled || !rule_applies(rule, path)) continue;
    if (rule.kind == RuleKind::kPragmaOnce) want_pragma = true;
    if (rule.kind == RuleKind::kIncludeOrder) want_order = true;
  }

  std::vector<std::string> lines = split_lines_owned(source);

  if (want_pragma && is_header(path) &&
      source.find("#pragma once") == std::string_view::npos) {
    // Insert after the leading comment block (and its trailing blank), so
    // the file-header prose stays on top.
    std::size_t at = 0;
    while (at < lines.size()) {
      const std::string_view t = trim_left(lines[at]);
      if (t.empty() || t.rfind("//", 0) == 0) {
        ++at;
      } else {
        break;
      }
    }
    const bool needs_blank = at < lines.size() && !trim_left(lines[at]).empty();
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                 "#pragma once");
    if (needs_blank) {
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at) + 1, "");
    }
  }

  if (want_order) {
    const std::string code = strip_comments_and_strings(join_lines(lines));
    const std::vector<Include> includes = parse_includes(code);
    if (includes.size() >= 2) {
      const int first = includes.front().line;  // 1-based
      const int last = includes.back().line;
      std::set<int> include_lines;
      for (const Include& inc : includes) include_lines.insert(inc.line);

      // Only rebuild a region that holds nothing but includes and blank
      // lines — a comment pinned to one include would otherwise detach.
      bool safe = true;
      for (int l = first; l <= last && safe; ++l) {
        if (include_lines.count(l) != 0) continue;
        if (!trim_left(lines[static_cast<std::size_t>(l - 1)]).empty()) {
          safe = false;
        }
      }
      if (safe) {
        const bool is_source = path.rfind(".cpp") == path.size() - 4;
        const std::string stem = stem_of(path);
        std::vector<std::string> own, angle, quoted;
        for (const Include& inc : includes) {
          std::string& line = lines[static_cast<std::size_t>(inc.line - 1)];
          if (!inc.angle && is_source && own.empty() &&
              stem_of(inc.target) == stem) {
            own.push_back(line);
          } else if (inc.angle) {
            angle.push_back(line);
          } else {
            quoted.push_back(line);
          }
        }
        std::vector<std::string> region;
        for (const auto* block : {&own, &angle, &quoted}) {
          if (block->empty()) continue;
          if (!region.empty()) region.emplace_back();
          region.insert(region.end(), block->begin(), block->end());
        }
        lines.erase(lines.begin() + (first - 1), lines.begin() + last);
        lines.insert(lines.begin() + (first - 1), region.begin(),
                     region.end());
      }
    }
  }

  std::string fixed = join_lines(lines);
  if (fixed != source) {
    outcome.changed = true;
    outcome.text = std::move(fixed);
  }
  return outcome;
}

// ---- self-test fixtures --------------------------------------------------

namespace {

struct Fixture {
  const char* name;
  const char* path;         // repo-relative, drives path-scoped rules
  const char* expect_rule;  // "" = must lint clean; "a,b" = a required,
                            // b tolerated (overlapping rule families)
  const char* source;
};

// Bad fixtures must each trip exactly their named rule; good fixtures must
// produce no findings. Bad code lives in raw strings here, which the
// scrubber blanks when plos_lint scans its own source — the analyzer does
// not flag its own fixtures.
const Fixture kFixtures[] = {
    {"rng-in-solver", "src/core/bad_rng.cpp", "determinism-rng",
     R"(#include "core/bad_rng.hpp"
void seed_model() {
  std::random_device rd;
  (void)rd;
}
)"},
    {"unseeded-engine", "src/core/bad_engine.cpp", "determinism-rng",
     R"(#include "core/bad_engine.hpp"
#include <random>
std::mt19937 gen;
)"},
    {"clock-in-solver", "src/core/bad_clock.cpp", "determinism-clock",
     R"(#include "core/bad_clock.hpp"
#include <chrono>
double now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
)"},
    {"unordered-in-solver", "src/core/bad_unordered.cpp",
     "determinism-unordered",
     R"(#include "core/bad_unordered.hpp"
#include <unordered_map>
std::unordered_map<int, double> weights;
)"},
    {"build-stamp", "src/data/bad_stamp.cpp", "determinism-build-stamp",
     R"(#include "data/bad_stamp.hpp"
const char* built_at() { return __DATE__; }
)"},
    {"float-in-core", "src/qp/bad_float.cpp", "numeric-no-float",
     R"(#include "qp/bad_float.hpp"
float step_size = 0;
)"},
    {"float-equality", "src/core/bad_eq.cpp", "numeric-float-eq",
     R"(#include "core/bad_eq.hpp"
bool converged(double f) { return f == 1.5; }
)"},
    {"c-abs-on-double", "src/core/bad_abs.cpp", "numeric-c-abs",
     R"(#include "core/bad_abs.hpp"
#include <cstdlib>
double mag(double x) { return abs(x); }
)"},
    // The federated privacy edge (raw rows never reach src/net) is carried
    // by the layering DAG: net may include only common and obs.
    {"raw-data-in-net", "src/net/bad_privacy.cpp", "layering",
     R"(#include "net/bad_privacy.hpp"

#include "data/dataset.hpp"
)"},
    {"iostream-in-lib", "src/core/bad_io.cpp", "io-iostream",
     R"(#include "core/bad_io.hpp"

#include <iostream>
void report() { std::cout << "objective\n"; }
)"},
    {"missing-pragma-once", "src/core/bad_header.hpp", "hygiene-pragma-once",
     R"(namespace plos {}
)"},
    {"include-order", "src/core/bad_order.cpp", "hygiene-include-order",
     R"(#include "core/bad_order.hpp"

#include "common/assert.hpp"

#include <vector>
)"},
    {"using-namespace-header", "src/core/bad_using.hpp",
     "hygiene-using-namespace",
     R"(#pragma once
using namespace std;
)"},
    // Planted unsynchronized capture: `total` is shared across chunks and
    // written without indexing, atomics, or a lock. Must flag.
    {"race-unsynchronized-capture", "src/core/bad_race.cpp", "race-surface",
     R"(#include "core/bad_race.hpp"

#include <cstddef>
#include <vector>

#include "parallel/thread_pool.hpp"

double sum_losses(const std::vector<double>& x) {
  double total = 0.0;
  plos::parallel::ThreadPool pool(4);
  pool.parallel_for(x.size(), [&](std::size_t t) {
    total += x[t];
  });
  return total;
}
)"},
    // Chunk-indexed write: every chunk owns out[t]. Must NOT flag.
    {"race-chunk-indexed-write", "src/core/good_chunked.cpp", "",
     R"(#include "core/good_chunked.hpp"

#include <cstddef>
#include <vector>

#include "parallel/thread_pool.hpp"

void square_all(std::vector<double>& out, const std::vector<double>& in) {
  plos::parallel::ThreadPool pool(2);
  pool.parallel_for(in.size(), [&](std::size_t t) {
    out[t] = in[t] * in[t];
  });
}
)"},
    {"accumulation-raw-fold", "src/qp/bad_fold.cpp", "accumulation-order",
     R"(#include "qp/bad_fold.hpp"

#include <cstddef>
#include <vector>

double objective(const std::vector<double>& g, const std::vector<double>& x) {
  double obj = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    obj += g[i] * x[i];
  }
  return obj;
}
)"},
    // Pinned-order kernel call and a genuine recurrence (the target is
    // re-read in the loop) are both legal shapes.
    {"accumulation-kernel-and-scan", "src/qp/good_fold.cpp", "",
     R"(#include "qp/good_fold.hpp"

#include <vector>

#include "linalg/kernels.hpp"

double objective(const std::vector<double>& g, const std::vector<double>& x) {
  return plos::linalg::kernels::blocked_dot(g, x);
}

double first_crossing(const std::vector<double>& u, double cap) {
  double running = 0.0;
  for (double v : u) {
    running += v;
    if (running > cap) return running;
  }
  return running;
}
)"},
    {"layering-undeclared-edge", "src/linalg/bad_layering.cpp", "layering",
     R"(#include "linalg/bad_layering.hpp"

#include "qp/box_qp.hpp"
)"},
    {"layering-declared-edges", "src/qp/good_layering.cpp", "",
     R"(#include "qp/good_layering.hpp"

#include "linalg/kernels.hpp"
#include "obs/json.hpp"
)"},
    {"clean-solver-file", "src/core/good_clean.cpp", "",
     R"(#include "core/good_clean.hpp"

#include <cmath>

#include "rng/engine.hpp"

double scaled(double x) { return std::abs(x) * 2.0; }
bool untouched(double x) { return x == 0.0; }
bool close(double a, double b) { return std::abs(a - b) <= 1e-9; }
)"},
    {"suppressed-violation", "src/core/good_suppressed.cpp", "",
     R"(#include "core/good_suppressed.hpp"
// The bootstrap seed below is derived once and logged; determinism is
// preserved because it feeds a recorded manifest field.
// plos-lint: allow(determinism-rng)
std::random_device bootstrap_entropy;
)"},
    {"clock-in-obs-sink", "src/obs/good_timer.cpp", "",
     R"(#include "obs/good_timer.hpp"
#include <chrono>
double wall_us() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
)"},
    {"prose-not-code", "src/core/good_prose.cpp", "",
     R"(#include "core/good_prose.hpp"
// Comments may discuss rand() and std::random_device freely; so may
// string literals:
const char* kDoc = "never call rand() or srand() in solvers";
)"},
};

std::vector<std::string> split_rule_list(const char* text) {
  std::vector<std::string> rules;
  std::string name;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!name.empty()) rules.push_back(name);
      name.clear();
      if (*p == '\0') break;
    } else {
      name += *p;
    }
  }
  return rules;
}

}  // namespace

SelfTestResult self_test(const Config& config) {
  SelfTestResult result;
  result.ok = true;
  for (const Fixture& fixture : kFixtures) {
    const auto findings = lint_source(config, fixture.path, fixture.source);
    const std::vector<std::string> expect = split_rule_list(fixture.expect_rule);
    std::string line = std::string("self-test ") + fixture.name + ": ";
    if (expect.empty()) {
      if (findings.empty()) {
        line += "clean, as expected";
      } else {
        result.ok = false;
        line += "expected clean but got " + format_findings(findings);
      }
    } else {
      const bool hit = std::any_of(
          findings.begin(), findings.end(),
          [&](const Finding& f) { return f.rule == expect.front(); });
      const bool only_expected = std::all_of(
          findings.begin(), findings.end(), [&](const Finding& f) {
            return std::find(expect.begin(), expect.end(), f.rule) !=
                   expect.end();
          });
      if (hit && only_expected) {
        line += "rejected by [" + findings[0].rule + "] at " +
                findings[0].file + ":" + std::to_string(findings[0].line) +
                ", as expected";
      } else if (!hit) {
        result.ok = false;
        line += "expected [" + expect.front() + "] but got " +
                (findings.empty() ? std::string("no findings")
                                  : format_findings(findings));
      } else {
        result.ok = false;
        line += "expected only [" + expect.front() + "] but got " +
                format_findings(findings);
      }
    }
    result.report += line + "\n";
  }
  result.report += result.ok ? "self-test: all fixtures passed\n"
                             : "self-test: FAILED\n";
  return result;
}

// ---- CLI -----------------------------------------------------------------

int run_cli(const std::vector<std::string>& args, std::string& out) {
  std::string root = ".";
  std::string rules_path;
  std::string layers_path;
  std::string format = "text";
  int threads = 1;
  bool do_self_test = false;
  bool list_rules = false;
  bool do_fix = false;
  std::vector<std::string> filters;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--root" || arg == "--rules" || arg == "--layers" ||
        arg == "--format" || arg == "--threads") {
      if (i + 1 >= args.size()) {
        out += "plos_lint: missing value for " + arg + "\n";
        return 2;
      }
      const std::string& value = args[++i];
      if (arg == "--root") {
        root = value;
      } else if (arg == "--rules") {
        rules_path = value;
      } else if (arg == "--layers") {
        layers_path = value;
      } else if (arg == "--format") {
        if (value != "text" && value != "sarif") {
          out += "plos_lint: unknown format " + value +
                 " (expected text or sarif)\n";
          return 2;
        }
        format = value;
      } else {
        threads = std::atoi(value.c_str());
        if (threads < 1) {
          out += "plos_lint: --threads needs a positive integer, got " +
                 value + "\n";
          return 2;
        }
      }
    } else if (arg == "--self-test") {
      do_self_test = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--fix") {
      do_fix = true;
    } else if (arg == "--help") {
      out += "usage: plos_lint [--root DIR] [--rules FILE] [--layers FILE] "
             "[--format text|sarif] [--threads N] [--fix] [--self-test] "
             "[--list-rules] [path-prefix...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      out += "plos_lint: unknown flag " + arg + "\n";
      return 2;
    } else {
      filters.push_back(arg);
    }
  }
  if (rules_path.empty()) rules_path = root + "/tools/lint_rules.json";
  if (layers_path.empty()) layers_path = root + "/tools/lint_layers.json";

  std::ifstream in(rules_path, std::ios::binary);
  if (!in) {
    out += "plos_lint: cannot open rules file " + rules_path + "\n";
    return 2;
  }
  std::ostringstream rules_text;
  rules_text << in.rdbuf();
  std::string error;
  auto config = parse_config(rules_text.str(), &error);
  if (!config) {
    out += "plos_lint: " + error + "\n";
    return 2;
  }

  const bool wants_layering = std::any_of(
      config->rules.begin(), config->rules.end(), [](const Rule& rule) {
        return rule.enabled && rule.kind == RuleKind::kLayering;
      });
  if (wants_layering) {
    std::ifstream layers_in(layers_path, std::ios::binary);
    if (!layers_in) {
      out += "plos_lint: cannot open layering DAG " + layers_path + "\n";
      return 2;
    }
    std::ostringstream layers_text;
    layers_text << layers_in.rdbuf();
    const auto layers = parse_layers(layers_text.str(), &error);
    if (!layers) {
      out += "plos_lint: " + error + "\n";
      return 2;
    }
    config->layers = *layers;
    config->layers_loaded = true;
  }

  if (list_rules) {
    for (const Rule& rule : config->rules) {
      out += rule.name + (rule.enabled ? "" : " (disabled)") + ": " +
             rule.message + "\n";
    }
    return 0;
  }
  if (do_self_test) {
    const SelfTestResult result = self_test(*config);
    out += result.report;
    return result.ok ? 0 : 1;
  }

  auto files = collect_tree(root, *config, &error);
  if (!files) {
    out += "plos_lint: " + error + "\n";
    return 2;
  }
  if (!filters.empty()) {
    std::erase_if(*files, [&](const auto& entry) {
      return std::none_of(filters.begin(), filters.end(),
                          [&](const std::string& f) {
                            return has_prefix(entry.first, f);
                          });
    });
  }

  if (do_fix) {
    int fixed = 0;
    for (const auto& [path, contents] : *files) {
      const FixOutcome outcome = fix_mechanical(*config, path, contents);
      if (outcome.refused) {
        out += "refused (plos-lint suppression present): " + path + "\n";
        continue;
      }
      if (!outcome.changed) continue;
      std::ofstream file_out(std::filesystem::path(root) / path,
                             std::ios::binary | std::ios::trunc);
      file_out << outcome.text;
      out += "fixed: " + path + "\n";
      ++fixed;
    }
    out += "plos_lint: " + std::to_string(fixed) + " file(s) fixed\n";
    return 0;
  }

  const auto findings = lint_files(*config, *files, threads);
  if (format == "sarif") {
    out += format_sarif(*config, findings);
  } else {
    out += format_findings(findings);
    out += "plos_lint: " + std::to_string(findings.size()) +
           " finding(s) in " + std::to_string(files->size()) +
           " file(s) scanned\n";
  }
  return findings.empty() ? 0 : 1;
}

}  // namespace plos::lint
