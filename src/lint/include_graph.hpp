// Include parsing and the declarative layering DAG (DESIGN.md §16).
//
// Includes are parsed from scrubbed sources (lexer.hpp); every quoted
// include names its target module by its first path component, resolved
// relative to src/ (the single include root). Angle includes never name a
// project module.
//
// The layering DAG lives in tools/lint_layers.json: every top-level module
// (src/<name>, plus the tools/bench/tests/examples roots) declares the
// exact set of modules it may include. Any edge the file does not declare
// is a finding — there is no grandfather list — and the declared graph
// itself must be acyclic, validated at parse time. "*" marks a top-layer
// module (harnesses, binaries) that may include anything.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace plos::lint {

/// One #include directive parsed out of scrubbed text.
struct Include {
  int line = 0;
  bool angle = false;
  std::string target;  ///< path between the delimiters
};

/// Parses every #include out of scrubbed source lines (1-based lines).
std::vector<Include> parse_includes(std::string_view scrubbed);

/// The declarative layering DAG: module name → modules it may include.
/// A module whose allow-list is exactly {"*"} sits in the top layer and
/// may include anything (and nothing may sit above it implicitly — other
/// modules must still declare their own edges).
struct LayerGraph {
  std::map<std::string, std::vector<std::string>> allowed;

  bool has_module(const std::string& name) const {
    return allowed.find(name) != allowed.end();
  }
  bool allows(const std::string& from, const std::string& to) const;
};

/// Parses tools/lint_layers.json. Rejects malformed JSON, unknown modules
/// referenced in an allow-list, and cycles in the declared graph.
std::optional<LayerGraph> parse_layers(std::string_view json_text,
                                       std::string* error = nullptr);

/// Top-level module a repo-relative path belongs to: "src/qp/foo.hpp" →
/// "qp", "tools/plos_lint.cpp" → "tools", "bench/..." → "bench". Files
/// directly under src/ (no module directory) map to "src".
std::string module_of(const std::string& path);

/// Module an *include target* belongs to ("qp/box_qp.hpp" → "qp"). A bare
/// target with no directory ("bench_support.hpp") resolves same-directory
/// and returns the including file's module, passed as `from_module`.
std::string module_of_target(const std::string& target,
                             const std::string& from_module);

}  // namespace plos::lint
