#include "lint/include_graph.hpp"

#include <algorithm>
#include <regex>

#include "obs/json.hpp"

namespace plos::lint {

namespace {

namespace json = plos::obs::json;

}  // namespace

std::vector<Include> parse_includes(std::string_view scrubbed) {
  static const std::regex include_re(
      R"(^\s*#\s*include\s*([<"])([^>"]+)([>"]))", std::regex::optimize);
  std::vector<Include> includes;
  int line = 1;
  std::size_t start = 0;
  while (start <= scrubbed.size()) {
    std::size_t end = scrubbed.find('\n', start);
    if (end == std::string_view::npos) end = scrubbed.size();
    const std::string_view text = scrubbed.substr(start, end - start);
    std::match_results<std::string_view::const_iterator> m;
    if (std::regex_search(text.begin(), text.end(), m, include_re)) {
      includes.push_back(Include{line, m[1].str() == "<", m[2].str()});
    }
    if (end == scrubbed.size()) break;
    start = end + 1;
    ++line;
  }
  return includes;
}

bool LayerGraph::allows(const std::string& from, const std::string& to) const {
  if (from == to) return true;
  const auto it = allowed.find(from);
  if (it == allowed.end()) return false;
  for (const std::string& entry : it->second) {
    if (entry == "*" || entry == to) return true;
  }
  return false;
}

namespace {

// Depth-first cycle check over the declared edges ("*" entries are top
// layer and contribute no edges worth chasing — nothing declares an edge
// back into them, and if something did, that explicit edge is walked).
bool has_cycle(const LayerGraph& graph, const std::string& node,
               std::map<std::string, int>& color, std::string* cycle_node) {
  color[node] = 1;  // in progress
  const auto it = graph.allowed.find(node);
  if (it != graph.allowed.end()) {
    for (const std::string& next : it->second) {
      if (next == "*") continue;
      const int c = color.count(next) != 0 ? color[next] : 0;
      if (c == 1) {
        *cycle_node = next;
        return true;
      }
      if (c == 0 && has_cycle(graph, next, color, cycle_node)) return true;
    }
  }
  color[node] = 2;  // done
  return false;
}

}  // namespace

std::optional<LayerGraph> parse_layers(std::string_view json_text,
                                       std::string* error) {
  std::string parse_error;
  const auto doc = json::parse(json_text, &parse_error);
  if (!doc || !doc->is_object()) {
    if (error != nullptr) {
      *error = "lint_layers.json: " +
               (parse_error.empty() ? "not a JSON object" : parse_error);
    }
    return std::nullopt;
  }
  const json::Value* modules = doc->find("modules");
  if (modules == nullptr || !modules->is_object()) {
    if (error != nullptr) {
      *error = "lint_layers.json: missing \"modules\" object";
    }
    return std::nullopt;
  }

  LayerGraph graph;
  for (const auto& [name, deps] : modules->as_object()) {
    if (!deps.is_array()) {
      if (error != nullptr) {
        *error = "lint_layers.json: module \"" + name + "\" is not an array";
      }
      return std::nullopt;
    }
    std::vector<std::string> allow;
    for (const json::Value& v : deps.as_array()) {
      if (v.is_string()) allow.push_back(v.as_string());
    }
    graph.allowed[name] = std::move(allow);
  }

  // Every named dependency must itself be a declared module.
  for (const auto& [name, deps] : graph.allowed) {
    for (const std::string& dep : deps) {
      if (dep != "*" && !graph.has_module(dep)) {
        if (error != nullptr) {
          *error = "lint_layers.json: module \"" + name +
                   "\" allows unknown module \"" + dep + "\"";
        }
        return std::nullopt;
      }
    }
  }

  // The declared graph must be a DAG — a cycle would make "layering" a
  // fiction and the findings order-dependent.
  std::map<std::string, int> color;
  for (const auto& [name, deps] : graph.allowed) {
    std::string cycle_node;
    if ((color.count(name) == 0 || color[name] == 0) &&
        has_cycle(graph, name, color, &cycle_node)) {
      if (error != nullptr) {
        *error = "lint_layers.json: cycle through module \"" + cycle_node +
                 "\" — the layering must be a DAG";
      }
      return std::nullopt;
    }
  }
  return graph;
}

std::string module_of(const std::string& path) {
  const std::size_t slash = path.find('/');
  if (slash == std::string::npos) return path;
  const std::string root = path.substr(0, slash);
  if (root != "src") return root;
  const std::size_t second = path.find('/', slash + 1);
  if (second == std::string::npos) return "src";
  return path.substr(slash + 1, second - slash - 1);
}

std::string module_of_target(const std::string& target,
                             const std::string& from_module) {
  const std::size_t slash = target.find('/');
  if (slash == std::string::npos) return from_module;
  return target.substr(0, slash);
}

}  // namespace plos::lint
