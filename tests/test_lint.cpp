// plos_lint engine tests (DESIGN.md §11): scrubber state machine, config
// parsing, each rule kind on hermetic in-memory sources, suppression
// comments, the privacy edge carried by the layering DAG, the embedded
// self-test fixtures, CLI exit codes, and — the acceptance gate — a scan
// of the real repository tree, which must come back clean.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace plos::lint {
namespace {

// Minimal hand-built config exercising one rule per kind. Banned patterns
// live in raw strings so plos_lint never flags its own test corpus.
Config engine_config() {
  Config config;
  config.roots = {"src"};
  config.extensions = {".cpp", ".hpp"};

  Rule rng;
  rng.name = "determinism-rng";
  rng.kind = RuleKind::kBannedPattern;
  rng.message = "nondeterministic RNG";
  rng.patterns = {R"(std::random_device)"};
  rng.paths = {"src/"};
  rng.allow_paths = {"src/rng/"};
  config.rules.push_back(rng);

  Rule float_eq;
  float_eq.name = "numeric-float-eq";
  float_eq.kind = RuleKind::kFloatEq;
  float_eq.message = "exact comparison against nonzero float literal";
  config.rules.push_back(float_eq);

  Rule pragma;
  pragma.name = "hygiene-pragma-once";
  pragma.kind = RuleKind::kPragmaOnce;
  pragma.message = "header missing #pragma once";
  config.rules.push_back(pragma);

  Rule order;
  order.name = "hygiene-include-order";
  order.kind = RuleKind::kIncludeOrder;
  order.message = "include order";
  config.rules.push_back(order);

  Rule using_ns;
  using_ns.name = "hygiene-using-namespace";
  using_ns.kind = RuleKind::kUsingNamespaceHeader;
  using_ns.message = "using namespace in header";
  config.rules.push_back(using_ns);

  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

// Config exercising only the token-level semantic families (race-surface,
// accumulation-order, layering) with a small in-test layering DAG, so the
// tests below stay hermetic and each finding is attributable to one rule.
Config semantic_config() {
  Config config;
  config.roots = {"src"};
  config.extensions = {".cpp", ".hpp"};

  Rule race;
  race.name = "race-surface";
  race.kind = RuleKind::kRaceSurface;
  race.message = "unsynchronized write in a thread-pool lambda";
  race.paths = {"src/"};
  config.rules.push_back(race);

  Rule acc;
  acc.name = "accumulation-order";
  acc.kind = RuleKind::kAccumulationOrder;
  acc.message = "loop-carried double fold outside linalg::kernels";
  acc.paths = {"src/core/", "src/linalg/", "src/qp/", "src/svm/"};
  acc.allow_paths = {"src/linalg/kernels"};
  config.rules.push_back(acc);

  Rule layering;
  layering.name = "layering";
  layering.kind = RuleKind::kLayering;
  layering.message = "undeclared module dependency";
  config.rules.push_back(layering);

  std::string error;
  const auto layers = parse_layers(R"({"modules": {
    "common": [],
    "linalg": ["common"],
    "parallel": ["common"],
    "qp": ["common", "linalg"],
    "net": ["common"],
    "core": ["common", "linalg", "parallel", "qp"],
    "tests": ["*"]
  }})",
                                   &error);
  EXPECT_TRUE(layers.has_value()) << error;
  config.layers = *layers;
  config.layers_loaded = true;
  return config;
}

// ---- scrubber ------------------------------------------------------------

TEST(Scrubber, BlanksLineCommentsButKeepsNewlines) {
  const std::string scrubbed =
      strip_comments_and_strings("int a;  // std::random_device\nint b;");
  EXPECT_EQ(scrubbed.find("random_device"), std::string::npos);
  EXPECT_NE(scrubbed.find("int a;"), std::string::npos);
  EXPECT_NE(scrubbed.find("\nint b;"), std::string::npos);
}

TEST(Scrubber, BlanksBlockCommentsPreservingLineStructure) {
  const std::string source = "int a; /* rand()\n rand() */ int b;";
  const std::string scrubbed = strip_comments_and_strings(source);
  EXPECT_EQ(scrubbed.find("rand"), std::string::npos);
  EXPECT_EQ(std::count(scrubbed.begin(), scrubbed.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
  EXPECT_NE(scrubbed.find("int b;"), std::string::npos);
}

TEST(Scrubber, BlanksStringAndCharLiteralContents) {
  const std::string scrubbed = strip_comments_and_strings(
      "const char* s = \"call rand() now\"; char c = 'r';");
  EXPECT_EQ(scrubbed.find("rand"), std::string::npos);
  // Delimiters stay so the line remains structurally intact.
  EXPECT_NE(scrubbed.find('"'), std::string::npos);
}

TEST(Scrubber, BlanksRawStringsWithCustomDelimiter) {
  const std::string source =
      "auto s = R\"lint(std::random_device inside)lint\"; int after;";
  const std::string scrubbed = strip_comments_and_strings(source);
  EXPECT_EQ(scrubbed.find("random_device"), std::string::npos);
  EXPECT_NE(scrubbed.find("int after;"), std::string::npos);
}

TEST(Scrubber, DigitSeparatorIsNotACharLiteral) {
  // If 1'000'000 opened a char literal, the rand() call would be blanked.
  const std::string scrubbed =
      strip_comments_and_strings("int n = 1'000'000; n = rand();");
  EXPECT_NE(scrubbed.find("rand()"), std::string::npos);
}

TEST(Scrubber, KeepsQuotedIncludeTargetsReadable) {
  const std::string scrubbed = strip_comments_and_strings(
      "#include \"data/dataset.hpp\"\nconst char* s = \"data/other.hpp\";\n");
  EXPECT_NE(scrubbed.find("data/dataset.hpp"), std::string::npos);
  EXPECT_EQ(scrubbed.find("data/other.hpp"), std::string::npos);
}

TEST(Scrubber, EscapedQuoteDoesNotEndString) {
  const std::string scrubbed = strip_comments_and_strings(
      "const char* s = \"a \\\" rand() b\"; int keep;");
  EXPECT_EQ(scrubbed.find("rand"), std::string::npos);
  EXPECT_NE(scrubbed.find("int keep;"), std::string::npos);
}

// ---- config parsing ------------------------------------------------------

TEST(ParseConfig, ParsesRootsExtensionsAndRuleFields) {
  const std::string json = R"({
    "roots": ["src", "tools"],
    "extensions": [".cpp"],
    "rules": [
      {"name": "r1", "kind": "banned-pattern", "message": "m",
       "patterns": ["abc"], "paths": ["src/"], "allow_paths": ["src/x/"]},
      {"name": "r2", "kind": "layering", "enabled": false}
    ]
  })";
  const auto config = parse_config(json);
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->roots, (std::vector<std::string>{"src", "tools"}));
  EXPECT_EQ(config->extensions, std::vector<std::string>{".cpp"});
  ASSERT_EQ(config->rules.size(), 2u);
  EXPECT_EQ(config->rules[0].kind, RuleKind::kBannedPattern);
  EXPECT_EQ(config->rules[0].patterns, std::vector<std::string>{"abc"});
  EXPECT_EQ(config->rules[1].kind, RuleKind::kLayering);
  EXPECT_FALSE(config->rules[1].enabled);
}

TEST(ParseConfig, RejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(parse_config("{not json", &error).has_value());
  EXPECT_NE(error.find("lint_rules.json"), std::string::npos);
}

TEST(ParseConfig, RejectsMissingRulesArray) {
  std::string error;
  EXPECT_FALSE(parse_config(R"({"roots": ["src"]})", &error).has_value());
  EXPECT_NE(error.find("rules"), std::string::npos);
}

TEST(ParseConfig, RejectsUnknownRuleKind) {
  std::string error;
  const std::string json =
      R"({"rules": [{"name": "r", "kind": "telepathy"}]})";
  EXPECT_FALSE(parse_config(json, &error).has_value());
  EXPECT_NE(error.find("telepathy"), std::string::npos);
}

// ---- banned-pattern rule + path scoping ----------------------------------

TEST(Rules, BannedPatternFlagsMatchWithLineNumber) {
  const auto config = engine_config();
  const std::string source = "int x;\nstd::random_device rd;\n";
  const auto findings = lint_source(config, "src/core/solver.cpp", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "determinism-rng");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].file, "src/core/solver.cpp");
}

TEST(Rules, BannedPatternRespectsPathsAndAllowPaths) {
  const auto config = engine_config();
  const std::string source = "std::random_device rd;\n";
  // Inside the exempt prefix: the RNG wrapper is allowed to touch entropy.
  EXPECT_TRUE(lint_source(config, "src/rng/engine.cpp", source).empty());
  // Outside the rule's paths entirely.
  EXPECT_TRUE(lint_source(config, "tools/seed_tool.cpp", source).empty());
}

TEST(Rules, BannedPatternIgnoresCommentsAndStrings) {
  const auto config = engine_config();
  const std::string source =
      "// std::random_device in prose\n"
      "const char* s = \"std::random_device\";\n";
  EXPECT_TRUE(lint_source(config, "src/core/solver.cpp", source).empty());
}

// ---- float-eq rule -------------------------------------------------------

TEST(Rules, FloatEqFlagsNonzeroLiteralComparison) {
  const auto config = engine_config();
  const auto findings = lint_source(config, "src/core/a.cpp",
                                    "bool done(double f) { return f == 1.5; }");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "numeric-float-eq");
}

TEST(Rules, FloatEqFlagsLiteralOnLeftAndScientificNotation) {
  const auto config = engine_config();
  EXPECT_EQ(lint_source(config, "src/core/a.cpp", "bool b = 2.5 == x;").size(),
            1u);
  EXPECT_EQ(
      lint_source(config, "src/core/a.cpp", "bool b = x != 1e-9;").size(), 1u);
}

TEST(Rules, FloatEqAllowsExactZeroComparison) {
  const auto config = engine_config();
  // The "was this coordinate ever touched" sparsity idiom stays legal.
  EXPECT_TRUE(
      lint_source(config, "src/core/a.cpp", "if (gamma[i] != 0.0) use(i);")
          .empty());
  EXPECT_TRUE(
      lint_source(config, "src/core/a.cpp", "bool z = x == 0.0;").empty());
}

TEST(Rules, FloatEqSeesNonzeroCompareAfterZeroCompareOnOneLine) {
  const auto config = engine_config();
  const auto findings = lint_source(
      config, "src/core/a.cpp", "bool b = a == 0.0 && c == 2.5;");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "numeric-float-eq");
}

TEST(Rules, FloatEqIgnoresIntegerComparison) {
  const auto config = engine_config();
  EXPECT_TRUE(
      lint_source(config, "src/core/a.cpp", "bool b = n == 3;").empty());
}

// ---- hygiene rules -------------------------------------------------------

TEST(Rules, PragmaOnceRequiredInHeadersOnly) {
  const auto config = engine_config();
  const auto findings =
      lint_source(config, "src/core/h.hpp", "namespace plos {}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hygiene-pragma-once");
  EXPECT_EQ(findings[0].line, 1);

  EXPECT_TRUE(
      lint_source(config, "src/core/h.hpp", "#pragma once\nint x;\n").empty());
  EXPECT_TRUE(
      lint_source(config, "src/core/h.cpp", "namespace plos {}\n").empty());
}

TEST(Rules, IncludeOrderOwnHeaderMustComeFirst) {
  const auto config = engine_config();
  const std::string source =
      "#include <vector>\n"
      "#include \"core/solver.hpp\"\n";
  const auto findings = lint_source(config, "src/core/solver.cpp", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hygiene-include-order");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(Rules, IncludeOrderNoAngleAfterQuotedBlock) {
  const auto config = engine_config();
  const std::string source =
      "#include \"core/solver.hpp\"\n"
      "\n"
      "#include \"common/assert.hpp\"\n"
      "#include <vector>\n";
  const auto findings = lint_source(config, "src/core/solver.cpp", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(Rules, IncludeOrderAcceptsSubjectThenAngleThenQuoted) {
  const auto config = engine_config();
  const std::string source =
      "#include \"core/solver.hpp\"\n"
      "\n"
      "#include <cmath>\n"
      "#include <vector>\n"
      "\n"
      "#include \"common/assert.hpp\"\n";
  EXPECT_TRUE(lint_source(config, "src/core/solver.cpp", source).empty());
}

TEST(Rules, UsingNamespaceFlaggedInHeaderNotSource) {
  const auto config = engine_config();
  const std::string source = "#pragma once\nusing namespace std;\n";
  const auto findings = lint_source(config, "src/core/h.hpp", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hygiene-using-namespace");
  EXPECT_EQ(findings[0].line, 2);

  EXPECT_TRUE(
      lint_source(config, "src/core/h.cpp", "using namespace std;\n").empty());
}

// ---- suppressions --------------------------------------------------------

TEST(Suppressions, SameLineAllowSilencesNamedRule) {
  const auto config = engine_config();
  const std::string source =
      "std::random_device rd;  // plos-lint: allow(determinism-rng)\n";
  EXPECT_TRUE(lint_source(config, "src/core/a.cpp", source).empty());
}

TEST(Suppressions, PrecedingLineAllowSilencesNextLine) {
  const auto config = engine_config();
  const std::string source =
      "// plos-lint: allow(determinism-rng)\n"
      "std::random_device rd;\n";
  EXPECT_TRUE(lint_source(config, "src/core/a.cpp", source).empty());
}

TEST(Suppressions, AllowListCoversMultipleRules) {
  const auto config = engine_config();
  const std::string source =
      "// plos-lint: allow(determinism-rng, numeric-float-eq)\n"
      "bool b = (x == 1.5); std::random_device rd;\n";
  EXPECT_TRUE(lint_source(config, "src/core/a.cpp", source).empty());
}

TEST(Suppressions, AllowFileSilencesWholeFileForThatRuleOnly) {
  const auto config = engine_config();
  const std::string source =
      "// plos-lint: allow-file(determinism-rng)\n"
      "std::random_device a;\n"
      "int pad;\n"
      "std::random_device b;\n"
      "bool c = x == 2.5;\n";
  const auto findings = lint_source(config, "src/core/a.cpp", source);
  // Both RNG hits suppressed; the float-eq on line 5 still fires.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "numeric-float-eq");
  EXPECT_EQ(findings[0].line, 5);
}

TEST(Suppressions, WrongRuleNameDoesNotSuppress) {
  const auto config = engine_config();
  const std::string source =
      "std::random_device rd;  // plos-lint: allow(numeric-float-eq)\n";
  EXPECT_EQ(lint_source(config, "src/core/a.cpp", source).size(), 1u);
}

// ---- privacy edge, carried by the shipped layering DAG -------------------
//
// Raw rows must never reach src/net: the shipped DAG lets net include only
// common and obs, so any path from net to data/ breaks at its first hop.

Config shipped_layering_config() {
  Config config;
  Rule layering;
  layering.name = "layering";
  layering.kind = RuleKind::kLayering;
  layering.message = "undeclared module dependency";
  config.rules.push_back(layering);
  std::string error;
  const auto layers = parse_layers(
      read_file(std::string(PLOS_REPO_DIR) + "/tools/lint_layers.json"),
      &error);
  EXPECT_TRUE(layers.has_value()) << error;
  config.layers = *layers;
  config.layers_loaded = true;
  return config;
}

TEST(PrivacyRule, FlagsDirectDataInclude) {
  const auto config = shipped_layering_config();
  const auto findings = lint_source(config, "src/net/wire.cpp",
                                    "#include \"data/dataset.hpp\"\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_NE(findings[0].message.find("data/dataset.hpp"), std::string::npos);
}

TEST(PrivacyRule, FollowsTransitiveIncludeChain) {
  const auto config = shipped_layering_config();
  FileSet project;
  project["src/net/wire.cpp"] = "#include \"sensing/window.hpp\"\n";
  project["src/sensing/window.hpp"] =
      "#pragma once\n#include \"data/dataset.hpp\"\n";
  project["src/data/dataset.hpp"] = "#pragma once\n";
  const auto findings = lint_files(config, project);
  // net -> sensing is the undeclared hop; sensing -> data is legal.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].file, "src/net/wire.cpp");
  EXPECT_NE(findings[0].message.find("net -> sensing"), std::string::npos);
}

TEST(PrivacyRule, CleanNetFileWithProjectIncludesPasses) {
  const auto config = shipped_layering_config();
  FileSet project;
  project["src/net/wire.cpp"] = "#include \"common/assert.hpp\"\n";
  project["src/common/assert.hpp"] = "#pragma once\n#include <string>\n";
  EXPECT_TRUE(lint_files(config, project).empty());
}

TEST(PrivacyRule, DoesNotApplyOutsideNetLayer) {
  const auto config = shipped_layering_config();
  // The device-side solver legitimately sees the dataset.
  EXPECT_TRUE(lint_source(config, "src/core/distributed.cpp",
                          "#include \"data/dataset.hpp\"\n")
                  .empty());
}

// ---- race-surface rule ---------------------------------------------------
//
// Sources live in raw strings: the scrubber blanks them when plos_lint
// scans this test file, so the planted races never flag the test itself.

TEST(RaceSurface, FlagsUnsynchronizedCapturedWrite) {
  const auto config = semantic_config();
  const std::string source = R"(void solve(const std::vector<double>& x,
           parallel::ThreadPool& pool) {
  double total = 0.0;
  pool.parallel_for(x.size(), [&](std::size_t t) {
    total += x[t];
  });
}
)";
  const auto findings = lint_source(config, "src/core/reduce.cpp", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "race-surface");
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("'total'"), std::string::npos);
}

TEST(RaceSurface, ChunkIndexedWriteIsSafe) {
  const auto config = semantic_config();
  const std::string source = R"(void square(std::vector<double>& out,
            const std::vector<double>& in, parallel::ThreadPool& pool) {
  pool.parallel_for(in.size(), [&](std::size_t t) {
    out[t] = in[t] * in[t];
  });
}
)";
  EXPECT_TRUE(lint_source(config, "src/core/map.cpp", source).empty());
}

TEST(RaceSurface, AtomicCounterIsSafe) {
  const auto config = semantic_config();
  const std::string source = R"(void count(std::size_t n,
           parallel::ThreadPool& pool) {
  std::atomic<long> hits{0};
  pool.parallel_for(n, [&](std::size_t t) {
    if (t % 2 == 0) ++hits;
  });
}
)";
  EXPECT_TRUE(lint_source(config, "src/core/count.cpp", source).empty());
}

TEST(RaceSurface, LockGuardedWriteIsSafe) {
  const auto config = semantic_config();
  const std::string source = R"(void enqueue(std::vector<int>& queue,
             std::mutex& mu, parallel::ThreadPool& pool) {
  pool.submit([&] {
    std::lock_guard<std::mutex> guard(mu);
    queue.push_back(1);
  });
}
)";
  EXPECT_TRUE(lint_source(config, "src/core/queue.cpp", source).empty());
}

TEST(RaceSurface, ExplicitByValueCaptureIsSafe) {
  const auto config = semantic_config();
  const std::string source = R"(void detach(double seed,
            parallel::ThreadPool& pool) {
  pool.submit([seed]() mutable { seed += 1.0; });
}
)";
  EXPECT_TRUE(lint_source(config, "src/core/detach.cpp", source).empty());
}

TEST(RaceSurface, ThisCapturedMemberMutationFlagged) {
  const auto config = semantic_config();
  const std::string bad = R"(void Collector::run(parallel::ThreadPool& pool,
                    std::size_t n) {
  pool.parallel_for(n, [this](std::size_t t) {
    results_.push_back(t);
  });
}
)";
  const auto findings = lint_source(config, "src/core/collect.cpp", bad);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "race-surface");
  EXPECT_NE(findings[0].message.find("'results_'"), std::string::npos);

  // A chunk-indexed member write through the same capture stays legal.
  const std::string good = R"(void Collector::fill(parallel::ThreadPool& pool,
                     std::size_t n) {
  pool.parallel_for(n, [this](std::size_t t) {
    slots_[t] = 0.0;
  });
}
)";
  EXPECT_TRUE(lint_source(config, "src/core/collect.cpp", good).empty());
}

TEST(RaceSurface, LambdaLocalIndexedWriteIsSafe) {
  const auto config = semantic_config();
  const std::string source = R"(void mark(std::vector<double>& out,
          const std::vector<std::vector<std::size_t>>& spans,
          parallel::ThreadPool& pool) {
  pool.parallel_for(spans.size(), [&](std::size_t g) {
    for (std::size_t j : spans[g]) out[j] = 1.0;
  });
}
)";
  EXPECT_TRUE(lint_source(config, "src/core/mark.cpp", source).empty());
}

// ---- accumulation-order rule ---------------------------------------------

TEST(AccumulationOrder, FlagsLoopCarriedRawFold) {
  const auto config = semantic_config();
  const std::string source = R"(double objective(const double* g,
                  const double* x, std::size_t n) {
  double obj = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    obj += g[i] * x[i];
  }
  return obj;
}
)";
  const auto findings = lint_source(config, "src/qp/solver.cpp", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "accumulation-order");
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("'obj'"), std::string::npos);
}

TEST(AccumulationOrder, KernelRoutedFoldIsExempt) {
  const auto config = semantic_config();
  const std::string source = R"(double objective(std::size_t m) {
  double obj = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    obj += linalg::kernels::blocked_dot(rows[i], x);
  }
  return obj;
}
)";
  EXPECT_TRUE(lint_source(config, "src/qp/solver.cpp", source).empty());
}

TEST(AccumulationOrder, ScanRecurrenceIsExempt) {
  const auto config = semantic_config();
  // The prefix-scan idiom from project_capped_simplex: the target is
  // re-read inside the loop, so the order IS the algorithm.
  const std::string source = R"(double threshold(const std::vector<double>& u) {
  double running = 0.0;
  double theta = 0.0;
  for (std::size_t k = 0; k < u.size(); ++k) {
    running += u[k];
    theta = running / static_cast<double>(k + 1);
  }
  return theta;
}
)";
  EXPECT_TRUE(lint_source(config, "src/qp/projection.cpp", source).empty());
}

TEST(AccumulationOrder, SeededRecurrenceIsExempt) {
  const auto config = semantic_config();
  // Cholesky-style pivot update: seeded from a[0], not a zero fold.
  const std::string source = R"(double pivot(const double* a, const double* l,
             std::size_t i) {
  double diag = a[0];
  for (std::size_t k = 0; k < i; ++k) {
    diag -= l[k] * l[k];
  }
  return diag;
}
)";
  EXPECT_TRUE(lint_source(config, "src/linalg/factor.cpp", source).empty());
}

TEST(AccumulationOrder, HoistedElementTermIsExempt) {
  const auto config = semantic_config();
  // Folds over a hoisted per-iteration local are the blessed shape for
  // branching losses (the element term does not read the loop variable).
  const std::string source = R"(double hinge(const double* m, std::size_t n) {
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double margin = m[i];
    loss += std::max(0.0, 1.0 - margin);
  }
  return loss;
}
)";
  EXPECT_TRUE(lint_source(config, "src/core/loss.cpp", source).empty());
}

TEST(AccumulationOrder, IntegerAccumulatorIsExempt) {
  const auto config = semantic_config();
  const std::string source = R"(int agreement(const int* a, const int* b,
              std::size_t n) {
  int agree = 0;
  for (std::size_t i = 0; i < n; ++i) {
    agree += a[i] == b[i] ? 1 : 0;
  }
  return agree;
}
)";
  EXPECT_TRUE(lint_source(config, "src/core/vote.cpp", source).empty());
}

TEST(AccumulationOrder, OnlyAppliesToHotPathModules) {
  const auto config = semantic_config();
  const std::string source = R"(double sum_all(const double* v, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += v[i];
  }
  return total;
}
)";
  // Same raw fold, but the net layer is outside the rule's paths.
  EXPECT_TRUE(lint_source(config, "src/net/wire.cpp", source).empty());
}

// ---- layering rule -------------------------------------------------------

TEST(Layering, UndeclaredEdgeFlagged) {
  const auto config = semantic_config();
  const auto findings = lint_source(config, "src/linalg/matrix.cpp",
                                    "#include \"qp/box_qp.hpp\"\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("linalg -> qp"), std::string::npos);
}

TEST(Layering, DeclaredEdgesSelfAndAngleIncludesAreClean) {
  const auto config = semantic_config();
  const std::string source =
      "#include \"qp/solver.hpp\"\n"
      "\n"
      "#include <vector>\n"
      "\n"
      "#include \"common/assert.hpp\"\n"
      "#include \"linalg/kernels.hpp\"\n"
      "#include \"qp/projection.hpp\"\n";
  EXPECT_TRUE(lint_source(config, "src/qp/solver.cpp", source).empty());
}

TEST(Layering, UnknownModuleIsFlagged) {
  const auto config = semantic_config();
  const auto findings =
      lint_source(config, "src/rogue/widget.cpp", "int x;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_NE(findings[0].message.find("\"rogue\""), std::string::npos);
}

TEST(Layering, WildcardTopLayerMayIncludeAnything) {
  const auto config = semantic_config();
  const std::string source =
      "#include \"core/trainer.hpp\"\n#include \"net/wire.hpp\"\n";
  EXPECT_TRUE(lint_source(config, "tests/test_widget.cpp", source).empty());
}

TEST(Layering, BareTargetResolvesToOwnModule) {
  const auto config = semantic_config();
  // A directory-less target is a sibling header: always a self-edge.
  EXPECT_TRUE(lint_source(config, "src/qp/solver.cpp",
                          "#include \"solver_detail.hpp\"\n")
                  .empty());
}

TEST(Layering, ParseRejectsCycles) {
  std::string error;
  const auto layers = parse_layers(
      R"({"modules": {"a": ["b"], "b": ["a"]}})", &error);
  EXPECT_FALSE(layers.has_value());
  EXPECT_NE(error.find("cycle"), std::string::npos);
}

TEST(Layering, ParseRejectsUnknownDependency) {
  std::string error;
  const auto layers =
      parse_layers(R"({"modules": {"a": ["ghost"]}})", &error);
  EXPECT_FALSE(layers.has_value());
  EXPECT_NE(error.find("ghost"), std::string::npos);
}

// ---- threaded scan determinism -------------------------------------------

TEST(Threads, ScanIsByteIdenticalAcrossThreadCounts) {
  const auto config = engine_config();
  FileSet project;
  for (int i = 0; i < 12; ++i) {
    const std::string path = "src/core/f" + std::to_string(i) + ".cpp";
    project[path] = (i % 2 == 0)
                        ? "std::random_device rd;\nbool b = x == 1.5;\n"
                        : "int x;\n";
  }

  const std::string serial = format_findings(lint_files(config, project, 1));
  EXPECT_FALSE(serial.empty());
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(format_findings(lint_files(config, project, threads)), serial)
        << "threads=" << threads;
  }
}

// ---- mechanical fixer ----------------------------------------------------

TEST(Fix, InsertsPragmaOnceAfterLeadingCommentBlock) {
  const auto config = engine_config();
  const std::string source = "// doc\n// more\nnamespace plos {}\n";
  const FixOutcome fixed = fix_mechanical(config, "src/core/h.hpp", source);
  ASSERT_TRUE(fixed.changed);
  EXPECT_FALSE(fixed.refused);
  EXPECT_NE(fixed.text.find("// more\n#pragma once\n\nnamespace"),
            std::string::npos)
      << fixed.text;
  EXPECT_TRUE(lint_source(config, "src/core/h.hpp", fixed.text).empty());
}

TEST(Fix, CanonicalizesIncludeOrderAndReachesAFixpoint) {
  const auto config = engine_config();
  const std::string source =
      "#include <vector>\n"
      "#include \"core/solver.hpp\"\n"
      "#include <cmath>\n"
      "\n"
      "#include \"common/assert.hpp\"\n"
      "\n"
      "int x;\n";
  const FixOutcome fixed =
      fix_mechanical(config, "src/core/solver.cpp", source);
  ASSERT_TRUE(fixed.changed);
  // Own header first, then the angle block, then quoted project headers.
  EXPECT_NE(fixed.text.find("#include \"core/solver.hpp\"\n\n"
                            "#include <vector>\n#include <cmath>\n\n"
                            "#include \"common/assert.hpp\"\n"),
            std::string::npos)
      << fixed.text;
  EXPECT_TRUE(
      lint_source(config, "src/core/solver.cpp", fixed.text).empty());
  // Idempotence: fixing a fixed file is a no-op.
  const FixOutcome again =
      fix_mechanical(config, "src/core/solver.cpp", fixed.text);
  EXPECT_FALSE(again.changed);
}

TEST(Fix, RefusesFilesCarryingSuppressionMarkers) {
  const auto config = engine_config();
  const std::string source =
      "// plos-lint: allow(hygiene-include-order)\n"
      "#include <vector>\n"
      "#include \"core/solver.hpp\"\n";
  const FixOutcome outcome =
      fix_mechanical(config, "src/core/solver.cpp", source);
  EXPECT_TRUE(outcome.refused);
  EXPECT_FALSE(outcome.changed);
}

TEST(Fix, LeavesIncludeRegionWithInterleavedCommentAlone) {
  const auto config = engine_config();
  // A comment pinned between includes would detach under a rebuild, so the
  // fixer must not touch the region.
  const std::string source =
      "#include <vector>\n"
      "// pinned explanation\n"
      "#include \"core/solver.hpp\"\n"
      "int x;\n";
  const FixOutcome outcome =
      fix_mechanical(config, "src/core/solver.cpp", source);
  EXPECT_FALSE(outcome.changed);
  EXPECT_FALSE(outcome.refused);
}

// ---- SARIF output --------------------------------------------------------

TEST(Sarif, EmitsDeterministicSarif21Log) {
  const auto config = engine_config();
  const std::vector<Finding> findings{
      {"determinism-rng", "src/core/a.cpp", 7, "no entropy in solvers"}};
  const std::string sarif = format_sarif(config, findings);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"determinism-rng\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":7"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"src/core/a.cpp\""), std::string::npos);
  EXPECT_EQ(sarif.back(), '\n');
  // Deterministic byte-for-byte; the rules catalog indexes every enabled
  // rule even when findings are empty.
  EXPECT_EQ(sarif, format_sarif(config, findings));
  const std::string empty_log = format_sarif(config, {});
  EXPECT_NE(empty_log.find("\"results\":[]"), std::string::npos);
  EXPECT_NE(empty_log.find("\"id\":\"numeric-float-eq\""), std::string::npos);
}

// ---- reporting & ordering ------------------------------------------------

TEST(Reporting, FormatFindingsUsesCompilerStyle) {
  const std::vector<Finding> findings{
      {"determinism-rng", "src/core/a.cpp", 7, "no entropy in solvers"}};
  EXPECT_EQ(format_findings(findings),
            "src/core/a.cpp:7: error: [determinism-rng] no entropy in "
            "solvers\n");
}

TEST(Reporting, LintFilesOrdersFindingsByFileThenLine) {
  const auto config = engine_config();
  FileSet project;
  project["src/core/b.cpp"] = "std::random_device rd;\n";
  project["src/core/a.cpp"] = "int x;\nstd::random_device rd;\n";
  const auto findings = lint_files(config, project);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/core/a.cpp");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].file, "src/core/b.cpp");
}

// ---- shipped config, self-test, and the real tree ------------------------

TEST(ShippedConfig, ParsesAndCoversTheDeterminismCatalog) {
  const std::string text =
      read_file(std::string(PLOS_REPO_DIR) + "/tools/lint_rules.json");
  ASSERT_FALSE(text.empty());
  std::string error;
  const auto config = parse_config(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  const auto names = [&] {
    std::vector<std::string> out;
    for (const Rule& r : config->rules) out.push_back(r.name);
    return out;
  }();
  for (const char* required :
       {"determinism-rng", "determinism-clock", "determinism-unordered",
        "determinism-build-stamp", "numeric-no-float", "numeric-float-eq",
        "numeric-c-abs", "io-iostream", "cache-purity",
        "hygiene-pragma-once", "hygiene-include-order",
        "hygiene-using-namespace", "race-surface", "accumulation-order",
        "layering"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "missing rule " << required;
  }
}

// ---- cache-purity rule ---------------------------------------------------
//
// The hot-path cache sources (gram_cache, warm_store) must stay pure
// functions of solver inputs: no timers, no wall clocks, no pointer-derived
// keys, no hash-seeded containers (DESIGN.md §13). The shipped rule is
// path-scoped to exactly those files.

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

TEST(CachePurity, FlagsImpureStateInsideCacheSources) {
  const std::string text =
      read_file(std::string(PLOS_REPO_DIR) + "/tools/lint_rules.json");
  const auto config = parse_config(text);
  ASSERT_TRUE(config.has_value());

  const std::string impure =
      "int f() {\n"
      "  common::Stopwatch timer;\n"
      "  auto stamp = std::chrono::steady_clock::now();\n"
      "  std::hash<int> hasher;\n"
      "  auto key = reinterpret_cast<std::size_t>(nullptr);\n"
      "  return 0;\n"
      "}\n";
  // Every impurity class fires, in both scoped cache files.
  EXPECT_GE(count_rule(lint_source(*config, "src/core/gram_cache.cpp", impure),
                       "cache-purity"),
            4u);
  EXPECT_GE(count_rule(lint_source(*config, "src/qp/warm_store.cpp", impure),
                       "cache-purity"),
            4u);
}

TEST(CachePurity, DoesNotApplyOutsideTheCacheSources) {
  const std::string text =
      read_file(std::string(PLOS_REPO_DIR) + "/tools/lint_rules.json");
  const auto config = parse_config(text);
  ASSERT_TRUE(config.has_value());

  // Stopwatch is banned only by cache-purity; other solver files may use it
  // (subject to their own rules), so the rule must not fire there.
  const std::string source = "common::Stopwatch timer;\n";
  EXPECT_EQ(count_rule(
                lint_source(*config, "src/core/cutting_plane.cpp", source),
                "cache-purity"),
            0u);
}

TEST(CachePurity, CoversSketchAndFlightRecorderSources) {
  const std::string text =
      read_file(std::string(PLOS_REPO_DIR) + "/tools/lint_rules.json");
  const auto config = parse_config(text);
  ASSERT_TRUE(config.has_value());

  // The mergeable sketches and the flight recorder promise byte-identical
  // output at any thread count (DESIGN.md §15), which the same purity
  // classes protect: no clocks, no std::hash, no unordered containers.
  const std::string impure =
      "void g() {\n"
      "  auto stamp = std::chrono::steady_clock::now();\n"
      "  std::hash<std::string> hasher;\n"
      "  std::unordered_map<int, int> buckets;\n"
      "}\n";
  for (const char* path :
       {"src/obs/sketch.cpp", "src/obs/sketch.hpp", "src/obs/flight.cpp",
        "src/obs/flight.hpp"}) {
    EXPECT_GE(count_rule(lint_source(*config, path, impure), "cache-purity"),
              3u)
        << path;
  }
  // The scope is those files exactly: sibling obs sources (journal,
  // metrics) legitimately quarantine wall time and stay out of the rule.
  EXPECT_EQ(count_rule(lint_source(*config, "src/obs/metrics.cpp", impure),
                       "cache-purity"),
            0u);
}

TEST(SelfTest, AllEmbeddedFixturesPassAndReportNamesLocations) {
  const std::string text =
      read_file(std::string(PLOS_REPO_DIR) + "/tools/lint_rules.json");
  auto config = parse_config(text);
  ASSERT_TRUE(config.has_value());
  // The layering fixtures need the shipped DAG (the CLI loads it the same
  // way whenever a layering rule is enabled).
  std::string layers_error;
  const auto layers = parse_layers(
      read_file(std::string(PLOS_REPO_DIR) + "/tools/lint_layers.json"),
      &layers_error);
  ASSERT_TRUE(layers.has_value()) << layers_error;
  config->layers = *layers;
  config->layers_loaded = true;
  const SelfTestResult result = self_test(*config);
  EXPECT_TRUE(result.ok) << result.report;
  // Rejections are reported with the rule name and a file:line location.
  EXPECT_NE(result.report.find("[determinism-rng]"), std::string::npos);
  EXPECT_NE(result.report.find("src/core/bad_rng.cpp:3"), std::string::npos)
      << result.report;
  EXPECT_NE(result.report.find("all fixtures passed"), std::string::npos);
}

TEST(Cli, HelpAndListRulesExitZero) {
  std::string out;
  EXPECT_EQ(run_cli({"--help"}, out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);

  out.clear();
  EXPECT_EQ(run_cli({"--root", PLOS_REPO_DIR, "--list-rules"}, out), 0);
  EXPECT_NE(out.find("determinism-rng"), std::string::npos);
}

TEST(Cli, UsageErrorsExitTwo) {
  std::string out;
  EXPECT_EQ(run_cli({"--frobnicate"}, out), 2);
  EXPECT_NE(out.find("unknown flag"), std::string::npos);

  out.clear();
  EXPECT_EQ(run_cli({"--rules"}, out), 2);

  out.clear();
  EXPECT_EQ(run_cli({"--rules", "/nonexistent/lint_rules.json"}, out), 2);
  EXPECT_NE(out.find("cannot open"), std::string::npos);
}

TEST(Cli, SelfTestExitsZeroWithShippedRules) {
  std::string out;
  EXPECT_EQ(run_cli({"--root", PLOS_REPO_DIR, "--self-test"}, out), 0);
  EXPECT_NE(out.find("all fixtures passed"), std::string::npos);
}

TEST(Cli, RealTreeLintsClean) {
  // The acceptance gate: plos_lint over the actual repository exits 0.
  std::string out;
  EXPECT_EQ(run_cli({"--root", PLOS_REPO_DIR}, out), 0) << out;
  EXPECT_NE(out.find("0 finding(s)"), std::string::npos) << out;
}

TEST(Cli, FindingsInAScannedTreeExitOne) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "plos_lint_cli_test";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "core");
  fs::create_directories(root / "tools");
  {
    std::ofstream rules(root / "tools" / "lint_rules.json");
    rules << R"({"roots": ["src"], "rules": [
      {"name": "determinism-rng", "kind": "banned-pattern",
       "message": "no entropy in solvers",
       "patterns": ["std::random_device"], "paths": ["src/"]}
    ]})";
  }
  {
    std::ofstream bad(root / "src" / "core" / "bad.cpp");
    bad << "std::random_device rd;\n";
  }
  std::string out;
  EXPECT_EQ(run_cli({"--root", root.string()}, out), 1);
  EXPECT_NE(out.find("[determinism-rng]"), std::string::npos);
  EXPECT_NE(out.find("src/core/bad.cpp:1"), std::string::npos);

  // A positional prefix filter that excludes the bad file scans clean.
  out.clear();
  EXPECT_EQ(run_cli({"--root", root.string(), "src/other/"}, out), 0);
  fs::remove_all(root);
}

TEST(Cli, ThreadedRealTreeScanIsByteIdentical) {
  // The §8 contract applied to the linter itself: the scan's byte output
  // must not depend on the worker count (CI asserts the same equality).
  std::string serial;
  ASSERT_EQ(run_cli({"--root", PLOS_REPO_DIR, "--threads", "1"}, serial), 0);
  for (const char* threads : {"2", "4", "8"}) {
    std::string out;
    EXPECT_EQ(run_cli({"--root", PLOS_REPO_DIR, "--threads", threads}, out),
              0);
    EXPECT_EQ(out, serial) << "threads=" << threads;
  }
}

TEST(Cli, ThreadsFlagRejectsNonPositiveValues) {
  std::string out;
  EXPECT_EQ(run_cli({"--root", PLOS_REPO_DIR, "--threads", "0"}, out), 2);
  out.clear();
  EXPECT_EQ(run_cli({"--root", PLOS_REPO_DIR, "--threads", "lots"}, out), 2);
  out.clear();
  EXPECT_EQ(run_cli({"--root", PLOS_REPO_DIR, "--format", "xml"}, out), 2);
}

TEST(Cli, SarifFormatEmitsALogAndKeepsExitCodes) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "plos_lint_sarif_test";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "core");
  fs::create_directories(root / "tools");
  {
    std::ofstream rules(root / "tools" / "lint_rules.json");
    rules << R"({"roots": ["src"], "rules": [
      {"name": "determinism-rng", "kind": "banned-pattern",
       "message": "no entropy in solvers",
       "patterns": ["std::random_device"], "paths": ["src/"]}
    ]})";
  }
  {
    std::ofstream bad(root / "src" / "core" / "bad.cpp");
    bad << "std::random_device rd;\n";
  }
  std::string out;
  EXPECT_EQ(run_cli({"--root", root.string(), "--format", "sarif"}, out), 1);
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(out.find("\"ruleId\":\"determinism-rng\""), std::string::npos);

  // Clean scans still exit 0 and emit a (findings-free) log.
  std::ofstream(root / "src" / "core" / "bad.cpp") << "int x;\n";
  out.clear();
  EXPECT_EQ(run_cli({"--root", root.string(), "--format", "sarif"}, out), 0);
  EXPECT_NE(out.find("\"results\":[]"), std::string::npos);
  fs::remove_all(root);
}

TEST(Cli, FixRewritesTreeAndReachesAFixpoint) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "plos_lint_fix_test";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "core");
  fs::create_directories(root / "tools");
  {
    std::ofstream rules(root / "tools" / "lint_rules.json");
    rules << R"({"roots": ["src"], "rules": [
      {"name": "hygiene-pragma-once", "kind": "pragma-once",
       "message": "header missing #pragma once"},
      {"name": "hygiene-include-order", "kind": "include-order",
       "message": "include order"}
    ]})";
  }
  std::ofstream(root / "src" / "core" / "h.hpp") << "int declared();\n";
  std::ofstream(root / "src" / "core" / "pinned.hpp")
      << "#pragma once  // plos-lint: allow(hygiene-pragma-once)\nint y;\n";

  std::string out;
  EXPECT_EQ(run_cli({"--root", root.string(), "--fix"}, out), 0);
  EXPECT_NE(out.find("fixed: src/core/h.hpp"), std::string::npos) << out;
  EXPECT_NE(out.find("refused (plos-lint suppression present): "
                     "src/core/pinned.hpp"),
            std::string::npos)
      << out;

  std::ifstream fixed(root / "src" / "core" / "h.hpp");
  std::ostringstream text;
  text << fixed.rdbuf();
  EXPECT_EQ(text.str(), "#pragma once\n\nint declared();\n");

  // The fixed tree scans clean and a second --fix touches nothing.
  out.clear();
  EXPECT_EQ(run_cli({"--root", root.string()}, out), 0) << out;
  out.clear();
  EXPECT_EQ(run_cli({"--root", root.string(), "--fix"}, out), 0);
  EXPECT_NE(out.find("0 file(s) fixed"), std::string::npos) << out;
  fs::remove_all(root);
}

}  // namespace
}  // namespace plos::lint
