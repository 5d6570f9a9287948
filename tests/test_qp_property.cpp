// Property-test harness for the active-set QP solver (DESIGN.md §13) and
// the box QP reduced onto it.
//
// Across ~200 seeded random instances per problem shape the suite checks
// the properties the hot-path engine leans on:
//   1. correctness — the solver reports `converged` and the returned point
//      satisfies the KKT conditions of its problem to 1e-8 (feasibility +
//      unit-step projected-gradient norm);
//   2. warm-start idempotence — re-solving with the cold solution as warm
//      start returns after ZERO iterations with the bitwise-identical
//      vector, which is what makes cross-round warm-start seeding safe;
//   3. projection idempotence — projecting an already-projected point is a
//      bitwise no-op, so the solver's "project the warm start before use"
//      step cannot perturb an optimal seed;
//   4. termination on degenerate instances — duplicate planes (a singular
//      free-set Hessian), H = 0, a cap-0 group, n = 1, and infeasible warm
//      starts all end converged within max_iterations.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "qp/box_qp.hpp"
#include "qp/capped_simplex_qp.hpp"
#include "qp/projection.hpp"
#include "rng/engine.hpp"

namespace plos::qp {
namespace {

using linalg::Matrix;
using linalg::Vector;

constexpr int kInstancesPerSolver = 200;
constexpr double kKktBound = 1e-8;

void expect_bitwise_equal(const Vector& a, const Vector& b, int seed) {
  ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "seed " << seed << " component " << i;
  }
}

// H = B Bᵀ + ½I: symmetric PSD with smallest eigenvalue >= 0.5, so every
// instance is strongly convex.
Matrix random_psd(std::size_t n, rng::Engine& engine) {
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b(r, c) = engine.gaussian();
  }
  Matrix h = b.row_gram();
  for (std::size_t i = 0; i < n; ++i) h(i, i) += 0.5;
  return h;
}

CappedSimplexQpProblem random_capped_simplex(int seed) {
  rng::Engine engine(static_cast<std::uint64_t>(seed) * 7919 + 1);
  const std::size_t n = 2 + static_cast<std::size_t>(seed % 12);
  CappedSimplexQpProblem problem;
  problem.hessian = random_psd(n, engine);
  problem.linear = engine.gaussian_vector(n, 0.0, 2.0);

  // Random partition of {0,…,n−1} into 1–4 shuffled groups, mimicking the
  // per-user index groups of the centralized dual.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  engine.shuffle(order);
  const std::size_t num_groups =
      1 + static_cast<std::size_t>(engine.uniform_int(0, 3)) % n;
  problem.groups.assign(num_groups, {});
  for (std::size_t i = 0; i < n; ++i) {
    problem.groups[i % num_groups].push_back(order[i]);
  }
  problem.caps.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    problem.caps[g] = engine.uniform(0.25, 2.0);
  }
  return problem;
}

BoxQpProblem random_box(int seed) {
  rng::Engine engine(static_cast<std::uint64_t>(seed) * 6007 + 3);
  const std::size_t n = 2 + static_cast<std::size_t>(seed % 12);
  BoxQpProblem problem;
  problem.hessian = random_psd(n, engine);
  problem.linear = engine.gaussian_vector(n, 0.0, 2.0);
  problem.lo = engine.uniform(-1.0, 0.0);
  problem.hi = problem.lo + engine.uniform(0.5, 2.0);
  return problem;
}

QpOptions tight_options() {
  QpOptions options;
  options.tolerance = 1e-11;
  options.max_iterations = 50000;
  return options;
}

TEST(QpProperty, CappedSimplexKktAndWarmIdempotence) {
  for (int seed = 0; seed < kInstancesPerSolver; ++seed) {
    const auto problem = random_capped_simplex(seed);
    const auto cold = solve_capped_simplex_qp(problem, tight_options());
    ASSERT_TRUE(cold.converged) << "seed " << seed;
    EXPECT_LE(kkt_residual(problem, cold.solution), kKktBound)
        << "seed " << seed;

    // A warm start that IS the cold solution must be accepted by the
    // iteration-0 check and returned without a single active-set step.
    QpOptions warm_options = tight_options();
    warm_options.warm_start = cold.solution;
    const auto warm = solve_capped_simplex_qp(problem, warm_options);
    ASSERT_TRUE(warm.converged) << "seed " << seed;
    EXPECT_EQ(warm.iterations, 0) << "seed " << seed;
    expect_bitwise_equal(cold.solution, warm.solution, seed);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cold.objective),
              std::bit_cast<std::uint64_t>(warm.objective))
        << "seed " << seed;
  }
}

TEST(QpProperty, BoxKktAndWarmIdempotence) {
  for (int seed = 0; seed < kInstancesPerSolver; ++seed) {
    const auto problem = random_box(seed);
    const auto cold = solve_box_qp(problem, tight_options());
    ASSERT_TRUE(cold.converged) << "seed " << seed;
    EXPECT_LE(kkt_residual(problem, cold.solution), kKktBound)
        << "seed " << seed;

    QpOptions warm_options = tight_options();
    warm_options.warm_start = cold.solution;
    const auto warm = solve_box_qp(problem, warm_options);
    ASSERT_TRUE(warm.converged) << "seed " << seed;
    EXPECT_EQ(warm.iterations, 0) << "seed " << seed;
    expect_bitwise_equal(cold.solution, warm.solution, seed);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cold.objective),
              std::bit_cast<std::uint64_t>(warm.objective))
        << "seed " << seed;
  }
}

// ---- degenerate instances -------------------------------------------------

// Cold solve converges within the step cap and meets the KKT bound, and
// the warm re-solve from its answer is a bitwise zero-step no-op.
void expect_exact_and_idempotent(const CappedSimplexQpProblem& problem,
                                 const QpOptions& options, int seed) {
  const auto cold = solve_capped_simplex_qp(problem, options);
  ASSERT_TRUE(cold.converged) << "seed " << seed;
  EXPECT_LE(cold.iterations, options.max_iterations) << "seed " << seed;
  EXPECT_LE(kkt_residual(problem, cold.solution), kKktBound)
      << "seed " << seed;

  QpOptions warm_options = options;
  warm_options.warm_start = cold.solution;
  const auto warm = solve_capped_simplex_qp(problem, warm_options);
  ASSERT_TRUE(warm.converged) << "seed " << seed;
  EXPECT_EQ(warm.iterations, 0) << "seed " << seed;
  expect_bitwise_equal(cold.solution, warm.solution, seed);
}

QpOptions degenerate_options() {
  QpOptions options;
  options.tolerance = 1e-10;
  options.max_iterations = 500;
  return options;
}

constexpr int kDegenerateInstances = 50;

// A cutting-plane dual whose working set holds exact duplicate planes: H
// is the centralized-shape Gram (λ/T + [same group]) ⟨s_i, s_j⟩ over plane
// vectors that repeat, so every face freeing two copies of a plane has a
// singular Hessian. More planes than dimensions make H rank-deficient too.
CappedSimplexQpProblem duplicate_planes(int seed) {
  rng::Engine engine(static_cast<std::uint64_t>(seed) * 2027 + 11);
  const std::size_t dim = 2 + static_cast<std::size_t>(seed % 5);
  const std::size_t distinct = 2 + static_cast<std::size_t>(seed % 7);
  std::vector<Vector> planes;
  Vector offsets;
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < distinct; ++k) {
    planes.push_back(engine.gaussian_vector(dim));
    offsets.push_back(engine.uniform(0.5, 2.0));
    const auto copies = 1 + engine.uniform_int(0, 2);
    for (std::int64_t c = 0; c < copies; ++c) order.push_back(k);
  }
  engine.shuffle(order);
  const std::size_t n = order.size();
  const std::size_t num_groups = 1 + static_cast<std::size_t>(seed % 2);

  CappedSimplexQpProblem problem;
  problem.hessian = Matrix(n, n);
  problem.linear.resize(n);
  problem.groups.assign(num_groups, {});
  for (std::size_t i = 0; i < n; ++i) {
    problem.groups[i % num_groups].push_back(i);
    problem.linear[i] = offsets[order[i]];
    for (std::size_t j = 0; j < n; ++j) {
      const double coupling = 0.25 + (i % num_groups == j % num_groups ? 1.0 : 0.0);
      problem.hessian(i, j) =
          coupling * linalg::dot(planes[order[i]], planes[order[j]]);
    }
  }
  problem.caps.assign(num_groups, 1.0);
  if (num_groups > 1) problem.caps[1] = engine.uniform(0.25, 2.0);
  return problem;
}

TEST(QpProperty, DuplicatePlanesConvergeExactly) {
  for (int seed = 0; seed < kDegenerateInstances; ++seed) {
    expect_exact_and_idempotent(duplicate_planes(seed), degenerate_options(),
                                seed);
  }
}

TEST(QpProperty, ZeroHessianConvergesExactly) {
  // A linear objective: the optimum is a vertex (each group's cap on its
  // largest positive c_i), reached along descent rays of flat faces.
  for (int seed = 0; seed < kDegenerateInstances; ++seed) {
    auto problem = random_capped_simplex(seed);
    problem.hessian = Matrix(problem.linear.size(), problem.linear.size());
    expect_exact_and_idempotent(problem, degenerate_options(), seed);
  }
}

TEST(QpProperty, ZeroCapGroupConvergesExactly) {
  for (int seed = 0; seed < kDegenerateInstances; ++seed) {
    auto problem = random_capped_simplex(seed);
    problem.caps[0] = 0.0;
    const auto result = solve_capped_simplex_qp(problem, degenerate_options());
    for (const std::size_t i : problem.groups[0]) {
      EXPECT_EQ(result.solution[i], 0.0) << "seed " << seed;
    }
    expect_exact_and_idempotent(problem, degenerate_options(), seed);
  }
}

TEST(QpProperty, SingleVariableConvergesExactly) {
  for (int seed = 0; seed < kDegenerateInstances; ++seed) {
    rng::Engine engine(static_cast<std::uint64_t>(seed) * 431 + 5);
    CappedSimplexQpProblem problem;
    problem.hessian = Matrix(1, 1, seed % 3 == 0 ? 0.0 : engine.uniform(0.1, 3.0));
    problem.linear = {engine.gaussian(0.0, 2.0)};
    problem.groups = {{0}};
    problem.caps = {engine.uniform(0.0, 2.0)};
    expect_exact_and_idempotent(problem, degenerate_options(), seed);
  }
}

TEST(QpProperty, InfeasibleWarmStartConvergesExactly) {
  for (int seed = 0; seed < kDegenerateInstances; ++seed) {
    const auto problem = random_capped_simplex(seed);
    rng::Engine engine(static_cast<std::uint64_t>(seed) * 313 + 9);
    QpOptions options = degenerate_options();
    // Negative entries and group sums far over their caps.
    options.warm_start = engine.gaussian_vector(problem.linear.size(), 1.0, 3.0);
    const auto result = solve_capped_simplex_qp(problem, options);
    ASSERT_TRUE(result.converged) << "seed " << seed;
    EXPECT_LE(kkt_residual(problem, result.solution), kKktBound)
        << "seed " << seed;
  }
}

TEST(QpProperty, ProjectionsAreBitwiseIdempotent) {
  for (int seed = 0; seed < kInstancesPerSolver; ++seed) {
    rng::Engine engine(static_cast<std::uint64_t>(seed) * 104729 + 17);
    const std::size_t n = 1 + static_cast<std::size_t>(seed % 16);

    Vector x = engine.gaussian_vector(n, 0.0, 3.0);
    const double cap = engine.uniform(0.1, 2.0);
    project_capped_simplex(x, cap);
    Vector once = x;
    project_capped_simplex(x, cap);
    expect_bitwise_equal(once, x, seed);

    Vector y = engine.gaussian_vector(n, 0.0, 3.0);
    const double lo = engine.uniform(-1.0, 0.0);
    const double hi = lo + engine.uniform(0.5, 2.0);
    project_box(y, lo, hi);
    Vector box_once = y;
    project_box(y, lo, hi);
    expect_bitwise_equal(box_once, y, seed);
  }
}

}  // namespace
}  // namespace plos::qp
