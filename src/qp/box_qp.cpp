#include "qp/box_qp.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "linalg/kernels.hpp"
#include "qp/projection.hpp"

namespace plos::qp {

namespace {

double objective(const BoxQpProblem& p, std::span<const double> x) {
  const linalg::Vector hx = p.hessian.matvec(x);
  return 0.5 * linalg::dot(x, hx) - linalg::dot(p.linear, x);
}

linalg::Vector gradient(const BoxQpProblem& p, std::span<const double> x) {
  linalg::Vector g = p.hessian.matvec(x);
  linalg::axpy(-1.0, p.linear, g);
  return g;
}

}  // namespace

QpResult solve_box_qp(const BoxQpProblem& problem, const QpOptions& options) {
  const std::size_t n = problem.linear.size();
  PLOS_CHECK(problem.hessian.rows() == n && problem.hessian.cols() == n,
             "BoxQp: hessian/linear size mismatch");
  PLOS_CHECK(problem.lo <= problem.hi, "BoxQp: lo > hi");

  // Shift to y = x − lo: f(y + lo) = ½ yᵀHy − (c − H·lo)ᵀy + const.
  CappedSimplexQpProblem shifted;
  shifted.hessian = problem.hessian;
  shifted.linear = problem.linear;
  shifted.groups.resize(n);
  shifted.caps.assign(n, problem.hi - problem.lo);
  for (std::size_t i = 0; i < n; ++i) {
    shifted.linear[i] -=
        problem.lo * linalg::kernels::serial_sum(problem.hessian.row(i));
    shifted.groups[i] = {i};
  }
  QpOptions shifted_options = options;
  for (double& v : shifted_options.warm_start) v -= problem.lo;

  QpResult result = solve_capped_simplex_qp(shifted, shifted_options);
  if (result.iterations == 0 && !options.warm_start.empty()) {
    // The clamped warm start passed as is: return it bitwise, not its
    // shifted-and-back round trip.
    result.solution = options.warm_start;
    project_box(result.solution, problem.lo, problem.hi);
  } else {
    for (double& v : result.solution) v += problem.lo;
  }
  if (n > 0) {
    result.objective = PLOS_CHECK_FINITE(objective(problem, result.solution));
  }
  return result;
}

double kkt_residual(const BoxQpProblem& problem, std::span<const double> x) {
  const std::size_t n = problem.linear.size();
  PLOS_CHECK(problem.hessian.rows() == n && problem.hessian.cols() == n,
             "kkt_residual: hessian/linear size mismatch");
  PLOS_CHECK(x.size() == n, "kkt_residual: x size mismatch");

  double feasibility = 0.0;
  for (double v : x) {
    feasibility = std::max(feasibility, problem.lo - v);
    feasibility = std::max(feasibility, v - problem.hi);
  }

  // Stationarity on a convex set: x is optimal iff x == P(x - grad(x)).
  linalg::Vector probe(x.begin(), x.end());
  const linalg::Vector grad = gradient(problem, x);
  linalg::axpy(-1.0, grad, probe);
  project_box(probe, problem.lo, problem.hi);
  const double stationarity = std::sqrt(linalg::squared_distance(probe, x));

  return std::max(feasibility, stationarity);
}

}  // namespace plos::qp
