// Convex QP over a product of capped simplices, solved exactly by a primal
// active-set method.
//
// This is the dual shape of both PLOS cutting-plane QPs:
//   * centralized dual (paper Eq. 16): one group per user t with cap T/(2λ);
//   * distributed per-device dual (derived from Eq. 22): a single group with
//     cap 1.
//
//   minimize    f(γ) = ½ γᵀ H γ − cᵀ γ
//   subject to  γ ≥ 0,  Σ_{k ∈ group g} γ_k ≤ cap_g  for every group g
//
// H must be symmetric PSD. Groups must partition {0, …, n−1}.
//
// The working set holds the bound variables (γ_i = 0) and the tight groups
// (Σ_{k∈g} γ_k = cap_g). Each step eliminates one free member per tight
// group, factors the reduced free-set Hessian with linalg/cholesky, and
// moves toward the face minimizer up to the first blocking constraint;
// at a face minimizer the most negative multiplier (μ_g of a tight group,
// λ_i = ∇f_i + μ_g of a bound variable) is released. A singular face
// (duplicate planes, H = 0) is handled exactly: a dependent coordinate is
// held where it is when f is flat along it, and otherwise the step follows
// the descent ray to the first blocking constraint. The cutting-plane
// duals hold tens to a few hundred variables, so each solve is a handful
// of dense factorizations.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace plos::qp {

struct CappedSimplexQpProblem {
  linalg::Matrix hessian;                        ///< H (n x n, symmetric PSD)
  linalg::Vector linear;                         ///< c (n)
  std::vector<std::vector<std::size_t>> groups;  ///< partition of indices
  linalg::Vector caps;                           ///< one cap per group
};

struct QpOptions {
  /// The single stopping rule, used both for the iteration-0 warm check and
  /// for QpResult::converged: with the working set implied by the point's
  /// support, every free gradient matches its group's −μ_g and no
  /// multiplier is below −tolerance·(1 + max|∇f|).
  double tolerance = 1e-9;
  /// Cap on active-set steps.
  int max_iterations = 5000;
  /// Optional warm start; projected onto the feasible set before use, and
  /// its support seeds the working set. Cutting-plane loops re-solve a
  /// growing problem, so passing the previous solution (padded with zeros
  /// for new variables) leaves only a few steps. A warm start that already
  /// passes the stopping rule is returned unchanged after zero iterations
  /// (see QpResult::iterations), which is what makes warm-started
  /// re-solves bitwise-idempotent.
  linalg::Vector warm_start;
};

struct QpResult {
  linalg::Vector solution;
  double objective = 0.0;  ///< f at the solution (minimization form)
  /// Active-set steps taken; 0 = the (projected) warm start already passed.
  int iterations = 0;
  /// The stopping rule holds at `solution`. False after max_iterations, or
  /// when a numerically singular face left nothing to release; every such
  /// solve also counts in the qp.capped_simplex.unconverged counter.
  bool converged = false;
};

/// Validates the problem (shapes, group partition, caps) and solves it.
QpResult solve_capped_simplex_qp(const CappedSimplexQpProblem& problem,
                                 const QpOptions& options = {});

/// Max KKT violation of `gamma` for `problem`: feasibility violation plus
/// stationarity measured as the norm of the unit-step projected gradient.
/// Near-zero means near-optimal; used by tests and solver diagnostics.
double kkt_residual(const CappedSimplexQpProblem& problem,
                    std::span<const double> gamma);

}  // namespace plos::qp
