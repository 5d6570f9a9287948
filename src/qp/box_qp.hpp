// Box-constrained convex QP:  min ½ xᵀHx − cᵀx  s.t.  lo ≤ x ≤ hi.
//
// Solved by reduction to the capped-simplex solver: with y = x − lo the box
// becomes y ≥ 0, y_i ≤ hi − lo, i.e. one singleton group per coordinate
// capped at hi − lo. QpOptions and QpResult keep their capped-simplex
// meaning (the warm start and the returned point are in x coordinates).
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "qp/capped_simplex_qp.hpp"  // reuses QpOptions / QpResult

namespace plos::qp {

struct BoxQpProblem {
  linalg::Matrix hessian;  ///< H (n x n, symmetric PSD)
  linalg::Vector linear;   ///< c (n)
  double lo = 0.0;
  double hi = 1.0;
};

QpResult solve_box_qp(const BoxQpProblem& problem, const QpOptions& options = {});

/// Max KKT violation of `x` for `problem`: box-feasibility violation plus
/// stationarity measured as the norm of the unit-step projected gradient.
/// Mirrors qp::kkt_residual for the capped-simplex dual; used by the
/// property-test suite.
double kkt_residual(const BoxQpProblem& problem, std::span<const double> x);

}  // namespace plos::qp
