// Cholesky factorization and SPD linear solves.
//
// Used by the multivariate-normal sampler (covariance factoring) and, via
// the incremental in-place variants, by the active-set QP solver's face
// systems.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "linalg/matrix.hpp"

namespace plos::linalg {

/// Lower-triangular Cholesky factor L with A = L L^T.
/// Returns std::nullopt when A is not (numerically) positive definite.
std::optional<Matrix> cholesky(const Matrix& a);

/// Solve A x = b given the Cholesky factor L of A (forward then back subst).
Vector cholesky_solve(const Matrix& l, std::span<const double> b);

/// Solve the SPD system A x = b directly; nullopt when A is not SPD.
std::optional<Vector> solve_spd(const Matrix& a, std::span<const double> b);

// ---- incremental factor over a strided row-major buffer -------------------
//
// `l` holds the lower-triangular factor L of an n x n SPD matrix in rows of
// `stride` doubles (only the lower triangle is read). Products run through
// linalg::kernels, and nothing allocates, so a solver can grow, use and
// discard factors inside one scratch buffer.

/// Appends row n to L. On entry `row` holds the new row of A (entries
/// 0..n-1 and the diagonal at row[n]); on success it holds row n of L. The
/// row is rejected (false) when its pivot A_nn − |L⁻¹a|² is not finite or
/// not above max(0, pivot_floor · A_nn): A's new column is then
/// numerically dependent on the first n, and row[0..n) holds L⁻¹a.
bool cholesky_append_row(std::span<const double> l, std::size_t stride,
                         std::size_t n, std::span<double> row,
                         double pivot_floor);

/// Solves L y = b in place.
void cholesky_forward_in_place(std::span<const double> l, std::size_t stride,
                               std::size_t n, std::span<double> b);

/// Solves Lᵀ x = y in place.
void cholesky_backward_in_place(std::span<const double> l, std::size_t stride,
                                std::size_t n, std::span<double> b);

}  // namespace plos::linalg
