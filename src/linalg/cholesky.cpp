#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "linalg/kernels.hpp"

namespace plos::linalg {

std::optional<Matrix> cholesky(const Matrix& a) {
  PLOS_CHECK(a.rows() == a.cols(), "cholesky: matrix must be square");
  const std::size_t n = a.rows();
  // Checked-build precondition: the factorization only reads the lower
  // triangle, so an asymmetric input silently factors the wrong matrix.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double scale = std::max({1.0, std::abs(a(i, j)), std::abs(a(j, i))});
      PLOS_DCHECK(std::abs(a(i, j) - a(j, i)) <= 1e-9 * scale,
                  "cholesky: asymmetric input at (" << i << "," << j << "): "
                                                    << a(i, j) << " vs "
                                                    << a(j, i));
    }
  }
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (d <= 0.0 || !std::isfinite(d)) return std::nullopt;
    l(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

Vector cholesky_solve(const Matrix& l, std::span<const double> b) {
  const std::size_t n = l.rows();
  PLOS_CHECK(l.cols() == n && b.size() == n, "cholesky_solve: size mismatch");
  // A factor from a successful cholesky() has a strictly positive diagonal;
  // anything else divides by zero below.
  for (std::size_t i = 0; i < n; ++i) {
    PLOS_DCHECK(l(i, i) > 0.0, "cholesky_solve: non-positive pivot L("
                                   << i << "," << i << ")=" << l(i, i));
  }
  // Forward substitution: L y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  // Back substitution: L^T x = y.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

std::optional<Vector> solve_spd(const Matrix& a, std::span<const double> b) {
  auto l = cholesky(a);
  if (!l) return std::nullopt;
  return cholesky_solve(*l, b);
}

bool cholesky_append_row(std::span<const double> l, std::size_t stride,
                         std::size_t n, std::span<double> row,
                         double pivot_floor) {
  PLOS_CHECK(n < stride && l.size() >= n * stride && row.size() > n,
             "cholesky_append_row: size mismatch");
  // Row-oriented (Cholesky–Banachiewicz): the new row depends only on the
  // rows above it, and every product is a dot of two contiguous prefixes.
  for (std::size_t j = 0; j < n; ++j) {
    row[j] = (row[j] - kernels::blocked_dot(row.first(j),
                                            l.subspan(j * stride, j))) /
             l[j * stride + j];
  }
  const double diagonal = row[n];
  const double pivot = diagonal - kernels::blocked_squared_norm(row.first(n));
  // Written so a NaN pivot fails too.
  if (!(pivot > std::max(0.0, pivot_floor * diagonal)) ||
      !std::isfinite(pivot)) {
    return false;
  }
  row[n] = std::sqrt(pivot);
  return true;
}

void cholesky_forward_in_place(std::span<const double> l, std::size_t stride,
                               std::size_t n, std::span<double> b) {
  PLOS_CHECK(n <= stride && l.size() >= n * stride && b.size() >= n,
             "cholesky_forward_in_place: size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = (b[i] - kernels::blocked_dot(l.subspan(i * stride, i), b.first(i))) /
           l[i * stride + i];
  }
}

void cholesky_backward_in_place(std::span<const double> l, std::size_t stride,
                                std::size_t n, std::span<double> b) {
  PLOS_CHECK(n <= stride && l.size() >= n * stride && b.size() >= n,
             "cholesky_backward_in_place: size mismatch");
  // Column-oriented so row i of L is read contiguously: once x_i is final,
  // remove its share from the entries above it.
  for (std::size_t i = n; i-- > 0;) {
    b[i] /= l[i * stride + i];
    kernels::blocked_axpy(-b[i], l.subspan(i * stride, i), b.first(i));
  }
}

}  // namespace plos::linalg
