#include "qp/capped_simplex_qp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qp/projection.hpp"

namespace plos::qp {

namespace {

namespace kernels = linalg::kernels;

void validate(const CappedSimplexQpProblem& p) {
  const std::size_t n = p.linear.size();
  PLOS_CHECK(p.hessian.rows() == n && p.hessian.cols() == n,
             "CappedSimplexQp: hessian/linear size mismatch");
  PLOS_CHECK(p.groups.size() == p.caps.size(),
             "CappedSimplexQp: groups/caps size mismatch");
  std::vector<char> seen(n, 0);
  for (const auto& g : p.groups) {
    PLOS_CHECK(!g.empty(), "CappedSimplexQp: empty group");
    for (std::size_t idx : g) {
      PLOS_CHECK(idx < n, "CappedSimplexQp: group index out of range");
      PLOS_CHECK(!seen[idx], "CappedSimplexQp: groups must be disjoint");
      seen[idx] = 1;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    PLOS_CHECK(seen[i], "CappedSimplexQp: groups must cover all indices");
  }
  for (double cap : p.caps) {
    PLOS_CHECK(cap >= 0.0, "CappedSimplexQp: negative cap");
  }
}

void project_groups(const CappedSimplexQpProblem& p, linalg::Vector& x) {
  // Gather/scatter per group; the feasible set is a product over groups so
  // projection decomposes exactly.
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const auto& idx = p.groups[g];
    linalg::Vector block(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) block[k] = x[idx[k]];
    project_capped_simplex(block, p.caps[g]);
    for (std::size_t k = 0; k < idx.size(); ++k) x[idx[k]] = block[k];
  }
}

linalg::Vector gradient(const CappedSimplexQpProblem& p,
                        std::span<const double> x) {
  linalg::Vector g = p.hessian.matvec(x);
  linalg::axpy(-1.0, p.linear, g);
  return g;
}

/// A group counts as tight when its slack is below this fraction of 1+cap.
/// Projection can leave a tight group's float sum a few ulps under its cap.
constexpr double kTightSlack = 1e-12;
/// A reduced coordinate whose Cholesky pivot falls below this fraction of
/// its diagonal entry is (numerically) dependent on the coordinates before
/// it: the face Hessian is singular along it (duplicate planes, H = 0).
constexpr double kPivotFloor = 1e-12;

/// Outcome of one active-set step.
enum class Step {
  kFull,     ///< reached the face minimizer
  kBlocked,  ///< stopped at a constraint, which joined the working set
  kStuck,    ///< a ray met no constraint (numerically degenerate face)
};

/// Result of the multiplier test at one point and working set.
struct MultiplierTest {
  double threshold = 0.0;     ///< tol · (1 + max|∇f|)
  bool stationary = false;    ///< free gradients match their group's −μ_g
  double worst = 0.0;         ///< most negative multiplier (≤ 0)
  bool worst_is_group = false;
  std::size_t worst_index = 0;  ///< group index or variable index

  bool converged() const { return stationary && worst >= -threshold; }
};

/// Primal active-set method for min ½γᵀHγ − cᵀγ over a product of capped
/// simplices. The working set holds bound variables (γ_i = 0) and tight
/// groups (Σ_{k∈g} γ_k = cap_g). Each step solves the equality-constrained
/// problem on the current face — each tight group's last free member is
/// eliminated and the reduced free-set Hessian is factored with Cholesky —
/// and moves toward its minimizer up to the first blocking constraint. At a
/// face minimizer the most negative multiplier is released.
///
/// A singular face is handled exactly, coordinate by coordinate: one whose
/// pivot vanishes spans, with the coordinates before it, a direction v of
/// zero curvature. If f is flat along v (duplicate planes: the objective
/// only sees their summed weight) the coordinate is held where it is,
/// which loses nothing; otherwise f falls linearly along ±v and the step
/// follows that ray to the first blocking constraint (H = 0 walks vertices
/// like the simplex method). All scratch lives for one solve.
class ActiveSet {
 public:
  ActiveSet(const CappedSimplexQpProblem& p, double tolerance)
      : p_(p),
        n_(p.linear.size()),
        tolerance_(tolerance),
        h_(p.hessian.data()),
        bound_(n_, 0),
        tight_(p.groups.size(), 0),
        hx_(n_),
        grad_(n_),
        group_begin_(p.groups.size()),
        group_end_(p.groups.size()),
        basis_gradient_(n_),
        direction_(n_),
        reduced_step_(n_) {
    free_.reserve(n_);
    reduced_.reserve(n_);
    basis_.reserve(n_);
    scratch_index_.reserve(n_);
  }

  /// Working set = support of x: zeros are bound, groups within
  /// kTightSlack of their cap are tight.
  void derive_from(std::span<const double> x) {
    for (std::size_t i = 0; i < n_; ++i) bound_[i] = x[i] == 0.0 ? 1 : 0;
    for (std::size_t g = 0; g < p_.groups.size(); ++g) {
      const double slack =
          p_.caps[g] - kernels::serial_gather_sum(x, p_.groups[g]);
      tight_[g] = slack <= kTightSlack * (1.0 + p_.caps[g]) ? 1 : 0;
    }
  }

  /// The single stopping rule: multipliers estimated from ∇f at x for the
  /// current working set. μ_g is minus the mean free gradient of a tight
  /// group (0 for a slack group), λ_i = ∇f_i + μ_g for a bound variable.
  MultiplierTest test(std::span<const double> x) {
    // H·x as a sum of the rows of the support (H is symmetric), so the
    // cost is n per nonzero instead of n² — most duals are zero.
    std::fill(hx_.begin(), hx_.end(), 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      if (x[j] != 0.0) kernels::blocked_axpy(x[j], h_.subspan(j * n_, n_), hx_);
    }
    for (std::size_t i = 0; i < n_; ++i) grad_[i] = hx_[i] - p_.linear[i];
    double grad_max = 0.0;
    for (const double v : grad_) grad_max = std::max(grad_max, std::abs(v));

    MultiplierTest t;
    t.threshold = tolerance_ * (1.0 + grad_max);
    double stationarity = 0.0;
    for (std::size_t g = 0; g < p_.groups.size(); ++g) {
      scratch_index_.clear();
      for (const std::size_t i : p_.groups[g]) {
        if (!bound_[i]) scratch_index_.push_back(i);
      }
      double mu = 0.0;
      if (tight_[g] && !scratch_index_.empty()) {
        mu = -kernels::serial_gather_sum(grad_, scratch_index_) /
             static_cast<double>(scratch_index_.size());
        if (mu < t.worst) {
          t.worst = mu;
          t.worst_is_group = true;
          t.worst_index = g;
        }
      } else if (tight_[g]) {
        // Every member bound (a cap-0 group): any μ_g ≥ max(0, −min ∇f)
        // makes all multipliers of the group non-negative.
        for (const std::size_t i : p_.groups[g]) mu = std::max(mu, -grad_[i]);
      }
      for (const std::size_t i : p_.groups[g]) {
        const double lambda = grad_[i] + mu;
        if (!bound_[i]) {
          stationarity = std::max(stationarity, std::abs(lambda));
        } else if (lambda < t.worst) {
          t.worst = lambda;
          t.worst_is_group = false;
          t.worst_index = i;
        }
      }
    }
    t.stationary = stationarity <= t.threshold;
    return t;
  }

  /// f at the point of the last test() call (reuses its H·x).
  double objective(std::span<const double> x) const {
    return 0.5 * kernels::blocked_dot(x, hx_) -
           kernels::blocked_dot(p_.linear, x);
  }

  void release(const MultiplierTest& t) {
    if (t.worst_is_group) {
      tight_[t.worst_index] = 0;
    } else {
      bound_[t.worst_index] = 0;
    }
  }

  /// Direction toward the minimizer of the current face (or along a
  /// descent ray of a singular face), in free_ order. `threshold` is the
  /// current multiplier test's, reused to decide whether f is flat along a
  /// zero-curvature direction.
  void solve_face(std::span<const double> x, double threshold) {
    // Free variables group-major, so each group's free members form one
    // contiguous range [group_begin_, group_end_). A tight group's last
    // free member is eliminated (null-space method): it takes the negated
    // sum of the others' steps, so every step stays on the group's cap.
    // The remaining free variables are the reduced coordinates.
    free_.clear();
    reduced_.clear();
    for (std::size_t g = 0; g < p_.groups.size(); ++g) {
      group_begin_[g] = free_.size();
      for (const std::size_t i : p_.groups[g]) {
        if (!bound_[i]) free_.push_back(i);
      }
      group_end_[g] = free_.size();
      const std::size_t kept =
          tight_[g] && group_end_[g] > group_begin_[g] ? group_end_[g] - 1
                                                        : group_end_[g];
      const std::size_t eliminated =
          kept < group_end_[g] ? free_[kept] : n_;
      const double eliminated_grad = eliminated < n_ ? grad_[eliminated] : 0.0;
      for (std::size_t a = group_begin_[g]; a < kept; ++a) {
        reduced_.push_back(
            {free_[a], eliminated, grad_[free_[a]] - eliminated_grad});
      }
    }
    const std::size_t r = reduced_.size();
    const std::span<double> along(reduced_step_.data(), r);
    std::fill(along.begin(), along.end(), 0.0);
    ray_ = false;

    // Factor (Zᵀ H_FF Z) one coordinate at a time, keeping the independent
    // ones: rows of the factor are stored compactly with stride r. Sized on
    // first use, so a warm start that passes at iteration 0 allocates none.
    if (face_.empty()) face_.resize(n_ * n_);
    basis_.clear();
    for (std::size_t a = 0; a < r && !ray_; ++a) {
      const std::size_t m = basis_.size();
      const std::span<double> row(face_.data() + m * r, r);
      for (std::size_t j = 0; j < m; ++j) row[j] = face_entry(a, basis_[j]);
      row[m] = face_entry(a, a);
      if (linalg::cholesky_append_row(face_, r, m, row, kPivotFloor)) {
        basis_.push_back(a);
        continue;
      }
      // v = e_a − Σ_j w_j e_{basis_j} with (basis Hessian) w = H(basis, a)
      // has zero curvature. Its slope is ∇_r f · v.
      const std::span<double> w = row.first(m);
      linalg::cholesky_backward_in_place(face_, r, m, w);
      double w_max = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        basis_gradient_[j] = reduced_[basis_[j]].gradient;
        w_max = std::max(w_max, std::abs(w[j]));
      }
      const double slope =
          reduced_[a].gradient -
          kernels::blocked_dot(
              w, std::span<const double>(basis_gradient_.data(), m));
      const double flat = threshold * (1.0 + w_max * static_cast<double>(m));
      if (std::abs(slope) <= flat) {
        continue;  // flat: hold coordinate a where it is
      }
      const double sign = slope > 0.0 ? -1.0 : 1.0;
      along[a] = sign;
      for (std::size_t j = 0; j < m; ++j) along[basis_[j]] = -sign * w[j];
      ray_ = true;
    }
    if (!ray_ && !basis_.empty()) {
      // Newton step on the independent coordinates: (basis Hessian) s = −g.
      const std::size_t m = basis_.size();
      const std::span<double> rhs(basis_gradient_.data(), m);
      for (std::size_t j = 0; j < m; ++j) {
        rhs[j] = -reduced_[basis_[j]].gradient;
      }
      linalg::cholesky_forward_in_place(face_, r, m, rhs);
      linalg::cholesky_backward_in_place(face_, r, m, rhs);
      for (std::size_t j = 0; j < m; ++j) along[basis_[j]] = rhs[j];
    }

    // Scatter to free_ order; each eliminated member closes its group's
    // sum, absorbing any float drift of that sum off the cap.
    const std::span<double> d(direction_.data(), free_.size());
    std::size_t next = 0;
    for (std::size_t g = 0; g < p_.groups.size(); ++g) {
      if (group_end_[g] == group_begin_[g]) continue;
      const std::size_t last = group_end_[g] - 1;
      for (std::size_t a = group_begin_[g]; a < group_end_[g]; ++a) {
        if (!(tight_[g] && a == last)) d[a] = along[next++];
      }
      if (tight_[g]) {
        const double drift =
            ray_ ? 0.0
                 : p_.caps[g] - kernels::serial_gather_sum(x, p_.groups[g]);
        d[last] = drift - kernels::serial_sum(d.subspan(
                              group_begin_[g], last - group_begin_[g]));
      }
    }
  }

  /// Moves x along the face direction up to the first blocking constraint
  /// (a full step when none blocks before the face minimizer) and adds
  /// that constraint to the working set.
  Step step(std::span<double> x) {
    const std::size_t k = free_.size();
    const std::span<const double> d(direction_.data(), k);
    double alpha = ray_ ? std::numeric_limits<double>::infinity() : 1.0;
    bool blocked = false;
    bool block_is_group = false;
    std::size_t block = 0;
    for (std::size_t a = 0; a < k; ++a) {
      if (d[a] < 0.0) {
        const double ratio = x[free_[a]] / -d[a];
        if (ratio < alpha) {
          alpha = ratio;
          blocked = true;
          block = free_[a];
        }
      }
    }
    for (std::size_t g = 0; g < p_.groups.size(); ++g) {
      if (tight_[g] || group_end_[g] == group_begin_[g]) continue;
      const double rise = kernels::serial_sum(group_range(d, g));
      if (!(rise > 0.0)) continue;
      const double slack =
          p_.caps[g] - kernels::serial_gather_sum(x, p_.groups[g]);
      const double ratio = std::max(slack, 0.0) / rise;
      if (ratio < alpha) {
        alpha = ratio;
        blocked = true;
        block_is_group = true;
        block = g;
      }
    }
    if (!blocked && ray_) return Step::kStuck;
    for (std::size_t a = 0; a < k; ++a) {
      double& v = x[free_[a]];
      v = std::max(v + alpha * d[a], 0.0);
    }
    if (!blocked) return Step::kFull;
    if (block_is_group) {
      tight_[block] = 1;
    } else {
      x[block] = 0.0;
      bound_[block] = 1;
    }
    return Step::kBlocked;
  }

 private:
  /// One reduced coordinate: a free variable, the member eliminated in its
  /// group (n_ when its group is not tight), and ∂f along the coordinate.
  struct Reduced {
    std::size_t index;
    std::size_t eliminated;
    double gradient;
  };

  /// (Zᵀ H_FF Z)(a, b) for reduced coordinates a, b: with the eliminated
  /// members E_a, E_b, H(a,b) − H(E_a,b) − H(a,E_b) + H(E_a,E_b).
  double face_entry(std::size_t a, std::size_t b) const {
    const Reduced& u = reduced_[a];
    const Reduced& v = reduced_[b];
    double h = h_[u.index * n_ + v.index];
    if (u.eliminated < n_) h -= h_[u.eliminated * n_ + v.index];
    if (v.eliminated < n_) h -= h_[u.index * n_ + v.eliminated];
    if (u.eliminated < n_ && v.eliminated < n_) {
      h += h_[u.eliminated * n_ + v.eliminated];
    }
    return h;
  }

  std::span<const double> group_range(std::span<const double> v,
                                      std::size_t g) const {
    return v.subspan(group_begin_[g], group_end_[g] - group_begin_[g]);
  }

  const CappedSimplexQpProblem& p_;
  std::size_t n_;
  double tolerance_;
  std::span<const double> h_;  ///< row-major H
  std::vector<char> bound_;
  std::vector<char> tight_;
  linalg::Vector hx_;  ///< H·x at the last tested point
  linalg::Vector grad_;
  std::vector<std::size_t> free_;
  std::vector<std::size_t> group_begin_;
  std::vector<std::size_t> group_end_;
  std::vector<Reduced> reduced_;
  std::vector<std::size_t> basis_;  ///< independent reduced coordinates
  std::vector<std::size_t> scratch_index_;
  linalg::Vector face_;            ///< factor rows of the basis, stride r
  linalg::Vector basis_gradient_;  ///< per basis coordinate
  linalg::Vector direction_;       ///< face step, free_ order
  linalg::Vector reduced_step_;    ///< face step, reduced coordinates
  bool ray_ = false;               ///< the face step is a descent ray
};

}  // namespace

QpResult solve_capped_simplex_qp(const CappedSimplexQpProblem& problem,
                                 const QpOptions& options) {
  PLOS_SPAN("qp.capped_simplex_solve");
  const Stopwatch watch;
  validate(problem);
  const std::size_t n = problem.linear.size();

  QpResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  static obs::Counter& warm_hits =
      obs::metrics().counter("qp.capped_simplex.warm_hits");

  linalg::Vector x(n, 0.0);
  if (!options.warm_start.empty()) {
    PLOS_CHECK(options.warm_start.size() == n,
               "CappedSimplexQp: warm start size mismatch");
    x = options.warm_start;
  }
  project_groups(problem, x);

  // Iteration-0 check: a (projected) warm start that already passes the
  // multiplier test for the working set its own support implies is
  // returned unchanged, so re-solving from a converged solution is
  // bitwise-idempotent (the property-test suite pins this).
  ActiveSet active(problem, options.tolerance);
  active.derive_from(x);
  MultiplierTest test = active.test(x);
  if (test.converged() && !options.warm_start.empty()) warm_hits.increment();

  Step last = Step::kBlocked;
  while (!test.converged() && result.iterations < options.max_iterations) {
    // At a face minimizer, leave the face through the most negative
    // multiplier. A full step lands on the minimizer by construction;
    // trusting it keeps rounding noise from re-solving the same face.
    if (test.stationary || last == Step::kFull) {
      if (test.worst >= -test.threshold) break;  // nothing left to release
      active.release(test);
    }
    active.solve_face(x, test.threshold);
    last = active.step(x);
    if (last == Step::kStuck) break;
    ++result.iterations;
    test = active.test(x);
  }

  if (result.iterations > 0) {
    // Re-projection shaves float excess off tight groups (so a warm
    // re-solve's projection is a no-op); the same test then decides
    // `converged` on the exact point returned.
    project_groups(problem, x);
    active.derive_from(x);
    test = active.test(x);
  }
  result.converged = test.converged();
  result.solution = std::move(x);
  result.objective = PLOS_CHECK_FINITE(active.objective(result.solution));

  // Checked-build postcondition: the iterate is (numerically) inside the
  // capped simplex — dual feasibility of the recovered multipliers.
  for (std::size_t i = 0; i < n; ++i) {
    PLOS_DCHECK(result.solution[i] >= -1e-9,
                "CappedSimplexQp: negative multiplier gamma[" << i << "]="
                                                             << result.solution[i]);
  }
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    const double sum =
        kernels::serial_gather_sum(result.solution, problem.groups[g]);
    PLOS_DCHECK(sum <= problem.caps[g] + 1e-9 * (1.0 + problem.caps[g]),
                "CappedSimplexQp: group " << g << " sum " << sum
                                          << " exceeds cap " << problem.caps[g]);
  }

  // Instrument handles are resolved once; the registry is a process-lifetime
  // singleton, so the cached references never dangle across reset_values().
  static obs::Counter& solves = obs::metrics().counter("qp.capped_simplex.solves");
  static obs::Counter& unconverged =
      obs::metrics().counter("qp.capped_simplex.unconverged");
  static obs::Counter& seconds =
      obs::metrics().counter("qp.capped_simplex.seconds");
  static obs::Histogram& iterations = obs::metrics().histogram(
      "qp.capped_simplex.iterations", obs::default_iteration_buckets());
  solves.increment();
  if (!result.converged) unconverged.increment();
  seconds.add(watch.elapsed_seconds());
  iterations.record(static_cast<double>(result.iterations));
  return result;
}

double kkt_residual(const CappedSimplexQpProblem& problem,
                    std::span<const double> gamma) {
  validate(problem);
  PLOS_CHECK(gamma.size() == problem.linear.size(),
             "kkt_residual: gamma size mismatch");

  double feasibility = 0.0;
  for (double v : gamma) feasibility = std::max(feasibility, -v);
  for (std::size_t g = 0; g < problem.groups.size(); ++g) {
    const double s = kernels::serial_gather_sum(gamma, problem.groups[g]);
    feasibility = std::max(feasibility, s - problem.caps[g]);
  }

  // Stationarity on a convex set: x is optimal iff x == P(x - grad(x)).
  linalg::Vector probe(gamma.begin(), gamma.end());
  const linalg::Vector grad = gradient(problem, gamma);
  linalg::axpy(-1.0, grad, probe);
  project_groups(problem, probe);
  linalg::Vector x(gamma.begin(), gamma.end());
  const double stationarity = std::sqrt(linalg::squared_distance(probe, x));

  return std::max(feasibility, stationarity);
}

}  // namespace plos::qp
