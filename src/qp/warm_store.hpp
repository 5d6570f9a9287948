// Persistent dual warm-start state for the cutting-plane QP solvers.
//
// The trainers re-solve one small capped-simplex dual per user (centralized:
// one joint dual; distributed: one per device) thousands of times — across
// cutting-plane iterations, ADMM iterations, and CCCP rounds. Within a round
// the working set only grows, so the previous γ padded with zeros is a good
// warm start (the solvers already do that). ACROSS rounds the working set is
// rebuilt from scratch, but CCCP signs converge quickly, so later rounds
// re-derive mostly the *same* planes — the WarmStore remembers the last
// converged γ per (slot, plane id) and seeds re-appearing planes with it
// instead of zero.
//
// Plane ids are content-interned (core::PlaneGramCache), so "the same plane"
// means bitwise-identical s — a seed can never leak across genuinely
// different constraints. Seeds only initialize the active-set iterate and
// its working set (the iterate is projected before use); they never alter
// the problem, so a bad seed can only cost iterations, never correctness.
//
// Storage is structure-of-arrays: per-slot parallel arrays of plane id and
// γ, sorted by id. Slots are independent — per-device slots are touched only
// by the worker that owns the device in a round, and the flat arrays are
// what a later aggregator shard would snapshot/ship per shard (ROADMAP
// item 1). No wall-clock or pointer-derived state lives here: everything is
// a pure function of the solver trajectory (cache-purity lint rule).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/vector.hpp"

namespace plos::qp {

class WarmStore {
 public:
  explicit WarmStore(std::size_t num_slots);

  std::size_t num_slots() const { return ids_.size(); }

  /// Replaces slot's stored duals with (plane_ids[k], gammas[k]) pairs.
  /// plane_ids need not be sorted; when an id repeats (a plane re-entered
  /// the working set within a round) the last-listed γ wins.
  void store(std::size_t slot, std::span<const std::uint32_t> plane_ids,
             std::span<const double> gammas);

  /// γ last stored for (slot, plane_id), or 0.0 when the plane has never
  /// been part of this slot's converged dual.
  double seed(std::size_t slot, std::uint32_t plane_id) const;

  /// Convenience: seeds for a whole working set, in order.
  linalg::Vector seed_vector(std::size_t slot,
                             std::span<const std::uint32_t> plane_ids) const;

  /// Drops slot's stored duals.
  void clear(std::size_t slot);

  /// Number of stored (plane, γ) pairs in `slot` (tests/diagnostics).
  std::size_t slot_size(std::size_t slot) const;

 private:
  // Structure-of-arrays per slot, kept sorted by plane id for binary-search
  // lookups and deterministic serialization order.
  std::vector<std::vector<std::uint32_t>> ids_;
  std::vector<std::vector<double>> gammas_;
};

}  // namespace plos::qp
