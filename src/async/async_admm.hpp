// Asynchronous bounded-staleness ADMM with quorum aggregation (paper §VII
// future work).
//
// The trainer is the one ADMM round engine (core/admm_engine.hpp) under a
// partial quorum: the server aggregates as soon as a configurable share of
// the fleet has uploaded, late uploads fold into a later aggregate with a
// staleness-discounted dual step, blocks older than the staleness bound
// are evicted, and per-device deadlines adapt from observed latency. The
// synchronous trainer (core/distributed_plos.hpp) is the same engine at
// quorum 1.0 with no deadlines and unbounded staleness, so the two agree
// bit for bit in that configuration by construction (DESIGN.md §14).
//
// Every configuration is bitwise-deterministic at any thread count: the
// engine schedules from counter-based draws and a deterministic event
// order on the virtual clock, never from measured wall time.
#pragma once

#include "core/admm_engine.hpp"
#include "data/dataset.hpp"
#include "net/simnet.hpp"

namespace plos::async {

using AsyncAggregateView = core::AdmmAggregateView;
using AsyncQuorumOptions = core::AdmmEngineOptions;
using AsyncQuorumDiagnostics = core::QuorumDiagnostics;
using AsyncQuorumResult = core::AdmmEngineResult;

/// Trains distributed PLOS under the asynchronous quorum schedule.
/// `network` is required: completion times are built from its link model
/// and ledger charges. The network must have one device per user, and the
/// quorum must lie in (0, 1].
AsyncQuorumResult train_async_quorum_plos(const data::MultiUserDataset& dataset,
                                          const AsyncQuorumOptions& options,
                                          net::SimNetwork* network);

}  // namespace plos::async
