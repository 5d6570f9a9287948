#include "core/distributed_plos.hpp"

#include <cstdint>
#include <limits>
#include <utility>

#include "core/admm_engine.hpp"
#include "obs/trace.hpp"

namespace plos::core {

DistributedPlosResult train_distributed_plos(
    const data::MultiUserDataset& dataset,
    const DistributedPlosOptions& options, net::SimNetwork* network) {
  PLOS_SPAN("plos.distributed_train");
  // The degenerate engine configuration: the round waits for every upload
  // (quorum 1.0, no per-device deadline), blocks never age out, and no
  // tuner or flight recorder runs.
  AdmmEngineOptions engine;
  engine.base = options;
  engine.quorum = 1.0;
  engine.staleness_bound = std::numeric_limits<std::uint64_t>::max();
  engine.adaptive_deadline = false;
  engine.fixed_deadline_s = 0.0;
  AdmmEngineResult result = run_admm_engine(dataset, engine, network);
  return {std::move(result.model), std::move(result.diagnostics)};
}

}  // namespace plos::core
