#include "async/async_admm.hpp"

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace plos::async {

AsyncQuorumResult train_async_quorum_plos(const data::MultiUserDataset& dataset,
                                          const AsyncQuorumOptions& options,
                                          net::SimNetwork* network) {
  PLOS_CHECK(network != nullptr,
             "train_async_quorum_plos: a SimNetwork is required (completion "
             "times are built from its link model)");
  PLOS_SPAN("plos.async_train");
  return core::run_admm_engine(dataset, options, network);
}

}  // namespace plos::async
