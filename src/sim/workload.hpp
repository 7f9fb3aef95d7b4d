// IoT workload generation.
//
// Models the paper's evaluation workload (§V-B): "each node is set to
// propose new transactions at a constant frequency". A workload drives one
// client: starting at `start` (plus a deterministic per-client stagger so
// submissions do not align artificially), it submits `txs_per_client`
// normal transactions, one every `period`, each carrying the device's
// geographic trailer. Latencies are recorded by the client's commit callback.
#pragma once

#include <functional>
#include <memory>

#include "pbft/client.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace gpbft::sim {

/// Schedules a constant-frequency submission stream for `client` located at
/// `location`, from the PerClient fields of `workload` (the retry switch and
/// the plane fields are the deployment's business). `client_index` derives
/// the stagger offset and seeds payload contents. The recorder (optional)
/// collects commit latencies. `on_submit` (optional) fires for every
/// transaction as it is submitted — chaos runs wire it to
/// InvariantMonitor::expect_submission for the validity check.
/// `alive` (optional) is a liveness token: the simulator cannot cancel
/// events, so scheduled steps otherwise keep the driver alive after
/// Deployment::stop and enqueue requests into a stopping cluster. When the
/// token's owner drops it, pending steps become no-ops (same pattern as the
/// replicas' restart timers). A null token leaves the stream ungated.
void schedule_workload(net::Simulator& sim, pbft::Client& client, const geo::GeoPoint& location,
                       const WorkloadSpec& workload, std::uint64_t client_index,
                       LatencyRecorder* recorder,
                       std::function<void(const ledger::Transaction&)> on_submit = {},
                       std::shared_ptr<const bool> alive = nullptr);

/// Builds the normal transaction a workload would submit (exposed for tests
/// and single-transaction experiments).
[[nodiscard]] ledger::Transaction make_workload_tx(NodeId sender, RequestId request_id,
                                                   const geo::GeoPoint& location, TimePoint now,
                                                   std::size_t payload_bytes, Amount fee,
                                                   std::uint64_t salt);

}  // namespace gpbft::sim
