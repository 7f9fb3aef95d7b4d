#include "sim/workload.hpp"

#include <memory>

#include "common/rng.hpp"
#include "ledger/transaction.hpp"

namespace gpbft::sim {

ledger::Transaction make_workload_tx(NodeId sender, RequestId request_id,
                                     const geo::GeoPoint& location, TimePoint now,
                                     std::size_t payload_bytes, Amount fee, std::uint64_t salt) {
  // Deterministic pseudo-sensor payload derived from (sender, request, salt).
  Bytes payload(payload_bytes);
  std::uint64_t mix = sender.value * 0x9e3779b97f4a7c15ull + request_id * 31 + salt;
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(splitmix64(mix));

  geo::GeoReport report;
  report.point = location;
  report.timestamp = now;
  return ledger::make_normal_tx(sender, request_id, std::move(payload), fee, report);
}

namespace {

struct WorkloadDriver {
  pbft::Client* client{nullptr};
  geo::GeoPoint location;
  WorkloadSpec workload;
  std::uint64_t client_index{0};
  RequestId next_request{1};
  std::uint64_t submitted{0};
  std::function<void(const ledger::Transaction&)> on_submit;
  // Liveness gating (see schedule_workload docs). `gated` distinguishes "no
  // token supplied" from "token supplied and since expired".
  bool gated{false};
  std::weak_ptr<const bool> alive;
};

// Self-rescheduling step; the shared_ptr keeps the driver alive across the
// whole submission stream.
void step(const std::shared_ptr<WorkloadDriver>& driver, net::Simulator& sim) {
  if (driver->gated && driver->alive.expired()) return;  // deployment stopped
  if (driver->submitted >= driver->workload.txs_per_client) return;
  const ledger::Transaction tx =
      make_workload_tx(driver->client->id(), driver->next_request++, driver->location, sim.now(),
                       driver->workload.payload_bytes, driver->workload.fee, driver->client_index);
  if (driver->on_submit) driver->on_submit(tx);
  driver->client->submit(tx);
  ++driver->submitted;
  if (driver->submitted < driver->workload.txs_per_client) {
    sim.schedule(driver->workload.period, [driver, &sim]() { step(driver, sim); });
  }
}

}  // namespace

void schedule_workload(net::Simulator& sim, pbft::Client& client, const geo::GeoPoint& location,
                       const WorkloadSpec& workload, std::uint64_t client_index,
                       LatencyRecorder* recorder,
                       std::function<void(const ledger::Transaction&)> on_submit,
                       std::shared_ptr<const bool> alive) {
  if (recorder != nullptr) {
    client.set_commit_callback(
        [recorder](const crypto::Hash256&, Height, Duration latency) {
          recorder->record(latency);
        });
  }

  auto driver = std::make_shared<WorkloadDriver>();
  driver->client = &client;
  driver->location = location;
  driver->workload = workload;
  driver->client_index = client_index;
  driver->on_submit = std::move(on_submit);
  if (alive != nullptr) {
    driver->gated = true;
    driver->alive = alive;
  }

  const TimePoint first = TimePoint{workload.start.ns +
                                    workload.stagger.ns * static_cast<std::int64_t>(client_index)};
  sim.schedule_at(first, [driver, &sim]() { step(driver, sim); });
}

}  // namespace gpbft::sim
