// G-PBFT endorser node (§III of the paper).
//
// An Endorser layers onto the PBFT replica:
//
//  * periodic geo reporting: every device uploads <longitude, latitude,
//    timestamp> to the committee; endorsers run the SybilFilter and record
//    accepted reports in their election tables (§III-B3). Transaction geo
//    trailers are recorded at execution time (chain-based, Table II row 2).
//  * era switches (§III-E): every era period T the current primary (the
//    "lead") halts ordering, runs Algorithm 1 over its election table,
//    assembles the next roster under the admittance policy, and commits it
//    as a configuration block through PBFT itself. When that block
//    executes, every endorser reconfigures: view 0 of the new era, roster
//    (and production priority) taken from the configuration transaction.
//    Newly admitted members receive an ERA-LAUNCH with the chain suffix
//    they miss (state transfer, paid for on the simulated wire).
//  * incentives (§III-B5): the configuration roster is ordered by
//    geographic timer, and primary_of() follows that order, so devices
//    stationary longer produce blocks first; producing a block resets the
//    producer's timer; a primary that loses its view to a view change (a
//    "missed block") or is caught forking is penalized and expelled at the
//    next switch. Fee distribution (70/30) happens in ledger::State.
//
// Role lifecycle: a node starts Active (in the genesis roster) or Candidate
// (reporting location, waiting to qualify); era switches move nodes in both
// directions.
//
// Simplifications vs. the paper, documented in DESIGN.md: committee/roster
// propagation to *clients* is a zero-cost control-plane callback (the
// harness updates them), and election tables are replicated via the
// broadcast geo reports rather than re-derived from chain data by new
// members — a freshly joined member fills its table over the next era.
#pragma once

#include <functional>
#include <set>

#include "geo/reputation.hpp"
#include "gpbft/area_registry.hpp"
#include "gpbft/election.hpp"
#include "gpbft/protocol_config.hpp"
#include "pbft/replica.hpp"

namespace gpbft::gpbft {

enum class Role { Active, Candidate };

class Endorser : public pbft::Replica {
 public:
  /// (era, roster in production-priority order) after each switch.
  using RosterCallback = std::function<void(EraId, const std::vector<NodeId>&)>;

  Endorser(NodeId id, geo::GeoPoint location, GpbftConfig config, ledger::Block genesis,
           net::Network& network, const crypto::KeyRegistry& keys, const AreaRegistry* area);

  /// Attaches and arms the replica tick, then the geo-report and era
  /// timers; a second call is a no-op.
  void start() override;

  // --- introspection ----------------------------------------------------------
  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] EraId era() const { return era_; }
  [[nodiscard]] const geo::ElectionTable& election_table() const { return table_; }
  [[nodiscard]] const SybilFilter& sybil_filter() const { return filter_; }
  [[nodiscard]] const std::vector<NodeId>& producer_order() const { return producer_order_; }
  [[nodiscard]] const std::set<NodeId>& penalized() const { return penalized_; }
  [[nodiscard]] std::uint64_t era_switches() const { return era_switches_; }
  [[nodiscard]] Duration last_switch_duration() const { return last_switch_duration_; }
  [[nodiscard]] geo::GeoPoint location() const { return location_; }
  [[nodiscard]] const geo::ReputationLedger& reputation() const { return reputation_; }

  /// Moves the device (examples / mobility): subsequent reports carry the
  /// new position, so its geographic timer restarts on peers.
  void set_location(const geo::GeoPoint& location) { location_ = location; }

  /// Candidates aim their reports at this roster (normally maintained via
  /// the roster callback by the harness).
  void set_known_committee(std::vector<NodeId> committee);

  void set_roster_callback(RosterCallback cb) { roster_cb_ = std::move(cb); }

  /// Feeds fork evidence (conflicting header for a committed height); the
  /// producer is penalized and expelled at the next era switch (§III-B5).
  void report_fork(const ledger::ForkEvidence& evidence);

  /// Production-priority primary: follows the configuration-roster order
  /// (descending geographic timer) instead of plain round-robin.
  [[nodiscard]] NodeId primary_of(ViewId view) const override;

 protected:
  [[nodiscard]] EraId current_era() const override { return era_; }
  void on_executed(const ledger::Block& block) override;
  void handle_extra(const net::Envelope& envelope, BytesView body) override;
  void on_view_changed(ViewId previous, ViewId current) override;

 private:
  void arm_geo_timer();
  void send_geo_report();
  void arm_era_timer();
  void on_era_timer();
  void initiate_era_switch();
  void cancel_era_switch();
  void propose_config(const ledger::Transaction& tx, int attempt);
  void process_geo_report(NodeId from, const pbft::GeoReportMsg& msg);
  void apply_era_config(const ledger::EraConfig& config, Height config_height);
  void record_geo(NodeId device, geo::GeoCell cell, TimePoint at);
  void record_block_geo(const ledger::Block& block);
  /// Era-switch behaviour audit: missed-heartbeat strikes for silent
  /// members, Sybil-rate strikes for report floods (run by the lead; the
  /// resulting scores travel in the configuration block).
  void observe_committee_behaviour(TimePoint at, const ElectionParams& params);
  /// Exports `gpbft.reputation.*` gauges for every scored device.
  void publish_reputation_gauges(TimePoint at);

  GpbftConfig config_;
  Role role_;
  geo::GeoPoint location_;

  geo::ElectionTable table_;
  crypto::AddressCache addresses_;  // devices whose reports record_geo took
  SybilFilter filter_;
  geo::ReputationLedger reputation_;
  std::set<NodeId> penalized_;
  std::set<NodeId> known_candidates_;
  EnrolledCells enrolled_cells_;  // cell each member was elected at (from chain)
  std::vector<NodeId> producer_order_;  // roster in production-priority order
  std::vector<NodeId> known_committee_; // where candidates send reports

  EraId era_{0};
  bool switch_in_progress_{false};
  TimePoint switch_started_{};
  std::uint64_t era_switches_{0};
  Duration last_switch_duration_{};
  RequestId next_request_id_{1};

  RosterCallback roster_cb_;
};

}  // namespace gpbft::gpbft
