#include "gpbft/endorser.hpp"

#include "obs/profiler.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace gpbft::gpbft {

namespace {
const ledger::EraConfig& genesis_config(const ledger::Block& genesis) {
  static const ledger::EraConfig kNone;
  for (const ledger::Transaction& tx : genesis.transactions) {
    if (tx.kind == ledger::TxKind::Config) return tx.era_config;
  }
  return kNone;
}

std::vector<NodeId> genesis_roster(const ledger::Block& genesis) {
  return genesis_config(genesis).endorsers;
}

EnrolledCells enrolled_from(const ledger::EraConfig& config) {
  EnrolledCells cells;
  for (std::size_t i = 0; i < config.endorsers.size() && i < config.cells.size(); ++i) {
    cells[config.endorsers[i]] = config.cells[i];
  }
  return cells;
}

/// Forged report copies a Sybil-burst attacker adds per period on top of
/// the honest one.
constexpr std::size_t kSybilFanout = 4;
}  // namespace

Endorser::Endorser(NodeId id, geo::GeoPoint location, GpbftConfig config, ledger::Block genesis,
                   net::Network& network, const crypto::KeyRegistry& keys,
                   const AreaRegistry* area)
    : Replica(id, genesis_roster(genesis), genesis, config.pbft, network, keys),
      config_(std::move(config)),
      location_(location),
      filter_(config_.genesis.area_prefix, area),
      reputation_(config_.genesis.reputation) {
  producer_order_ = genesis_roster(genesis);
  known_committee_ = producer_order_;
  enrolled_cells_ = enrolled_from(genesis_config(genesis));
  role_ = std::find(producer_order_.begin(), producer_order_.end(), id) != producer_order_.end()
              ? Role::Active
              : Role::Candidate;
}

void Endorser::start() {
  if (started()) return;
  Replica::start();
  // Stagger the first geo report per node id to avoid an artificial
  // thundering herd at t=0 (real devices report on independent clocks).
  schedule_protected(
      Duration{static_cast<std::int64_t>(id().value % 1000) * 1'000'000}, [this]() {
        if (!started()) return;
        send_geo_report();
        arm_geo_timer();
      });
  arm_era_timer();
}

void Endorser::set_known_committee(std::vector<NodeId> committee) {
  known_committee_ = std::move(committee);
}

NodeId Endorser::primary_of(ViewId view) const {
  if (producer_order_.empty()) return Replica::primary_of(view);
  return producer_order_[static_cast<std::size_t>(view % producer_order_.size())];
}

// --- geo reporting -----------------------------------------------------------

void Endorser::arm_geo_timer() {
  schedule_protected(config_.genesis.geo_report_period, [this]() {
    if (!started()) return;
    send_geo_report();
    arm_geo_timer();
  });
}

void Endorser::send_geo_report() {
  if (network().is_crashed(id())) return;
  // A Sybil-burst attacker floods forged copies of its own report each
  // period: every copy is truthful (same position, so the area-registry
  // check passes and the stationary timer holds) but the flood inflates
  // the device's election-table presence. The stock election cannot see
  // this; the reputation audit flags the rate anomaly at the era switch.
  const std::size_t copies =
      fault_mode() == pbft::FaultMode::SybilGeoReports ? 1 + kSybilFanout : 1;
  for (std::size_t copy = 0; copy < copies; ++copy) {
    telemetry().count("gpbft.geo_reports_sent", id());

    if (config_.geo_reports_on_chain) {
      // Full-fidelity mode: the report is a zero-fee transaction, so G(v, t)
      // is literally a chain lookup once it commits.
      geo::GeoReport report;
      report.point = location_;
      report.timestamp = now();
      const ledger::Transaction tx =
          ledger::make_geo_report_tx(id(), next_request_id_++, report);
      // The report must reach the primary to be ordered: broadcast it to the
      // committee like any client request (and enqueue locally when active).
      const std::vector<NodeId>& targets =
          role_ == Role::Active ? committee() : known_committee_;
      send_to_each(targets, pbft::ClientRequest{tx});
      if (role_ == Role::Active) accept_request(tx);
      continue;
    }

    pbft::GeoReportMsg msg;
    msg.device = id();
    msg.latitude = location_.latitude;
    msg.longitude = location_.longitude;
    msg.reported_at = now();

    const std::vector<NodeId>& targets =
        role_ == Role::Active ? committee() : known_committee_;
    send_to_each(targets, msg);
    // Record the self-report locally (an endorser supervises itself too).
    if (role_ == Role::Active) process_geo_report(id(), msg);
  }
}

void Endorser::process_geo_report(NodeId from, const pbft::GeoReportMsg& msg) {
  if (from != msg.device) return;  // relayed reports are not accepted
  const geo::GeoPoint point{msg.latitude, msg.longitude};
  if (!point.valid()) return;

  const geo::GeoCell cell = geo::GeoCell::of(point);
  const ReportVerdict verdict = filter_.check(msg.device, point, cell, msg.reported_at);
  if (verdict != ReportVerdict::Accepted) {
    log_debug(id().str() + ": rejected geo report from " + msg.device.str() + " (" +
              verdict_name(verdict) + ")");
    // A rejected claim is observed misbehaviour (untruthful location or a
    // duplicate-cell Sybil claim), not mere absence — strike the reporter.
    if (verdict == ReportVerdict::UntruthfulClaim || verdict == ReportVerdict::DuplicateLocation) {
      reputation_.record_fault_observation(msg.device, now());
    }
    return;
  }
  record_geo(msg.device, cell, msg.reported_at);

  const auto& roster = committee();
  if (std::find(roster.begin(), roster.end(), msg.device) == roster.end()) {
    known_candidates_.insert(msg.device);
  }
}

void Endorser::record_geo(NodeId device, geo::GeoCell cell, TimePoint at) {
  // A CSC's suffix depends only on its cell and the device's fixed address,
  // so a device that stays put reuses its latest entry's CSC: no SHA-256.
  const std::optional<geo::ElectionEntry> latest = table_.latest(device);
  const geo::Csc csc = latest && latest->csc.cell() == cell
                           ? latest->csc
                           : geo::Csc(cell, addresses_.of(device));
  table_.record(device, csc, at);
}

// --- era switches -------------------------------------------------------------

void Endorser::arm_era_timer() {
  schedule_protected(config_.genesis.era_period, [this]() {
    if (!started()) return;
    on_era_timer();
    arm_era_timer();
  });
}

void Endorser::on_era_timer() {
  if (network().is_crashed(id())) return;
  if (role_ != Role::Active || switch_in_progress_ || in_view_change()) return;
  // The current primary leads the switch (§III-E); if it is down, the view
  // change replaces it and the next timer firing is led by its successor.
  if (primary_of(view()) != id()) return;
  initiate_era_switch();
}

void Endorser::initiate_era_switch() {
  switch_in_progress_ = true;
  switch_started_ = now();
  set_halted(true);
  telemetry().count("gpbft.era_switches_initiated", id());
  telemetry().instant("era_switch.halt", "gpbft", id(),
                      {{"closing_era", std::to_string(era_)}});

  pbft::EraHaltMsg halt;
  halt.closing_era = era_;
  halt.sender = id();
  send_to_each(committee(), halt);

  // Let in-flight instances land, then elect and propose the new roster.
  schedule_protected(config_.halt_settle, [this, closing = era_]() {
    if (!started() || era_ != closing || !switch_in_progress_) return;

    ElectionParams params;
    params.window = config_.genesis.geo_window;
    params.min_reports = config_.genesis.min_geo_reports;
    params.promotion_threshold = config_.genesis.promotion_threshold;

    // Behaviour audit before the election: silent members and report
    // floods earn reputation strikes as of this switch.
    observe_committee_behaviour(now(), params);

    std::vector<NodeId> candidates(known_candidates_.begin(), known_candidates_.end());
    const ElectionOutcome outcome = run_geographic_authentication(
        table_, committee(), candidates, now(), params, &enrolled_cells_);
    telemetry().count("gpbft.elections", id());
    telemetry().instant("election", "gpbft", id(),
                        {{"era", std::to_string(era_)},
                         {"promoted", std::to_string(outcome.promoted.size())},
                         {"demoted", std::to_string(outcome.demoted.size())}});
    for (NodeId demoted : outcome.demoted) {
      log_info(id().str() + ": era " + std::to_string(era_) + " election demotes " +
               demoted.str() + " (reports in window: " +
               std::to_string(table_.reports_in_window(demoted, now(), params.window).size()) +
               ")");
    }
    for (NodeId promoted : outcome.promoted) {
      log_info(id().str() + ": era " + std::to_string(era_) + " election promotes " +
               promoted.str());
    }

    RosterInputs inputs;
    inputs.current = committee();
    inputs.outcome = outcome;
    inputs.penalized = penalized_;
    for (NodeId flagged : known_candidates_) {
      if (filter_.is_flagged(flagged)) inputs.sybil_flagged.insert(flagged);
    }
    for (NodeId member : committee()) {
      if (filter_.is_flagged(member)) inputs.sybil_flagged.insert(member);
    }
    for (NodeId candidate : candidates) {
      if (config_.genesis.policy.whitelisted(candidate)) {
        inputs.whitelisted_candidates.push_back(candidate);
      }
    }
    inputs.reputation = &reputation_;

    std::vector<NodeId> roster =
        build_roster(inputs, config_.genesis.policy, table_, now());

    // Compare as sets: if membership is unchanged there is nothing to
    // reconfigure — cancel the switch and resume (the production order is
    // refreshed only when membership changes, keeping switches meaningful).
    std::vector<NodeId> old_sorted = committee();
    std::vector<NodeId> new_sorted = roster;
    std::sort(new_sorted.begin(), new_sorted.end());
    if (new_sorted == old_sorted) {
      cancel_era_switch();
      return;
    }

    if (roster.size() < config_.genesis.policy.min_endorsers) {
      // Below the minimum the system must not continue (§III-C); keep the
      // old roster rather than committing an unsafe configuration.
      log_warn(id().str() + ": era switch aborted, roster below minimum");
      cancel_era_switch();
      return;
    }

    ledger::EraConfig next;
    next.era = era_ + 1;
    next.endorsers = std::move(roster);
    // Record each member's enrolled cell: elected members keep theirs, new
    // promotions enroll at the cell they qualified from.
    next.cells.reserve(next.endorsers.size());
    for (const NodeId member : next.endorsers) {
      if (const std::string* cell = enrolled_cells_.find(member)) {
        next.cells.push_back(*cell);
      } else if (const auto latest = table_.latest(member)) {
        next.cells.push_back(latest->csc.cell().str());
      } else {
        next.cells.push_back("");
      }
    }
    // With reputation enabled the configuration block carries the lead's
    // full score snapshot (not just the seated roster), so every endorser
    // — including one restarting from disk — rebuilds the same ledger.
    if (reputation_.params().enabled) {
      for (const auto& snap : reputation_.snapshot(now())) {
        next.scores.push_back(ledger::ReputationScore{snap.device, snap.score, snap.quarantined});
      }
    }

    geo::GeoReport self_geo;
    self_geo.point = location_;
    self_geo.timestamp = now();
    ledger::Transaction tx =
        ledger::make_config_tx(id(), next_request_id_++, std::move(next), self_geo);
    accept_request(tx);
    propose_config(tx, 0);
  });
}

void Endorser::propose_config(const ledger::Transaction& tx, int attempt) {
  if (!switch_in_progress_ || !started()) return;
  if (propose_batch({tx})) return;
  // An in-flight instance (proposed just before the halt) is still landing;
  // retry until it clears. Give up after ~20 attempts — the halt failsafe
  // then resumes normal operation and the next era period tries again.
  if (attempt >= 20) {
    log_warn(id().str() + ": could not propose configuration block; abandoning switch");
    cancel_era_switch();
    return;
  }
  schedule_protected(config_.halt_settle,
                     [this, tx, attempt]() { propose_config(tx, attempt + 1); });
}

void Endorser::cancel_era_switch() {
  // Every abort path must broadcast the unchanged-era launch, not just
  // unhalt locally: the lead's ERA-HALT already silenced the peers, and
  // without this message they would stay halted until the era_period/2
  // failsafe — long enough to miss the liveness deadline under load.
  switch_in_progress_ = false;
  set_halted(false);
  pbft::EraLaunchMsg launch;
  launch.config.era = era_;  // unchanged era: peers just unhalt
  launch.config.endorsers = producer_order_;
  launch.config_height = chain().height();
  launch.sender = id();
  send_to_each(committee(), launch);
}

void Endorser::record_block_geo(const ledger::Block& block) {
  // Record transaction geo trailers into the election table ("data uploaded
  // from IoT devices to blockchains will add an entry", §III-B3). Trailers
  // pass the same Sybil filter as direct reports — a committed transaction
  // proves its sender paid for inclusion, not that its location is genuine.
  for (const ledger::Transaction& tx : block.transactions) {
    if (tx.kind != ledger::TxKind::Normal) continue;
    if (!tx.geo.point.valid() || tx.geo.point == geo::GeoPoint{}) continue;
    const geo::GeoCell cell = geo::GeoCell::of(tx.geo.point);
    const ReportVerdict verdict =
        filter_.check(tx.sender, tx.geo.point, cell, tx.geo.timestamp);
    if (verdict != ReportVerdict::Accepted) continue;
    record_geo(tx.sender, cell, tx.geo.timestamp);
    // On-chain location reports are candidate applications (§III-D).
    if (ledger::is_geo_report_tx(tx)) {
      const auto& roster = committee();
      if (std::find(roster.begin(), roster.end(), tx.sender) == roster.end()) {
        known_candidates_.insert(tx.sender);
      }
    }
  }
}

void Endorser::on_executed(const ledger::Block& block) {
  record_block_geo(block);

  // Producing a block resets the producer's geographic timer (§III-B5)
  // and earns it a reputation reward — the positive signal that lets a
  // rehabilitated node decay back above the quarantine-exit threshold.
  table_.reset_timer(block.header.producer, now());
  reputation_.record_block_produced(block.header.producer, now());

  for (const ledger::Transaction& tx : block.transactions) {
    if (tx.kind != ledger::TxKind::Config) continue;
    apply_era_config(tx.era_config, block.header.height);
  }
}

void Endorser::apply_era_config(const ledger::EraConfig& config, Height config_height) {
  if (config.era <= era_) return;

  const bool was_lead = switch_in_progress_ && primary_of(view()) == id();
  const std::vector<NodeId> old_committee = committee();

  // Adopt the lead's score snapshot: the committed configuration block is
  // the authoritative reputation state, replacing local observations. A
  // node restoring its chain from disk replays the same blocks through
  // this path, so a restart rebuilds the exact pre-crash ledger.
  for (const ledger::ReputationScore& s : config.scores) {
    reputation_.restore(geo::ReputationLedger::Snapshot{s.device, s.score, s.quarantined}, now());
  }
  if (!config.scores.empty()) publish_reputation_gauges(now());

  era_ = config.era;
  producer_order_ = config.endorsers;
  known_committee_ = config.endorsers;
  enrolled_cells_ = enrolled_from(config);
  reconfigure_committee(config.endorsers);

  const bool member = std::find(config.endorsers.begin(), config.endorsers.end(), id()) !=
                      config.endorsers.end();
  role_ = member ? Role::Active : Role::Candidate;
  set_halted(false);

  for (NodeId m : config.endorsers) known_candidates_.erase(m);

  if (switch_started_ != TimePoint{}) {
    last_switch_duration_ = now() - switch_started_;
    // The halt-to-launch pause is the era-switch overhead Table IV measures.
    telemetry().observe("gpbft.era_switch_seconds", last_switch_duration_.to_seconds());
    telemetry().span(switch_started_, now(), id(), "era_switch", "gpbft",
                     {{"era", std::to_string(era_)}});
  }
  switch_in_progress_ = false;
  ++era_switches_;
  telemetry().count("gpbft.era_switches", id());
  telemetry().instant("era_switch.launch", "gpbft", id(),
                      {{"era", std::to_string(era_)},
                       {"endorsers", std::to_string(producer_order_.size())}});

  // The lead performs state transfer to members who were not in the old
  // committee (they have not followed the chain).
  if (was_lead) {
    std::vector<NodeId> newcomers;
    for (NodeId m : config.endorsers) {
      if (std::find(old_committee.begin(), old_committee.end(), m) == old_committee.end()) {
        newcomers.push_back(m);
      }
    }
    if (!newcomers.empty()) {
      pbft::EraLaunchMsg launch;
      launch.config = config;
      launch.config_height = config_height;
      launch.sender = id();
      for (Height h = 1; h <= chain().height(); ++h) launch.blocks.push_back(chain().at(h));
      send_to_each(newcomers, launch);
    }
  }

  if (roster_cb_) roster_cb_(era_, producer_order_);
  log_info(id().str() + ": entered era " + std::to_string(era_) + " with " +
           std::to_string(producer_order_.size()) + " endorsers");
}

// --- extra message handling -----------------------------------------------------

void Endorser::handle_extra(const net::Envelope& envelope, BytesView body) {
  GPBFT_PROFILE_SCOPE("gpbft.endorser.handle");
  switch (envelope.type) {
    case pbft::GeoReportMsg::kType: {
      auto m = decode_or_reject<pbft::GeoReportMsg>(body);
      if (!m) return;
      if (role_ != Role::Active) return;  // only endorsers keep election tables
      process_geo_report(envelope.from, *m);
      break;
    }
    case pbft::EraHaltMsg::kType: {
      auto m = decode_or_reject<pbft::EraHaltMsg>(body);
      if (!m) return;
      if (role_ != Role::Active) return;
      // Only the current lead may halt the committee, under its own seal.
      const NodeId lead = primary_of(this->view());
      if (envelope.from != lead || m->sender != lead || m->closing_era != era_) return;
      switch_in_progress_ = true;
      switch_started_ = now();
      set_halted(true);
      // Failsafe: if the lead dies mid-switch, resume after half a period.
      schedule_protected(config_.genesis.era_period / 2, [this, closing = era_]() {
        if (switch_in_progress_ && era_ == closing) {
          switch_in_progress_ = false;
          set_halted(false);
        }
      });
      break;
    }
    case pbft::EraLaunchMsg::kType: {
      auto m = decode_or_reject<pbft::EraLaunchMsg>(body);
      if (!m) return;
      const pbft::EraLaunchMsg& launch = *m;
      if (launch.config.era == era_) {
        // Cancelled switch: membership unchanged, just resume. Only the lead
        // that halted the committee may resume it, under its own seal, as
        // for ERA-HALT.
        const NodeId lead = primary_of(this->view());
        if (switch_in_progress_ && envelope.from == lead && launch.sender == lead) {
          switch_in_progress_ = false;
          set_halted(false);
        }
        return;
      }
      if (launch.config.era < era_) return;
      // A member learns a new roster only by executing its configuration
      // block: a launch from a later era tells it that it fell behind, so it
      // syncs from the sender. Only a node outside the committee (a
      // newcomer) takes a launch as state transfer.
      if (role_ == Role::Active) {
        request_sync_from(envelope.from);
        return;
      }
      // A newcomer: adopt the chain suffix (on_executed fires per adopted
      // block, which replays geo trailers into the election table and
      // applies any configuration transactions), then the era config.
      if (!launch.blocks.empty()) {
        if (auto adopted = adopt_chain_suffix(launch.blocks); !adopted) {
          log_warn(id().str() + ": state transfer failed: " + adopted.error());
          return;
        }
      }
      apply_era_config(launch.config, launch.config_height);
      break;
    }
    default:
      Replica::handle_extra(envelope, body);
      break;
  }
}

void Endorser::on_view_changed(ViewId previous, ViewId current) {
  // The primary of the abandoned view failed to drive a request to
  // execution: a "missed block". It loses endorsement and is expelled at
  // the next era switch (§III-B5).
  const NodeId missed = primary_of(previous);
  log_info(id().str() + ": view change " + std::to_string(previous) + " -> " +
           std::to_string(current) + " in era " + std::to_string(era_) + "; penalizing " +
           missed.str());
  if (missed != id()) penalized_.insert(missed);
  reputation_.record_view_change(missed, now());
  telemetry().count("gpbft.penalties_recorded", id());
  // A view change during a switch means the lead died; resume normal
  // operation under the new primary.
  if (switch_in_progress_) {
    switch_in_progress_ = false;
    set_halted(false);
  }
}

void Endorser::report_fork(const ledger::ForkEvidence& evidence) {
  penalized_.insert(evidence.producer);
  reputation_.record_fault_observation(evidence.producer, now());
  log_warn(id().str() + ": fork evidence against " + evidence.producer.str() + " at height " +
           std::to_string(evidence.height));
}

// --- reputation ---------------------------------------------------------------

void Endorser::observe_committee_behaviour(TimePoint at, const ElectionParams& params) {
  const std::int64_t period = config_.genesis.geo_report_period.ns;
  if (period <= 0) return;
  // Periodic reporting puts at most window/period + 1 honest reports in the
  // lookback window; a member far above that is flooding (Sybil burst),
  // one with none at all is silent (missed heartbeat).
  const std::size_t expected = static_cast<std::size_t>(params.window.ns / period) + 1;
  const std::size_t flood_floor = config_.genesis.sybil_rate_factor * expected;
  const auto audit = [&](NodeId device, bool seated) {
    const std::vector<geo::ElectionEntry> reports =
        table_.reports_in_window(device, at, params.window);
    // Flood copies carry the timestamp of the report they forge, so they
    // collide exactly; the network duplicates a delivery at most once, so an
    // honest report appears at most twice. Three or more copies of one
    // instant is proof of a sender-side flood even when the auditor saw only
    // a slice of the window (it was crashed, or links were lossy) and the
    // total count stays under the rate floor.
    std::size_t max_copies = 0;
    std::size_t run = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      run = (i > 0 && reports[i].timestamp.ns == reports[i - 1].timestamp.ns) ? run + 1 : 1;
      max_copies = std::max(max_copies, run);
    }
    if (seated && reports.empty()) {
      reputation_.record_missed_heartbeat(device, at);
      telemetry().count("gpbft.reputation.heartbeat_strikes", id());
      log_info(id().str() + ": missed-heartbeat strike against " + device.str());
    } else if (reports.size() > flood_floor || max_copies >= 3) {
      reputation_.record_sybil_anomaly(device, at);
      telemetry().count("gpbft.reputation.sybil_strikes", id());
      log_info(id().str() + ": sybil-rate strike against " + device.str() + " (" +
               std::to_string(reports.size()) + " reports in window, expected <= " +
               std::to_string(expected) + ", max copies of one instant " +
               std::to_string(max_copies) + ")");
    }
  };
  for (NodeId member : committee()) audit(member, /*seated=*/true);
  // Candidates are audited for floods only — absence is normal for them.
  for (NodeId candidate : known_candidates_) audit(candidate, /*seated=*/false);
}

void Endorser::publish_reputation_gauges(TimePoint at) {
  if (!telemetry().enabled()) return;
  for (const auto& snap : reputation_.snapshot(at)) {
    // Scores export in natural units (neutral = 1.0) plus the latch state.
    telemetry().metrics().gauge("gpbft.reputation.score", snap.device)
        .set(static_cast<double>(snap.score) / 1000.0);
    telemetry().metrics().gauge("gpbft.reputation.quarantined", snap.device)
        .set(snap.quarantined ? 1.0 : 0.0);
  }
}

}  // namespace gpbft::gpbft
