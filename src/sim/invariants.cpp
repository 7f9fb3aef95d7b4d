#include "sim/invariants.hpp"

#include <algorithm>
#include <cstdio>

#include "pbft/replica.hpp"
#include "sim/deployment.hpp"

namespace gpbft::sim {

namespace {

std::string format_time(TimePoint at) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fs", at.to_seconds());
  return buf;
}

std::string roster_str(const std::vector<NodeId>& roster) {
  std::string out = "[";
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(roster[i].value);
  }
  return out + "]";
}

}  // namespace

const char* violation_kind_name(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::Agreement: return "AGREEMENT";
    case Violation::Kind::Validity: return "VALIDITY";
    case Violation::Kind::DuplicateExecution: return "DUPLICATE-EXECUTION";
    case Violation::Kind::RosterMismatch: return "ROSTER-MISMATCH";
    case Violation::Kind::Liveness: return "LIVENESS";
    case Violation::Kind::RestartConvergence: return "RESTART-CONVERGENCE";
    case Violation::Kind::CommitteeQuality: return "COMMITTEE-QUALITY";
    case Violation::Kind::SybilSeated: return "SYBIL-SEATED";
    case Violation::Kind::EraConvergence: return "ERA-CONVERGENCE";
    case Violation::Kind::RejectSafe: return "REJECT-SAFE";
  }
  return "UNKNOWN";
}

void InvariantMonitor::bind_counters() {
  obs::Registry& reg = telemetry_->metrics();
  blocks_counter_ = &reg.counter("invariant.blocks_checked");
  txs_counter_ = &reg.counter("invariant.txs_checked");
  violations_counter_ = &reg.counter("invariant.violations");
}

void InvariantMonitor::set_telemetry(obs::Telemetry& telemetry) {
  if (telemetry_ == &telemetry) return;
  const std::uint64_t blocks = blocks_counter_->value;
  const std::uint64_t txs = txs_counter_->value;
  const std::uint64_t violations = violations_counter_->value;
  telemetry_ = &telemetry;
  bind_counters();
  blocks_counter_->add(blocks);
  txs_counter_->add(txs);
  violations_counter_->add(violations);
}

void InvariantMonitor::watch(pbft::Replica& replica) {
  const NodeId id = replica.id();
  replica.set_executed_callback(
      [this, id](const ledger::CheckedBlock& block) { on_executed(id, block); });
}

void InvariantMonitor::expect_submission(const ledger::Transaction& tx) {
  txs_[tx.digest()].submitted = true;
}

void InvariantMonitor::set_faulty(NodeId id, bool faulty) {
  if (faulty) {
    faulty_.insert(id.value);
  } else {
    faulty_.erase(id.value);
  }
}

void InvariantMonitor::note_sybil(NodeId id, bool active) {
  if (active) {
    sybil_.emplace(id.value, sim_.now());  // keep the original flood start
  } else {
    sybil_.erase(id.value);
  }
}

void InvariantMonitor::note_fault(const std::string& description) {
  fault_context_ = description;
}

void InvariantMonitor::on_executed(NodeId node, const ledger::CheckedBlock& block) {
  const Height height = block.header().height;
  // DUPLICATE-EXECUTION by height: an honest node's executed heights
  // strictly rise. After a restart the last height is the restored one
  // (note_restart), because the restore replays persisted blocks before
  // the monitor re-watches the node. (check_block_hash is exempt: PoW
  // replays whole chains through it at run end.)
  if (const auto it = observed_height_.find(node.value);
      it != observed_height_.end() && !faulty_.contains(node.value) && height <= it->second) {
    record(Violation::Kind::DuplicateExecution, node, height,
           "re-executed height " + std::to_string(height) + " at or below its last height " +
               std::to_string(it->second));
  }
  check_block_hash(node, height, block.block().hash());
  for (std::size_t i = 0; i < block.transactions().size(); ++i) {
    check_transaction(node, height, block.transactions()[i], block.digests()[i]);
  }
}

void InvariantMonitor::check_block_hash(NodeId node, Height height, const crypto::Hash256& hash) {
  // A Byzantine node may execute anything; only honest replicas are held to
  // the invariants.
  if (faulty_.contains(node.value)) return;
  blocks_counter_->add();

  // AGREEMENT: first honest executor of a height fixes the canonical block.
  const auto [it, inserted] = canonical_.emplace(height, hash);
  if (!inserted && it->second != hash) {
    record(Violation::Kind::Agreement, node, height,
           "executed " + hash.short_hex() + " but canonical is " + it->second.short_hex());
  }

  auto& observed = observed_height_[node.value];
  observed = std::max(observed, height);
}

void InvariantMonitor::check_transaction(NodeId node, Height height,
                                         const ledger::Transaction& tx,
                                         const crypto::Hash256& digest) {
  if (faulty_.contains(node.value)) return;
  txs_counter_->add();

  // VALIDITY: client-submitted transactions must come from the registered
  // workload (protocol-generated geo/config transactions are endorser-sent
  // and exempt).
  TxRecord& entry = txs_[digest];
  if (tx.sender.value > kClientIdBase && !entry.submitted) {
    record(Violation::Kind::Validity, node, height,
           "committed unsubmitted tx " + digest.short_hex() + " from " + tx.sender.str());
  }
  // DUPLICATE-EXECUTION by transaction: the first honest execution fixes
  // the transaction's height, as the first executor of a height fixes its
  // block. A block never repeats a digest, so the height names the slot.
  if (entry.height == 0) {
    entry.height = height;
  } else if (entry.height != height) {
    record(Violation::Kind::DuplicateExecution, node, height,
           "tx " + digest.short_hex() + " executed twice, first at height " +
               std::to_string(entry.height));
  }

  // ROSTER: every endorser must commit the same configuration for an era.
  if (tx.kind == ledger::TxKind::Config) {
    const auto [config_it, first] = canonical_config_.emplace(tx.era_config.era, tx.era_config);
    if (!first && !(config_it->second == tx.era_config)) {
      record(Violation::Kind::RosterMismatch, node, height,
             "era " + std::to_string(tx.era_config.era) + " roster " +
                 roster_str(tx.era_config.endorsers) + " but canonical is " +
                 roster_str(config_it->second.endorsers));
    }

    // The two committee-quality checks judge the *election*, so they run
    // once per era — on its first (canonical) application, not when slow
    // or restarted nodes replay the same config block later.
    if (first) {
      // COMMITTEE-QUALITY: the configuration must not contradict itself —
      // a device its own score snapshot marks quarantined may not be
      // seated. Vacuous when the reputation election is off (no scores).
      for (const ledger::ReputationScore& score : tx.era_config.scores) {
        if (!score.quarantined) continue;
        if (std::find(tx.era_config.endorsers.begin(), tx.era_config.endorsers.end(),
                      score.device) != tx.era_config.endorsers.end()) {
          record(Violation::Kind::CommitteeQuality, node, height,
                 "era " + std::to_string(tx.era_config.era) + " seats quarantined device " +
                     score.device.str() + " (score " + std::to_string(score.score) + ")");
        }
      }

      // SYBIL-SEATED: no device that has been flooding forged geo reports
      // for at least the detection grace may be seated (fed by SybilBurst
      // chaos events; a flood younger than the audit window is exempt).
      for (NodeId member : tx.era_config.endorsers) {
        const auto sybil_it = sybil_.find(member.value);
        if (sybil_it == sybil_.end()) continue;
        if (sim_.now() - sybil_it->second < sybil_grace_) continue;
        record(Violation::Kind::SybilSeated, node, height,
               "era " + std::to_string(tx.era_config.era) + " seats active Sybil flooder " +
                   member.str() + " (flooding since " + format_time(sybil_it->second) + ")");
      }
    }

    // ERA-CONVERGENCE: the first honest application of an era's config
    // starts the clock; every other honest application must land within the
    // bound (era switches must not leave the committee split for long).
    if (era_convergence_bound_.ns > 0) {
      const auto [era_it, first_apply] =
          era_first_applied_.emplace(tx.era_config.era, sim_.now());
      if (!first_apply && sim_.now() - era_it->second > era_convergence_bound_) {
        record(Violation::Kind::EraConvergence, node, height,
               "era " + std::to_string(tx.era_config.era) + " applied " +
                   format_time(sim_.now()) + ", " +
                   format_time(TimePoint{(sim_.now() - era_it->second).ns}) +
                   " after the first application at " + format_time(era_it->second) +
                   " (bound " + format_time(TimePoint{era_convergence_bound_.ns}) + ")");
      }
    }
  }
}

void InvariantMonitor::check_bounded_liveness(std::uint64_t committed, std::uint64_t expected,
                                              TimePoint healed_at, Duration grace) {
  if (committed >= expected) return;
  record(Violation::Kind::Liveness, NodeId{0}, 0,
         std::to_string(committed) + "/" + std::to_string(expected) +
             " committed; no full recovery within " + format_time(TimePoint{grace.ns}) +
             " after faults healed at " + format_time(healed_at));
}

void InvariantMonitor::note_restart(NodeId node, Height resumed_height) {
  Height target = 0;
  if (!canonical_.empty()) target = canonical_.rbegin()->first;
  restarts_[node.value] = RestartInfo{sim_.now(), resumed_height, target};
  observed_height_[node.value] = resumed_height;
}

void InvariantMonitor::check_restart_convergence() {
  for (const auto& [node, info] : restarts_) {
    const Height reached = observed_height_[node];
    if (reached >= info.target) continue;
    record(Violation::Kind::RestartConvergence, NodeId{node}, reached,
           "restarted at " + format_time(info.at) + " with height " +
               std::to_string(info.resumed) + " but only re-reached " +
               std::to_string(reached) + " of the agreed prefix " +
               std::to_string(info.target));
  }
}

void InvariantMonitor::record(Violation::Kind kind, NodeId node, Height height,
                              std::string detail) {
  detail += " (last fault: " + fault_context_ + ")";
  violations_counter_->add();
  // Verdicts land in the same trace stream as protocol phases and chaos
  // injections, so a violation shows up next to what caused it.
  telemetry_->instant("invariant.violation", "invariant", node,
                      {{"kind", violation_kind_name(kind)}, {"detail", detail}});
  violations_.push_back(Violation{kind, sim_.now(), node, height, std::move(detail)});
}

std::string InvariantMonitor::report() const {
  std::string out = "checked " + std::to_string(blocks_checked()) + " block executions, " +
                    std::to_string(transactions_checked()) + " transactions; " +
                    std::to_string(violations_.size()) + " violation(s)\n";
  for (const Violation& violation : violations_) {
    out += "  [t=" + format_time(violation.at) + "] " +
           violation_kind_name(violation.kind) + " node=" +
           std::to_string(violation.node.value) + " height=" +
           std::to_string(violation.height) + ": " + violation.detail + "\n";
  }
  return out;
}

}  // namespace gpbft::sim
