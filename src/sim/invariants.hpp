// Online invariant monitor for chaos runs.
//
// Hooks every watched replica's executed-block callback and checks, at the
// moment each block executes (not just at the end of a run):
//
//   AGREEMENT   no two honest replicas execute different blocks at the same
//               height (continuous prefix consistency);
//   VALIDITY    every committed client transaction was actually submitted;
//   DUPLICATE-EXECUTION
//               every transaction executes at one height only (the first
//               honest execution fixes it), and each node's executed
//               heights strictly rise;
//   ROSTER      every configuration block committed for an era carries the
//               same roster (and enrolled cells) on every endorser;
//   LIVENESS    progress resumes within a bounded grace period after all
//               injected faults heal (checked by the harness at run end).
//
// Violations are recorded with the simulated time and the most recent fault
// context (fed by FaultPlan's event hook), so a report reads as "what broke,
// when, and under which fault". Nodes currently under a Byzantine fault mode
// are excluded from the honest-agreement check while faulty.
#pragma once

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/flat_map.hpp"
#include "ledger/block.hpp"
#include "net/simulator.hpp"
#include "obs/telemetry.hpp"

namespace gpbft::pbft {
class Replica;
}

namespace gpbft::sim {

struct Violation {
  enum class Kind {
    Agreement,
    Validity,
    DuplicateExecution,
    RosterMismatch,
    Liveness,
    RestartConvergence,
    CommitteeQuality,  // a config block seats a device its own score
                       // snapshot marks quarantined
    SybilSeated,       // a config block seats a device currently flooding
                       // forged geo reports (fed by note_sybil)
    EraConvergence,    // an honest node applied an era's config later than
                       // the convergence bound after its first application
    RejectSafe,        // a tampered (Inject-mode, MACs on) run's chain tip
                       // diverged from the clean run at the same seed —
                       // some forged message must have been accepted
  };

  Kind kind{Kind::Agreement};
  TimePoint at;
  NodeId node;
  Height height{0};
  std::string detail;  // human-readable, includes the active fault context
};

[[nodiscard]] const char* violation_kind_name(Violation::Kind kind);

class InvariantMonitor {
 public:
  explicit InvariantMonitor(net::Simulator& sim) : sim_(sim) { bind_counters(); }

  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  /// Routes the monitor's tallies (blocks/transactions checked, violations)
  /// into `telemetry`'s registry — the single source of truth the exporters
  /// snapshot — and its violation events into the trace stream. Standalone
  /// monitors keep an owned fallback registry so the accessors always work;
  /// Deployment::watch rebinds to the deployment's telemetry. Tallies
  /// accumulated before rebinding are carried over.
  void set_telemetry(obs::Telemetry& telemetry);

  /// Hooks one replica's executed-block callback. The monitor must outlive
  /// the replica (or the replica must stop executing first). Deployments
  /// hook every node via Deployment::watch.
  void watch(pbft::Replica& replica);

  /// Registers a client submission; committed client transactions never
  /// registered are VALIDITY violations.
  void expect_submission(const ledger::Transaction& tx);

  /// Marks a node Byzantine (excluded from agreement while faulty).
  void set_faulty(NodeId id, bool faulty);
  /// Marks a node as currently flooding forged geo reports (SybilBurst
  /// chaos events toggle this). Such a node stays honest on the consensus
  /// plane, but a config block seating it while flagged is a SYBIL-SEATED
  /// violation — the committee-quality claim the reputation election makes.
  void note_sybil(NodeId id, bool active);
  /// SYBIL-SEATED fairness window: a config only violates when the seated
  /// device had been flooding for at least `grace` by the time the config
  /// first committed — a rate-anomaly audit cannot flag a flood that has
  /// not yet spanned its lookback window. Zero (default) is strict.
  void set_sybil_detection_grace(Duration grace) { sybil_grace_ = grace; }
  /// Arms the ERA-CONVERGENCE check: once the first honest node applies an
  /// era's configuration, every other honest application of that era must
  /// land within `bound`. Zero (the default) disables the check.
  void set_era_convergence_bound(Duration bound) { era_convergence_bound_ = bound; }
  /// Updates the fault context attached to subsequent violations.
  void note_fault(const std::string& description);

  /// The executed-block check; public so tests (and custom harnesses) can
  /// drive it directly. It reads the digests the block carries, and an
  /// honest node's height at or below its last executed one is a
  /// DUPLICATE-EXECUTION violation.
  void on_executed(NodeId node, const ledger::CheckedBlock& block);

  /// Fine-grained entry points for protocols without an execution hook
  /// (PoW replays its confirmed prefix through these at run end).
  /// AGREEMENT: the first honest node at a height fixes the canonical hash.
  void check_block_hash(NodeId node, Height height, const crypto::Hash256& hash);
  /// VALIDITY / DUPLICATE-EXECUTION / ROSTER checks for one transaction,
  /// whose digest is `digest`.
  void check_transaction(NodeId node, Height height, const ledger::Transaction& tx,
                         const crypto::Hash256& digest);

  /// LIVENESS: call once every injected fault has healed and the workload
  /// has had `grace` time to finish. Records a violation when commits are
  /// still missing.
  void check_bounded_liveness(std::uint64_t committed, std::uint64_t expected,
                              TimePoint healed_at, Duration grace);

  /// Restart bookkeeping: Deployment::restart_node calls this after
  /// rebuilding a node from disk with the height its restored chain
  /// resumed at. That height becomes the node's last executed height, so
  /// the height rule makes re-executing anything at or below it a
  /// DUPLICATE-EXECUTION violation (the restore already replayed those),
  /// while blocks above it — lost with the disk — are re-executed at the
  /// heights the transaction index already holds. The canonical height at
  /// restart time becomes the node's convergence target for
  /// check_restart_convergence.
  void note_restart(NodeId node, Height resumed_height);

  /// Post-restart convergence (run end, after finish_invariants): every
  /// restarted node must have re-reached the agreed prefix as of its
  /// restart. Records a RESTART-CONVERGENCE violation per laggard.
  void check_restart_convergence();

  [[nodiscard]] std::uint64_t restarts_observed() const { return restarts_.size(); }

  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  [[nodiscard]] bool clean() const { return violations_.empty(); }
  // Tallies live in the telemetry registry (metric family "invariant.*");
  // the accessors read the registry counters, not private shadow counts.
  [[nodiscard]] std::uint64_t blocks_checked() const { return blocks_counter_->value; }
  [[nodiscard]] std::uint64_t transactions_checked() const { return txs_counter_->value; }

  /// Deterministic text report (identical runs produce identical bytes).
  [[nodiscard]] std::string report() const;

 private:
  void record(Violation::Kind kind, NodeId node, Height height, std::string detail);
  void bind_counters();

  net::Simulator& sim_;
  obs::Telemetry own_telemetry_;  // fallback registry for standalone monitors
  obs::Telemetry* telemetry_{&own_telemetry_};
  obs::Counter* blocks_counter_{nullptr};
  obs::Counter* txs_counter_{nullptr};
  obs::Counter* violations_counter_{nullptr};

  /// One entry per transaction digest the run submitted or executed.
  struct TxRecord {
    bool submitted{false};  // expect_submission saw it
    Height height{0};       // first honest execution; 0 = none yet
  };

  std::map<Height, crypto::Hash256> canonical_;                // height -> agreed hash
  std::map<EraId, ledger::EraConfig> canonical_config_;        // era -> agreed roster
  FlatMap<crypto::Hash256, TxRecord> txs_;
  std::unordered_set<std::uint64_t> faulty_;
  std::map<std::uint64_t, TimePoint> sybil_;  // active flooders -> flood start
  Duration sybil_grace_{0};                  // see set_sybil_detection_grace
  Duration era_convergence_bound_{0};        // zero: check disabled
  std::map<EraId, TimePoint> era_first_applied_;  // era -> first honest apply

  struct RestartInfo {
    TimePoint at;
    Height resumed{0};  // height the restored chain resumed at
    Height target{0};   // canonical height at restart time; must be re-reached
  };
  std::map<std::uint64_t, RestartInfo> restarts_;  // latest restart per node
  std::map<std::uint64_t, Height> observed_height_;  // per-node last executed height

  std::string fault_context_ = "no faults injected yet";
  std::vector<Violation> violations_;
};

}  // namespace gpbft::sim
