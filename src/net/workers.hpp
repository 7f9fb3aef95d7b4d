// Ordered worker-pool runner: parallel prologues, sequential epilogues.
//
// The discrete-event core is single-threaded by design — determinism is the
// repo's north star. The ordered runner is how CPU-heavy *pure* work (MAC
// seal/verify: a function of key material and message bytes only) escapes
// that single thread without perturbing the event stream, modeled on
// dsnet's ordered-runner design:
//
//   - submit() hands a Prologue to the pool and returns a monotonically
//     increasing ticket. Workers execute prologues concurrently, possibly
//     completing out of order. A prologue returns an Epilogue.
//   - release_until(ticket) runs epilogues strictly in submission order, on
//     the calling (simulation) thread, blocking on stragglers — so every
//     side effect a job publishes happens single-threaded, in an order
//     fixed by submission, never by worker scheduling.
//
// The tasks are tiny (an HMAC over a 64 B message is ~0.3 us on the SHA
// extensions, ~1–2 us on the portable SHA-256 kernel), so the
// implementation is sized for handoff cost, not fairness: a fixed
// power-of-two ring of cache-line-aligned slots, a single atomic claim
// cursor workers race on with CAS, and spin-then-park idling. No mutex or
// condition variable is touched on the steady-state submit/claim/release
// path — the lock only backs worker parking when the queue has been empty
// long enough to give up spinning. The releasing thread *help-steals*: if
// the next ticket in order has not been claimed by any worker, it runs the
// prologue itself instead of blocking, so release_until never parks and a
// starved pool degrades to inline execution rather than a stall.
//
// With `threads <= 1` the runner spawns no workers; submitted prologues
// simply stay queued until release_until help-steals them, which makes the
// single-threaded path the same code as the degraded-pool path: prologue
// and epilogue both run on the simulation thread, in ticket order.
//
// Ring capacity bounds the number of *unreleased* tickets. submit() on a
// full ring first releases the oldest tickets (it runs on the releasing
// thread, so this is safe) — callers that release before each handler, as
// the MAC plane does, never hit that path with fewer than kRingSize
// envelopes in flight.
//
// Deadlock note: prologues must never block on another *queued* prologue.
// The MAC plane obeys this by construction — its only cross-task contact is
// the lazy Payload cell, whose claim-or-compute-inline protocol (see
// net/message.hpp) only ever waits on a cell another thread is actively
// computing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gpbft::net {

class OrderedRunner {
 public:
  /// Runs on the releasing thread, in submission order.
  using Epilogue = std::function<void()>;
  /// Runs on a worker (or on the releasing thread when help-stolen);
  /// returns the epilogue (may be null).
  using Prologue = std::function<Epilogue()>;

  /// `threads` counts the whole simulation: one event-loop thread plus
  /// max(0, threads - 1) workers. threads <= 1 means no workers; prologues
  /// run on the releasing thread at release time.
  explicit OrderedRunner(std::size_t threads);
  /// Drains: waits for every submitted prologue, runs every unreleased
  /// epilogue (in order), then joins the workers. Safe with zero tasks.
  ~OrderedRunner();

  OrderedRunner(const OrderedRunner&) = delete;
  OrderedRunner& operator=(const OrderedRunner&) = delete;

  /// Enqueues a prologue; returns its ticket (1, 2, 3, ...). Must be called
  /// from the releasing thread only (the simulation thread).
  std::uint64_t submit(Prologue prologue);

  /// Runs every unreleased epilogue with ticket <= `ticket`, in submission
  /// order, on this thread; finishes unclaimed prologues itself and spins
  /// (never parks) on ones a worker is actively running.
  void release_until(std::uint64_t ticket);

  /// Releases everything submitted so far.
  void drain() { release_until(next_ticket_); }

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }
  [[nodiscard]] std::uint64_t submitted() const { return next_ticket_; }
  [[nodiscard]] std::uint64_t released() const { return released_; }
  /// Tickets whose prologue the releasing thread ran itself (help-steal).
  /// released() - stolen() = prologues that actually ran on a worker; the
  /// ratio is the pool's effective offload rate (bench diagnostics).
  [[nodiscard]] std::uint64_t stolen() const { return stolen_; }

 private:
  /// Unreleased-ticket capacity; power of two. 4096 slots x 128 B = 512 KiB.
  static constexpr std::size_t kRingSize = 4096;
  static constexpr std::uint64_t kRingMask = kRingSize - 1;
  /// Empty-queue spins before a worker parks on the condition variable.
  static constexpr int kIdleSpins = 2048;

  struct alignas(64) Slot {
    static constexpr int kEmpty = 0;   // reusable
    static constexpr int kQueued = 1;  // prologue published, unclaimed or running
    static constexpr int kDone = 2;    // epilogue stored, awaiting release

    std::atomic<int> state{kEmpty};
    Prologue run;
    Epilogue epilogue;
  };

  void worker_loop();

  std::vector<Slot> ring_;
  /// Highest ticket whose slot is fully published (submit thread writes).
  std::atomic<std::uint64_t> submitted_{0};
  /// Next ticket a worker (or the help-stealing releaser) may claim;
  /// advancing it by CAS *is* the claim.
  std::atomic<std::uint64_t> claim_{1};
  std::uint64_t next_ticket_{0};  // submit-thread local
  std::uint64_t released_{0};     // release-thread local (same thread)
  std::uint64_t stolen_{0};       // release-thread local
  std::atomic<bool> stopping_{false};

  // Parking only: untouched while workers are spinning or busy.
  std::mutex mu_;
  std::condition_variable task_cv_;
  std::atomic<int> sleepers_{0};

  std::vector<std::thread> workers_;
};

}  // namespace gpbft::net
