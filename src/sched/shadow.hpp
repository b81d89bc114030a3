// Incremental shadow schedule: the persistent, repairable form of the
// paper's forward simulation (sched/forward_sim.hpp).
//
// forward_simulate() answers one wait-time query by copying the whole
// scheduler state, re-estimating every job and replaying the policy —
// O(jobs in system) per query even when nothing changed since the last
// one.  A ShadowSchedule instead *owns* a long-lived mirror of the
// scheduler state plus the booking structures the single-pass schedules
// use (booking order, availability profile, reservation list) and repairs
// them event by event:
//
//   * between events a query is answered from an existing booking (O(1))
//     or by lazily booking forward to the queried position only;
//   * a SUBMIT or CANCEL at an unchanged clock repairs the affected
//     suffix of bookings in place: reservations from the first changed
//     booking position are released (AvailabilityProfile::release is the
//     exact inverse of reserve on integer capacities) and rebooked
//     lazily;
//   * events that change the clock, the running set, the capacity or the
//     predictor rebuild the base.  This is required for bit-identity, not
//     laziness: running-job reservations span [now, now + remaining(now))
//     and predictor refreshes depend on job age, so both move in float
//     ulps whenever the clock moves, and no suffix of the old bookings is
//     guaranteed to survive.
//
// Contract: at every query, predicted_start(now, id) is bit-identical to
//   predict_start_time(S, policy, now, id)
// where S is a fresh copy of the live state with reestimate_all applied —
// the paper's recompute-per-query method, which the tests keep as their
// oracle.  The booking arithmetic is shared with forward_simulate
// (booking_order / profile_from_running / book_reservation), so the two
// cannot drift.  This is the only production wait engine: the online
// session repairs one across its event stream, and WaitTimeObserver
// resets one from the live state at every submission.
//
// EASY backfill is the documented fallback: its backfill choices depend on
// the whole event-by-event replay, so there is no static booking list to
// repair.  For EASY the shadow runs one full forward_simulate per changed
// state and caches every start it produced, which still collapses a burst
// of queries between events into one replay.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sched/estimator.hpp"
#include "sched/policy.hpp"
#include "sched/profile.hpp"
#include "sched/state.hpp"

namespace rtp {

/// Overwrite every job's `estimate` in `state` with `predictor`'s current
/// prediction: queued jobs at age 0, running jobs at their age relative to
/// `now` — "a wait-time prediction requires run-time predictions of all
/// applications in the system".  Shared by the shadow schedule and the
/// site selector so the estimate paths cannot drift.
void reestimate_all(SystemState& state, RuntimeEstimator& predictor, Seconds now);

/// Repair-vs-rebuild accounting, surfaced through the service's STATS verb.
struct ShadowCounters {
  std::uint64_t rebuilds = 0;      ///< base profile + booking order rebuilt
  std::uint64_t repairs = 0;       ///< suffix repaired in place across an event
  std::uint64_t bookings = 0;      ///< reservations booked (first time or rebooked)
  std::uint64_t reused = 0;        ///< queries answered from an existing booking
  std::uint64_t easy_replays = 0;  ///< EASY fallback full replays
};

class ShadowSchedule {
 public:
  /// `policy` and `predictor` are not owned and must outlive the schedule.
  ShadowSchedule(int machine_nodes, const SchedulerPolicy& policy,
                 RuntimeEstimator& predictor);

  // --- Event hooks: mirror the live state's mutations 1:1. ----------------
  // The caller (OnlineSession) invokes exactly one hook per applied event,
  // after validating it; the mirror applies the same SystemState mutation,
  // so mirror and live state stay structurally identical.

  void on_submit(const Job& job, Seconds now);
  void on_start(JobId id, Seconds now);
  void on_finish(JobId id);
  void on_cancel(JobId id, Seconds now);
  void on_fail(JobId id, Seconds now);
  void on_node_down(int nodes);
  void on_node_up(int nodes);

  /// Resynchronize from an authoritative live state (snapshot restore,
  /// journal recovery, follower promotion).  Estimates are refreshed at the
  /// next query.
  void reset(const SystemState& live);

  // --- Queries (do not mutate the live system). ---------------------------

  /// Predicted start time of queued job `id` at session time `now`;
  /// bit-identical to predict_start_time over a fresh refreshed snapshot.
  Seconds predicted_start(Seconds now, JobId id);

  /// The mirror with every estimate refreshed at `now` — field-for-field a
  /// fresh copy of the live state with reestimate_all applied.  The
  /// interval predictor's scaled replays run over it.
  const SystemState& refreshed_state(Seconds now);

  const ShadowCounters& counters() const { return counters_; }

  /// Breakpoints currently held by the base profile (0 before the first
  /// build) — compaction diagnostics for tests.
  std::size_t profile_breakpoints() const {
    return profile_.has_value() ? profile_->breakpoints() : 0;
  }

 private:
  struct Booking {
    Seconds start = 0.0;     ///< kTimeInfinity => nothing was reserved
    Seconds duration = 0.0;
    int nodes = 0;
    Seconds prev_not_before = 0.0;  ///< not_before_ before this booking
  };

  /// Refresh the mirror's estimates when the clock moved or the predictor
  /// learned; both invalidate every booking.
  void ensure_estimates(Seconds now);
  /// Rebuild the base profile + booking order unless still valid at `now`.
  void ensure_base(Seconds now);
  /// Book order positions [booked_.size(), position] lazily.
  void book_to(std::size_t position);
  /// Un-book positions [position, booked_.size()) — exact inverse.
  void release_from(std::size_t position);
  /// Drop every derived structure (bookings and the EASY start cache).
  void invalidate();
  /// True when the booking structures can be repaired across an event at
  /// `now` instead of rebuilt: the base exists, the clock bits are
  /// unchanged, and the profile has not accumulated too much breakpoint
  /// garbage from earlier release/rebook cycles.
  bool repairable(Seconds now) const;
  /// Rewrite order_pos_ for order positions >= first.
  void reindex_positions(std::size_t first);

  const SchedulerPolicy& policy_;
  RuntimeEstimator& predictor_;
  SystemState mirror_;

  // Estimate freshness: mirror estimates are those of reestimate_all at
  // est_now_ with the predictor's current model.
  bool estimates_valid_ = false;
  Seconds est_now_ = 0.0;
  bool predictor_dirty_ = false;

  // Single-pass booking structures (never valid for EASY).
  bool base_valid_ = false;
  Seconds base_now_ = 0.0;
  std::optional<AvailabilityProfile> profile_;
  std::vector<std::size_t> order_;  ///< queue positions in booking order
  std::unordered_map<JobId, std::size_t> order_pos_;
  std::vector<Booking> booked_;     ///< booked prefix of order_
  Seconds not_before_ = 0.0;

  // EASY fallback: every start from one full replay of the current state.
  bool easy_valid_ = false;
  std::unordered_map<JobId, Seconds> easy_starts_;

  ShadowCounters counters_;
};

}  // namespace rtp
