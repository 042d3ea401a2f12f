// IncrementalForecast: the paper's Section 2.2 stage decomposition
// kept as one flat table under a global virtual-time offset.
//
// Under weighted fair sharing every active query progresses equally per
// unit weight, so define virtual time X with dX/dt = C / W. A query
// inserted at offset X0 with remaining cost c and weight w finishes
// when X reaches v = X0 + c/w, independent of how the active set (and
// therefore W) changes afterwards. Normal execution progress is then a
// single O(1) offset bump — every query's remaining ratio g_i = v_i - X
// shrinks by the same delta, and the finish order never changes.
//
// Per-query remaining time needs no event replay: with queries ordered
// by v, Abel-summing the stage formula t_i = (g_i - g_{i-1}) * W_i / C
// collapses the prefix sum r_i = t_1 + ... + t_i to the closed form
//
//     r_i = (1/C) * [ sum_{v_j <= v_i} c_j  +  g_i * sum_{v_j > v_i} w_j ]
//
// with c_j = (v_j - X) * w_j. The system quiescent time (Section 3.3)
// is the total (sum v_j*w_j - X * sum w_j) / C, and the benefit of
// removing a victim on a target's remaining time (Section 3.1) is a
// point query that is *exactly* additive across victims — removal
// never changes the survivors' thresholds v_j.
//
// Layout: id-ordered columns (id, v, w) hold the active set; a
// finish-ordered view — v, prefix sums of w and v*w in ascending
// (v, id) order, and each column row's rank in that order — answers
// every read. Costs:
//   * edits (Insert/Remove/Update) write the columns and mark the
//     view dirty. Finding a row is a binary search of the id column;
//     Remove, and an Insert below the largest id, shift the later rows
//     (an Insert is an append in the usual ascending-id case);
//   * progress (Advance) moves X only and leaves the view valid, O(1);
//   * the first read after any run of edits rebuilds the view once —
//     counted in regens(): an O(n) check that the last finish order
//     still holds, an O(n log n) sort only if it does not (membership
//     changed, or an update reordered thresholds), one O(n) prefix pass;
//   * reads on a current view: RemainingTime, CostOf, WeightOf and
//     RemovalBenefit are id lookups plus O(1) arithmetic,
//     QuiescentTime is O(1), Entries and EstimateAll are O(n).
// RemainingTime and EstimateAll run the same dispatched sweep
// (batch_kernel.h) over the same view, so a point query and its batch
// row are bit-identical.
//
// Exactness contract: the engine computes the same values as
// StageProfile::Compute over the equivalent (cost, weight) set, up to
// floating-point rounding of the v = X + c/w round trip (relative
// error a few ULP; the chaos differential suite pins the tolerance).
// Callers must Remove a query before/when it finishes: Advance()ing X
// past a live entry's threshold would let its negative remainder bleed
// into other queries' prefix sums. When X exceeds an internal
// threshold the engine renormalizes (subtracts X from every v, then
// rebuilds the view with the same (v, id) tie-break) so cancellation
// in v - X stays bounded.
//
// Thread-safety: none, reads included (they rebuild the view lazily);
// externally synchronized like the rest of the PI stack (PiService
// serializes under its state lock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "pi/stage_profile.h"

namespace mqpi::pi {

class IncrementalForecast {
 public:
  /// One EstimateAll result: parallel arrays sorted by ascending id.
  /// Valid until the next call on the engine — consume before
  /// releasing the external lock.
  struct Batch {
    const QueryId* ids = nullptr;
    const SimTime* etas = nullptr;
    std::size_t size = 0;
  };

  IncrementalForecast() = default;

  /// Removes every query and resets the virtual-time offset.
  void Clear();

  /// Adds a query with remaining cost `cost` (>= 0) and weight
  /// `weight` (> 0) as of the current offset. InvalidArgument on bad
  /// values or a duplicate id.
  Status Insert(QueryId id, WorkUnits cost, double weight);

  /// Removes a query (finish, abort, block). NotFound if the id is not
  /// present.
  Status Remove(QueryId id);

  /// Re-anchors a query's remaining cost and weight as of the current
  /// offset (priority change, cost re-estimate, drift repair).
  Status Update(QueryId id, WorkUnits cost, double weight);

  /// Advances virtual time by `delta_x` >= 0 — one quantum of
  /// execution progress for the whole active set. O(1) and the view
  /// stays valid, except for a rare renormalization. Must not advance
  /// past the smallest live threshold (remove finishers first).
  void Advance(double delta_x);

  bool Contains(QueryId id) const { return Find(id) != kAbsent; }
  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Total weight W of the active set.
  double total_weight() const;

  /// Current remaining cost (v - X) * w, unclamped: negative once an
  /// Advance has run past the entry's threshold, which is how a caller
  /// detects (and re-anchors) a breach of the contract above.
  Result<WorkUnits> CostOf(QueryId id) const;

  Result<double> WeightOf(QueryId id) const;

  /// Closed-form remaining execution time of `id` at aggregate rate
  /// `rate`: bit-identical to `id`'s EstimateAll row.
  Result<SimTime> RemainingTime(QueryId id, double rate) const;

  /// When the last query finishes (0 if empty).
  SimTime QuiescentTime(double rate) const;

  /// Shortening of `target`'s remaining time if `victim` were removed
  /// from the active set: c_victim / C when the victim finishes no
  /// later than the target, g_target * w_victim / C otherwise (paper
  /// Section 3.1). Exactly additive across disjoint victims. Reads the
  /// columns only, so it never rebuilds the view.
  Result<SimTime> RemovalBenefit(QueryId target, QueryId victim,
                                 double rate) const;

  /// The active set in predicted finish order (ascending v, ties by
  /// id), with current clamped costs.
  std::vector<QueryLoad> Entries() const;

  /// Remaining time of every query at aggregate rate `rate` (> 0) in
  /// one elementwise sweep over the view, gathered into id order.
  Batch EstimateAll(double rate) const;

  /// EstimateAll calls that found the view current, and view rebuilds
  /// (by any read). In the steady state hits grow once per snapshot
  /// and regens not at all.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t regens() const { return regens_; }

  /// The current virtual-time offset (diagnostics/tests).
  double offset() const { return x_; }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  /// Column row of `id`, or kAbsent.
  std::size_t Find(QueryId id) const;
  /// Rebuilds the finish-ordered view if an edit made it stale.
  void EnsureView() const;

  // Id-ordered columns.
  std::vector<QueryId> ids_;
  std::vector<double> v_;  // absolute finish threshold: X_insert + c/w
  std::vector<double> w_;
  double x_ = 0.0;

  // Finish-ordered view. Mutable: reads rebuild it lazily.
  mutable bool dirty_ = false;
  mutable bool rows_moved_ = false;  // Insert/Remove shifted the rows
  mutable std::vector<std::pair<double, std::uint32_t>> order_;  // (v, row)
  mutable std::vector<std::uint32_t> rank_;   // row -> finish position
  mutable std::vector<double> sorted_v_;
  mutable std::vector<double> prefix_w_;
  mutable std::vector<double> prefix_vw_;
  mutable std::vector<double> sorted_etas_;  // EstimateAll scratch
  mutable std::vector<double> etas_;         // EstimateAll, id order
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t regens_ = 0;
};

}  // namespace mqpi::pi
