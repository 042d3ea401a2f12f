// IncrementalForecast: the paper's Section 2.2 stage decomposition
// maintained incrementally under a global virtual-time offset.
//
// Under weighted fair sharing every active query progresses equally per
// unit weight, so define virtual time X with dX/dt = C / W. A query
// inserted at offset X0 with remaining cost c and weight w finishes
// when X reaches v = X0 + c/w, independent of how the active set (and
// therefore W) changes afterwards. Normal execution progress is then a
// single O(1) offset bump — every query's remaining ratio g_i = v_i - X
// shrinks by the same delta, and the finish order never changes — while
// lifecycle events (arrival, finish, abort, reweight, cost
// re-estimate) are O(log n) insertions/removals in an order-statistic
// treap ranked by (v, id) with subtree aggregates over w and v*w.
//
// Per-query remaining time needs no event replay: with queries ordered
// by v, Abel-summing the stage formula t_i = (g_i - g_{i-1}) * W_i / C
// collapses the prefix sum r_i = t_1 + ... + t_i to the closed form
//
//     r_i = (1/C) * [ sum_{v_j <= v_i} c_j  +  g_i * sum_{v_j > v_i} w_j ]
//
// with c_j = (v_j - X) * w_j, answered in O(log n) from the treap's
// prefix aggregates. The system quiescent time (Section 3.3) is the
// O(1) total (sum v_j*w_j - X * sum w_j) / C, and the benefit of
// removing a victim on a target's remaining time (Section 3.1) is an
// O(log n) point query that is *exactly* additive across victims —
// removal never changes the survivors' thresholds v_j.
//
// Exactness contract: the engine computes the same values as
// StageProfile::Compute over the equivalent (cost, weight) set, up to
// floating-point rounding of the v = X + c/w round trip (relative
// error a few ULP; the chaos differential suite pins the tolerance).
// Callers must Remove a query before/when it finishes: Advance()ing X
// past a live entry's threshold would let its negative remainder bleed
// into other queries' prefix sums. The MultiQueryPi integration gets
// this for free from the Rdbms event stream. When |X| exceeds an
// internal threshold the engine renormalizes (rebases every v by -X,
// O(n log n), deterministic) so cancellation in v - X stays bounded.
//
// Determinism: treap priorities are a splitmix64 hash of the query id,
// so two engines fed the same operation sequence are structurally
// identical — no RNG state, reproducible across runs and processes.
//
// Thread-safety: none; externally synchronized like the rest of the PI
// stack (PiService serializes under its state lock).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "pi/stage_profile.h"

namespace mqpi::pi {

class IncrementalForecast {
 public:
  IncrementalForecast() = default;

  /// Removes every query and resets the virtual-time offset.
  void Clear();

  /// Adds a query with remaining cost `cost` (>= 0) and weight
  /// `weight` (> 0) as of the current offset. O(log n).
  /// InvalidArgument on bad values or a duplicate id.
  Status Insert(QueryId id, WorkUnits cost, double weight);

  /// Removes a query (finish, abort, block). O(log n). NotFound if
  /// the id is not present.
  Status Remove(QueryId id);

  /// Re-anchors a query's remaining cost and weight as of the current
  /// offset (priority change, cost re-estimate, drift repair).
  /// O(log n).
  Status Update(QueryId id, WorkUnits cost, double weight);

  /// Advances virtual time by `delta_x` >= 0 — one quantum of
  /// execution progress for the whole active set. O(1) (amortized:
  /// a rare renormalization pass is O(n log n)). Must not advance
  /// past the smallest live threshold (remove finishers first).
  void Advance(double delta_x);

  bool Contains(QueryId id) const { return slot_.count(id) != 0; }
  std::size_t size() const { return slot_.size(); }
  bool empty() const { return slot_.empty(); }

  /// Total weight W of the active set. O(1).
  double total_weight() const;

  /// Current remaining cost (v - X) * w, unclamped: negative once an
  /// Advance has run past the entry's threshold, which is how a caller
  /// detects (and re-anchors) a breach of the contract above. O(1).
  Result<WorkUnits> CostOf(QueryId id) const;

  Result<double> WeightOf(QueryId id) const;

  /// Closed-form remaining execution time of `id` at aggregate rate
  /// `rate`. O(log n).
  Result<SimTime> RemainingTime(QueryId id, double rate) const;

  /// When the last query finishes (0 if empty). O(1).
  SimTime QuiescentTime(double rate) const;

  /// Shortening of `target`'s remaining time if `victim` were removed
  /// from the active set: c_victim / C when the victim finishes no
  /// later than the target, g_target * w_victim / C otherwise (paper
  /// Section 3.1). Exactly additive across disjoint victims. O(1)
  /// beyond the id lookups.
  Result<SimTime> RemovalBenefit(QueryId target, QueryId victim,
                                 double rate) const;

  /// The active set in predicted finish order (ascending v, ties by
  /// id), with current clamped costs. O(n).
  std::vector<QueryLoad> Entries() const;

  /// Flat export of the active set in key order (ascending (v, id) —
  /// the finish order), writing `size()` entries into caller-provided
  /// arrays. `ids`/`v`/`w` may individually be null to skip that
  /// column. O(n), no allocation. This is the batch kernel's
  /// structure-of-arrays regeneration feed: `v` values are absolute
  /// thresholds, valid against offset() until the next structure
  /// version bump.
  void ExportSorted(QueryId* ids, double* v, double* w) const;

  /// Monotonic structure version: bumped by every mutation that
  /// changes membership, thresholds, weights, or the threshold basis
  /// (Insert/Remove/Update/Clear and the internal renormalization).
  /// Advance alone — pure progress — never bumps it, so a flat mirror
  /// keyed on this version stays valid across progress-only quanta
  /// and only the O(1) offset moves.
  std::uint64_t structure_version() const { return structure_version_; }

  /// The current virtual-time offset (diagnostics/tests).
  double offset() const { return x_; }

 private:
  struct Node {
    double v = 0.0;  // absolute finish threshold: X_insert + c/w
    double w = 0.0;
    QueryId id = kInvalidQueryId;
    std::uint64_t pri = 0;  // deterministic heap priority
    int left = -1;
    int right = -1;
    int count = 1;
    double sum_w = 0.0;   // subtree sum of w
    double sum_vw = 0.0;  // subtree sum of v * w
  };

  // (v, id) lexicographic key order == the paper's finish order with
  // the same id tie-break StageProfile uses.
  static bool KeyLess(double av, QueryId aid, double bv, QueryId bid) {
    if (av != bv) return av < bv;
    return aid < bid;
  }

  void Pull(int i);
  int Merge(int a, int b);
  /// Splits by key: `left` gets keys < (v, id), `right` the rest.
  void SplitLess(int root, double v, QueryId id, int* left, int* right);
  /// Splits by key: `left` gets keys <= (v, id), `right` the rest.
  void SplitLeq(int root, double v, QueryId id, int* left, int* right);
  int AllocNode(QueryId id, double v, double w);
  void FreeNode(int i);
  /// Inserts a node with an explicit absolute threshold (renorm path).
  void InsertNodeAt(QueryId id, double v, double w);
  /// Detaches `id`'s node from the tree and frees it; returns its
  /// (v, w). Caller guarantees presence.
  void Detach(QueryId id, double* v, double* w);
  /// Prefix aggregates over keys <= (v, id).
  void PrefixUpTo(double v, QueryId id, double* sum_w,
                  double* sum_vw) const;
  /// Rebases every threshold by -X and resets X to 0.
  void Renormalize();

  std::vector<Node> nodes_;
  std::vector<int> free_;
  std::unordered_map<QueryId, int> slot_;
  int root_ = -1;
  double x_ = 0.0;
  std::uint64_t structure_version_ = 0;
};

}  // namespace mqpi::pi
