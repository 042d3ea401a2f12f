#include "pi/incremental_forecast.h"

#include <algorithm>
#include <utility>
#include <string>

#include "common/logging.h"
#include "obs/profiler.h"
#include "pi/batch_kernel.h"

namespace mqpi::pi {

namespace {

// Cancellation guard: past this offset the v - X subtraction has lost
// ~10 decimal digits against unit-scale ratios, so rebase. Crossing is
// deterministic in the operation history (reproducibility).
constexpr double kRenormThreshold = 1e6;

Status CheckLoad(QueryId id, WorkUnits cost, double weight) {
  if (weight <= 0.0) {
    return Status::InvalidArgument("query " + std::to_string(id) +
                                   " has non-positive weight");
  }
  if (cost < 0.0) {
    return Status::InvalidArgument("query " + std::to_string(id) +
                                   " has negative remaining cost");
  }
  return Status::OK();
}

Status NotActive(const char* what, QueryId id) {
  return Status::NotFound(std::string(what) + " " + std::to_string(id) +
                          " not active");
}

}  // namespace

std::size_t IncrementalForecast::Find(QueryId id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return kAbsent;
  return static_cast<std::size_t>(it - ids_.begin());
}

void IncrementalForecast::Clear() {
  ids_.clear();
  v_.clear();
  w_.clear();
  x_ = 0.0;
  dirty_ = true;
  rows_moved_ = true;
}

Status IncrementalForecast::Insert(QueryId id, WorkUnits cost,
                                   double weight) {
  if (Status bad = CheckLoad(id, cost, weight); !bad.ok()) return bad;
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it != ids_.end() && *it == id) {
    return Status::InvalidArgument("query " + std::to_string(id) +
                                   " already active");
  }
  const auto row = it - ids_.begin();
  ids_.insert(it, id);
  v_.insert(v_.begin() + row, x_ + cost / weight);
  w_.insert(w_.begin() + row, weight);
  dirty_ = true;
  rows_moved_ = true;
  return Status::OK();
}

Status IncrementalForecast::Remove(QueryId id) {
  const std::size_t row = Find(id);
  if (row == kAbsent) return NotActive("query", id);
  const auto offset = static_cast<std::ptrdiff_t>(row);
  ids_.erase(ids_.begin() + offset);
  v_.erase(v_.begin() + offset);
  w_.erase(w_.begin() + offset);
  if (ids_.empty()) x_ = 0.0;  // free exactness: rebase when drained
  dirty_ = true;
  rows_moved_ = true;
  return Status::OK();
}

Status IncrementalForecast::Update(QueryId id, WorkUnits cost,
                                   double weight) {
  if (Status bad = CheckLoad(id, cost, weight); !bad.ok()) return bad;
  const std::size_t row = Find(id);
  if (row == kAbsent) return NotActive("query", id);
  v_[row] = x_ + cost / weight;
  w_[row] = weight;
  dirty_ = true;
  return Status::OK();
}

void IncrementalForecast::Advance(double delta_x) {
  if (!MQPI_DCHECK(delta_x >= 0.0)) return;
  x_ += delta_x;
  if (ids_.empty()) {
    x_ = 0.0;
  } else if (x_ > kRenormThreshold) {
    // Rebasing can collapse distinct thresholds onto one double, which
    // reshuffles (v, id) ties — so the view is rebuilt, not patched.
    for (double& v : v_) v -= x_;
    x_ = 0.0;
    dirty_ = true;
  }
}

void IncrementalForecast::EnsureView() const {
  if (!dirty_) return;
  MQPI_PROF_SITE(prof, "pi.batch_regen");
  const std::size_t n = ids_.size();
  if (rows_moved_) {
    order_.resize(n);
    for (std::size_t row = 0; row < n; ++row) {
      order_[row].second = static_cast<std::uint32_t>(row);
    }
    rows_moved_ = false;
  }
  for (auto& [v, row] : order_) v = v_[row];
  // Rows are in id order, so (v, row) pairs sort by the (v, id) finish
  // order. Updates alone rarely reorder (a drift repair moves v by a
  // rounding error), so the last order is checked in O(n) first.
  if (!std::is_sorted(order_.begin(), order_.end())) {
    std::sort(order_.begin(), order_.end());
  }
  rank_.resize(n);
  sorted_v_.resize(n);
  prefix_w_.resize(n);
  prefix_vw_.resize(n);
  sorted_etas_.resize(n);
  etas_.resize(n);
  double sum_w = 0.0;
  double sum_vw = 0.0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::uint32_t row = order_[pos].second;
    rank_[row] = static_cast<std::uint32_t>(pos);
    sum_w += w_[row];
    sum_vw += v_[row] * w_[row];
    sorted_v_[pos] = v_[row];
    prefix_w_[pos] = sum_w;
    prefix_vw_[pos] = sum_vw;
  }
  dirty_ = false;
  ++regens_;
}

double IncrementalForecast::total_weight() const {
  EnsureView();
  return prefix_w_.empty() ? 0.0 : prefix_w_.back();
}

Result<WorkUnits> IncrementalForecast::CostOf(QueryId id) const {
  const std::size_t row = Find(id);
  if (row == kAbsent) return NotActive("query", id);
  return (v_[row] - x_) * w_[row];
}

Result<double> IncrementalForecast::WeightOf(QueryId id) const {
  const std::size_t row = Find(id);
  if (row == kAbsent) return NotActive("query", id);
  return w_[row];
}

Result<SimTime> IncrementalForecast::RemainingTime(QueryId id,
                                                   double rate) const {
  if (rate <= 0.0) {
    return Status::InvalidArgument("aggregate rate must be positive");
  }
  const std::size_t row = Find(id);
  if (row == kAbsent) return NotActive("query", id);
  EnsureView();
  const std::size_t pos = rank_[row];
  SimTime eta;
  detail::ResolveSweep()(&sorted_v_[pos], &prefix_w_[pos], &prefix_vw_[pos],
                         1, x_, prefix_w_.back(), 1.0 / rate, &eta);
  return eta;
}

SimTime IncrementalForecast::QuiescentTime(double rate) const {
  if (ids_.empty()) return 0.0;
  if (rate <= 0.0) return kInfiniteTime;
  EnsureView();
  return std::max(0.0, (prefix_vw_.back() - x_ * prefix_w_.back()) / rate);
}

Result<SimTime> IncrementalForecast::RemovalBenefit(QueryId target,
                                                    QueryId victim,
                                                    double rate) const {
  if (rate <= 0.0) {
    return Status::InvalidArgument("aggregate rate must be positive");
  }
  if (target == victim) {
    return Status::InvalidArgument("target cannot be its own victim");
  }
  const std::size_t t = Find(target);
  if (t == kAbsent) return NotActive("target", target);
  const std::size_t m = Find(victim);
  if (m == kAbsent) return NotActive("victim", victim);
  // Earlier-finishing victim shortens every stage up to its own finish
  // by its full cost; a later one shortens the target's stages by w_m
  // per unit of shared weight (the telescoped K = g_target / C). On a
  // threshold tie the two expressions coincide.
  if (v_[m] < v_[t] || (v_[m] == v_[t] && m < t)) {
    return std::max(0.0, (v_[m] - x_) * w_[m]) / rate;
  }
  return std::max(0.0, (v_[t] - x_)) * w_[m] / rate;
}

std::vector<QueryLoad> IncrementalForecast::Entries() const {
  EnsureView();
  std::vector<QueryLoad> out;
  out.reserve(order_.size());
  for (std::size_t pos = 0; pos < order_.size(); ++pos) {
    const std::uint32_t row = order_[pos].second;
    out.push_back(QueryLoad{ids_[row],
                            std::max(0.0, (sorted_v_[pos] - x_) * w_[row]),
                            w_[row]});
  }
  return out;
}

IncrementalForecast::Batch IncrementalForecast::EstimateAll(
    double rate) const {
  MQPI_PROF_SITE(prof, "pi.batch_estimate");
  if (!MQPI_DCHECK(rate > 0.0)) return Batch{};
  if (dirty_) {
    EnsureView();
  } else {
    ++hits_;
  }
  const std::size_t n = ids_.size();
  if (n == 0) return Batch{ids_.data(), etas_.data(), 0};
  detail::ResolveSweep()(sorted_v_.data(), prefix_w_.data(),
                         prefix_vw_.data(), n, x_, prefix_w_.back(),
                         1.0 / rate, sorted_etas_.data());
  for (std::size_t row = 0; row < n; ++row) {
    etas_[row] = sorted_etas_[rank_[row]];
  }
  return Batch{ids_.data(), etas_.data(), n};
}

}  // namespace mqpi::pi
