#include "pi/incremental_forecast.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace mqpi::pi {

namespace {

// Cancellation guard: past this offset the v - X subtraction has lost
// ~10 decimal digits against unit-scale ratios, so rebase. Crossing is
// deterministic in the operation history (reproducibility).
constexpr double kRenormThreshold = 1e6;

// splitmix64: deterministic, well-mixed treap priority per query id.
std::uint64_t MixId(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void IncrementalForecast::Clear() {
  nodes_.clear();
  free_.clear();
  slot_.clear();
  root_ = -1;
  x_ = 0.0;
  ++structure_version_;
}

void IncrementalForecast::Pull(int i) {
  Node& n = nodes_[static_cast<std::size_t>(i)];
  n.count = 1;
  n.sum_w = n.w;
  n.sum_vw = n.v * n.w;
  if (n.left >= 0) {
    const Node& l = nodes_[static_cast<std::size_t>(n.left)];
    n.count += l.count;
    n.sum_w += l.sum_w;
    n.sum_vw += l.sum_vw;
  }
  if (n.right >= 0) {
    const Node& r = nodes_[static_cast<std::size_t>(n.right)];
    n.count += r.count;
    n.sum_w += r.sum_w;
    n.sum_vw += r.sum_vw;
  }
}

int IncrementalForecast::Merge(int a, int b) {
  if (a < 0) return b;
  if (b < 0) return a;
  if (nodes_[static_cast<std::size_t>(a)].pri >
      nodes_[static_cast<std::size_t>(b)].pri) {
    nodes_[static_cast<std::size_t>(a)].right =
        Merge(nodes_[static_cast<std::size_t>(a)].right, b);
    Pull(a);
    return a;
  }
  nodes_[static_cast<std::size_t>(b)].left =
      Merge(a, nodes_[static_cast<std::size_t>(b)].left);
  Pull(b);
  return b;
}

void IncrementalForecast::SplitLess(int root, double v, QueryId id,
                                    int* left, int* right) {
  if (root < 0) {
    *left = -1;
    *right = -1;
    return;
  }
  Node& n = nodes_[static_cast<std::size_t>(root)];
  if (KeyLess(n.v, n.id, v, id)) {
    SplitLess(n.right, v, id, &n.right, right);
    *left = root;
  } else {
    SplitLess(n.left, v, id, left, &n.left);
    *right = root;
  }
  Pull(root);
}

void IncrementalForecast::SplitLeq(int root, double v, QueryId id,
                                   int* left, int* right) {
  if (root < 0) {
    *left = -1;
    *right = -1;
    return;
  }
  Node& n = nodes_[static_cast<std::size_t>(root)];
  if (!KeyLess(v, id, n.v, n.id)) {  // n <= key
    SplitLeq(n.right, v, id, &n.right, right);
    *left = root;
  } else {
    SplitLeq(n.left, v, id, left, &n.left);
    *right = root;
  }
  Pull(root);
}

int IncrementalForecast::AllocNode(QueryId id, double v, double w) {
  int i;
  if (!free_.empty()) {
    i = free_.back();
    free_.pop_back();
  } else {
    i = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& n = nodes_[static_cast<std::size_t>(i)];
  n.v = v;
  n.w = w;
  n.id = id;
  n.pri = MixId(id);
  n.left = -1;
  n.right = -1;
  Pull(i);
  return i;
}

void IncrementalForecast::FreeNode(int i) { free_.push_back(i); }

void IncrementalForecast::InsertNodeAt(QueryId id, double v, double w) {
  const int node = AllocNode(id, v, w);
  slot_[id] = node;
  int left = -1;
  int right = -1;
  SplitLess(root_, v, id, &left, &right);
  root_ = Merge(Merge(left, node), right);
}

Status IncrementalForecast::Insert(QueryId id, WorkUnits cost,
                                   double weight) {
  if (weight <= 0.0) {
    return Status::InvalidArgument("query " + std::to_string(id) +
                                   " has non-positive weight");
  }
  if (cost < 0.0) {
    return Status::InvalidArgument("query " + std::to_string(id) +
                                   " has negative remaining cost");
  }
  if (slot_.count(id) != 0) {
    return Status::InvalidArgument("query " + std::to_string(id) +
                                   " already active");
  }
  InsertNodeAt(id, x_ + cost / weight, weight);
  ++structure_version_;
  return Status::OK();
}

void IncrementalForecast::Detach(QueryId id, double* v, double* w) {
  auto it = slot_.find(id);
  const Node& n = nodes_[static_cast<std::size_t>(it->second)];
  *v = n.v;
  *w = n.w;
  int left = -1;
  int mid = -1;
  int right = -1;
  SplitLess(root_, *v, id, &left, &mid);
  SplitLeq(mid, *v, id, &mid, &right);
  // `mid` is exactly the node with key (v, id).
  FreeNode(mid);
  slot_.erase(it);
  root_ = Merge(left, right);
}

Status IncrementalForecast::Remove(QueryId id) {
  if (slot_.count(id) == 0) {
    return Status::NotFound("query " + std::to_string(id) +
                            " not active");
  }
  double v;
  double w;
  Detach(id, &v, &w);
  if (slot_.empty()) x_ = 0.0;  // free exactness: rebase when drained
  ++structure_version_;
  return Status::OK();
}

Status IncrementalForecast::Update(QueryId id, WorkUnits cost,
                                   double weight) {
  if (weight <= 0.0) {
    return Status::InvalidArgument("query " + std::to_string(id) +
                                   " has non-positive weight");
  }
  if (cost < 0.0) {
    return Status::InvalidArgument("query " + std::to_string(id) +
                                   " has negative remaining cost");
  }
  if (slot_.count(id) == 0) {
    return Status::NotFound("query " + std::to_string(id) +
                            " not active");
  }
  double v;
  double w;
  Detach(id, &v, &w);
  InsertNodeAt(id, x_ + cost / weight, weight);
  ++structure_version_;
  return Status::OK();
}

void IncrementalForecast::Advance(double delta_x) {
  if (!MQPI_DCHECK(delta_x >= 0.0)) return;
  x_ += delta_x;
  if (x_ > kRenormThreshold && !slot_.empty()) Renormalize();
  if (slot_.empty()) x_ = 0.0;
}

void IncrementalForecast::Renormalize() {
  // Rebasing can collapse distinct thresholds onto one double, which
  // reshuffles (v, id) ties — so rebuild rather than patch in place.
  struct Saved {
    QueryId id;
    double v;
    double w;
  };
  std::vector<Saved> saved;
  saved.reserve(slot_.size());
  for (const auto& [id, index] : slot_) {
    const Node& n = nodes_[static_cast<std::size_t>(index)];
    saved.push_back(Saved{id, n.v - x_, n.w});
  }
  nodes_.clear();
  free_.clear();
  slot_.clear();
  root_ = -1;
  x_ = 0.0;
  for (const Saved& s : saved) InsertNodeAt(s.id, s.v, s.w);
  // The threshold basis moved: flat mirrors of the absolute v's are
  // stale even though the modelled load is unchanged.
  ++structure_version_;
}

double IncrementalForecast::total_weight() const {
  return root_ < 0 ? 0.0
                   : nodes_[static_cast<std::size_t>(root_)].sum_w;
}

Result<WorkUnits> IncrementalForecast::CostOf(QueryId id) const {
  auto it = slot_.find(id);
  if (it == slot_.end()) {
    return Status::NotFound("query " + std::to_string(id) +
                            " not active");
  }
  const Node& n = nodes_[static_cast<std::size_t>(it->second)];
  return (n.v - x_) * n.w;
}

Result<double> IncrementalForecast::WeightOf(QueryId id) const {
  auto it = slot_.find(id);
  if (it == slot_.end()) {
    return Status::NotFound("query " + std::to_string(id) +
                            " not active");
  }
  return nodes_[static_cast<std::size_t>(it->second)].w;
}

void IncrementalForecast::PrefixUpTo(double v, QueryId id, double* sum_w,
                                     double* sum_vw) const {
  double sw = 0.0;
  double svw = 0.0;
  int cur = root_;
  while (cur >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    if (!KeyLess(v, id, n.v, n.id)) {  // n <= key: take left + node
      if (n.left >= 0) {
        const Node& l = nodes_[static_cast<std::size_t>(n.left)];
        sw += l.sum_w;
        svw += l.sum_vw;
      }
      sw += n.w;
      svw += n.v * n.w;
      cur = n.right;
    } else {
      cur = n.left;
    }
  }
  *sum_w = sw;
  *sum_vw = svw;
}

Result<SimTime> IncrementalForecast::RemainingTime(QueryId id,
                                                   double rate) const {
  if (rate <= 0.0) {
    return Status::InvalidArgument("aggregate rate must be positive");
  }
  auto it = slot_.find(id);
  if (it == slot_.end()) {
    return Status::NotFound("query " + std::to_string(id) +
                            " not active");
  }
  const Node& t = nodes_[static_cast<std::size_t>(it->second)];
  double prefix_w = 0.0;
  double prefix_vw = 0.0;
  PrefixUpTo(t.v, t.id, &prefix_w, &prefix_vw);
  const Node& all = nodes_[static_cast<std::size_t>(root_)];
  const double g = t.v - x_;
  // r = [ sum_{<=} (v_j - X) w_j + g * sum_{>} w_j ] / C
  const double r =
      (prefix_vw - x_ * prefix_w + g * (all.sum_w - prefix_w)) / rate;
  return std::max(0.0, r);
}

SimTime IncrementalForecast::QuiescentTime(double rate) const {
  if (root_ < 0) return 0.0;
  if (rate <= 0.0) return kInfiniteTime;
  const Node& all = nodes_[static_cast<std::size_t>(root_)];
  return std::max(0.0, (all.sum_vw - x_ * all.sum_w) / rate);
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
  auto t_it = slot_.find(target);
  if (t_it == slot_.end()) {
    return Status::NotFound("target " + std::to_string(target) +
                            " not active");
  }
  auto v_it = slot_.find(victim);
  if (v_it == slot_.end()) {
    return Status::NotFound("victim " + std::to_string(victim) +
                            " not active");
  }
  const Node& t = nodes_[static_cast<std::size_t>(t_it->second)];
  const Node& m = nodes_[static_cast<std::size_t>(v_it->second)];
  // Earlier-finishing victim shortens every stage up to its own finish
  // by its full cost; a later one shortens the target's stages by w_m
  // per unit of shared weight (the telescoped K = g_target / C). On a
  // threshold tie the two expressions coincide.
  if (KeyLess(m.v, m.id, t.v, t.id)) {
    return std::max(0.0, (m.v - x_) * m.w) / rate;
  }
  return std::max(0.0, (t.v - x_)) * m.w / rate;
}

void IncrementalForecast::ExportSorted(QueryId* ids, double* v,
                                       double* w) const {
  std::size_t out = 0;
  std::vector<int> stack;
  int cur = root_;
  while (cur >= 0 || !stack.empty()) {
    while (cur >= 0) {
      stack.push_back(cur);
      cur = nodes_[static_cast<std::size_t>(cur)].left;
    }
    cur = stack.back();
    stack.pop_back();
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    if (ids != nullptr) ids[out] = n.id;
    if (v != nullptr) v[out] = n.v;
    if (w != nullptr) w[out] = n.w;
    ++out;
    cur = n.right;
  }
}

std::vector<QueryLoad> IncrementalForecast::Entries() const {
  std::vector<QueryLoad> out;
  out.reserve(slot_.size());
  // Iterative in-order walk: finish order, no recursion depth risk.
  std::vector<int> stack;
  int cur = root_;
  while (cur >= 0 || !stack.empty()) {
    while (cur >= 0) {
      stack.push_back(cur);
      cur = nodes_[static_cast<std::size_t>(cur)].left;
    }
    cur = stack.back();
    stack.pop_back();
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    out.push_back(
        QueryLoad{n.id, std::max(0.0, (n.v - x_) * n.w), n.w});
    cur = n.right;
  }
  return out;
}

}  // namespace mqpi::pi
