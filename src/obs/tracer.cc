#include "obs/tracer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <ostream>

namespace mqpi::obs {

namespace {

std::uint32_t ThisThreadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1);
  return id;
}

void AppendNumber(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  out->append(buf);
}

}  // namespace

void AppendJsonEscaped(std::string* out, const char* s) {
  if (s == nullptr) return;
  for (const char* p = s; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
        break;
    }
  }
}

std::string RenderTraceEventJson(const TraceEvent& event) {
  std::string out = "{\"ts\":";
  // Chrome expects microseconds.
  AppendNumber(&out, static_cast<double>(event.ts_ns) / 1000.0);
  if (event.phase == TracePhase::kComplete) {
    out += ",\"dur\":";
    AppendNumber(&out, static_cast<double>(event.dur_ns) / 1000.0);
  }
  out += ",\"ph\":\"";
  out += static_cast<char>(event.phase);
  out += "\",\"cat\":\"";
  AppendJsonEscaped(&out, event.category);
  out += "\",\"name\":\"";
  AppendJsonEscaped(&out, event.name);
  out += "\",\"pid\":1,\"tid\":";
  AppendNumber(&out, event.tid);
  bool has_args = event.query != kInvalidQueryId ||
                  event.arg1_key != nullptr || event.arg2_key != nullptr;
  if (has_args) {
    out += ",\"args\":{";
    bool first = true;
    auto field = [&](const char* key, double value) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      AppendJsonEscaped(&out, key);
      out += "\":";
      AppendNumber(&out, value);
    };
    if (event.query != kInvalidQueryId) {
      field("query", static_cast<double>(event.query));
    }
    if (event.arg1_key != nullptr) field(event.arg1_key, event.arg1);
    if (event.arg2_key != nullptr) field(event.arg2_key, event.arg2);
    out += "}";
  }
  out += "}";
  return out;
}

Tracer::Tracer(TracerOptions options)
    : options_(options),
      enabled_(options.enabled),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.stripes == 0) options_.stripes = 1;
  if (options_.capacity < options_.stripes) {
    options_.capacity = options_.stripes;
  }
  stripe_capacity_ =
      (options_.capacity + options_.stripes - 1) / options_.stripes;
  stripes_.reserve(options_.stripes);
  for (std::size_t i = 0; i < options_.stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

Tracer::Stripe& Tracer::StripeForThisThread() {
  return *stripes_[ThisThreadId() % stripes_.size()];
}

void Tracer::Record(TraceEvent event) {
  if (!enabled()) return;
  const auto now_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  if (event.ts_ns == 0) {
    // Complete events are recorded at span *end*; back-date to start.
    event.ts_ns = event.phase == TracePhase::kComplete &&
                          event.dur_ns < now_ns
                      ? now_ns - event.dur_ns
                      : now_ns;
  }
  event.tid = ThisThreadId();
  event.seq = seq_.fetch_add(1, std::memory_order_relaxed);

  Stripe& stripe = StripeForThisThread();
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.ring.empty()) stripe.ring.resize(stripe_capacity_);
  stripe.ring[stripe.next] = event;
  stripe.next = (stripe.next + 1) % stripe.ring.size();
  ++stripe.count;
}

void Tracer::Instant(const char* category, const char* name, QueryId query,
                     const char* arg_key, double arg) {
  if (!enabled()) return;
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = TracePhase::kInstant;
  event.query = query;
  event.arg1_key = arg_key;
  event.arg1 = arg;
  Record(event);
}

void Tracer::CounterValue(const char* category, const char* name,
                          double value) {
  if (!enabled()) return;
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = TracePhase::kCounter;
  event.arg1_key = "value";
  event.arg1 = value;
  Record(event);
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> out;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    const std::uint64_t retained =
        std::min<std::uint64_t>(stripe->count, stripe->ring.size());
    // Oldest retained event sits at `next` once the ring has wrapped.
    std::size_t at = stripe->count > stripe->ring.size() ? stripe->next : 0;
    for (std::uint64_t i = 0; i < retained; ++i) {
      out.push_back(stripe->ring[at]);
      at = (at + 1) % stripe->ring.size();
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::uint64_t Tracer::recorded() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    total += stripe->count;
  }
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    if (stripe->count > stripe->ring.size()) {
      total += stripe->count - stripe->ring.size();
    }
  }
  return total;
}

void Tracer::Clear() {
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->ring.clear();
    stripe->next = 0;
    stripe->count = 0;
  }
}

void Tracer::ExportJsonl(std::ostream& os) const {
  for (const auto& event : Events()) os << RenderTraceEventJson(event) << "\n";
}

void Tracer::ExportChromeTrace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& event : Events()) {
    os << (first ? "\n" : ",\n") << RenderTraceEventJson(event);
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

namespace {
Status WriteWith(const std::string& path,
                 const std::function<void(std::ostream&)>& emit) {
  std::ofstream file(path);
  if (!file) {
    return Status::InvalidArgument("cannot open '" + path + "' for write");
  }
  emit(file);
  file.flush();
  if (!file) return Status::InvalidArgument("write to '" + path + "' failed");
  return Status::OK();
}
}  // namespace

Status Tracer::WriteJsonl(const std::string& path) const {
  return WriteWith(path, [this](std::ostream& os) { ExportJsonl(os); });
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  return WriteWith(path,
                   [this](std::ostream& os) { ExportChromeTrace(os); });
}

Tracer* GlobalTracer() {
  static Tracer tracer;
  return &tracer;
}

}  // namespace mqpi::obs
