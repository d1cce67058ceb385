#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace e2e {

namespace {

/// The layer (source module) a span belongs to: the name's prefix before
/// the first '.', with the Retriever's own profile spans mapped onto the
/// modules that run them.
std::string LayerOf(const std::string& name) {
  if (name == "stage.execute" || name == "video" || name == "worker" || name == "shard") {
    return "engine";
  }
  if (name.rfind("stage.", 0) == 0) return "htl";  // parse, bind, rewrite, classify.
  if (name == "op.picture_query") return "picture";
  if (name.rfind("op.", 0) == 0) return "sim";  // The merge and join kernels.
  return name.substr(0, name.find('.'));
}

}  // namespace

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {}

int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

SpanLog::Scope::Scope(SpanLog* log, std::string_view name, int64_t request)
    : log_(log), id_(static_cast<int32_t>(log->spans_.size())) {
  Span span;
  span.name = std::string(name);
  span.request = request;
  span.parent = log->open_.empty() ? -1 : log->open_.back();
  span.start_ns = log->Now();
  log->spans_.push_back(std::move(span));
  log->open_.push_back(id_);
}

int64_t SpanLog::Scope::start_ns() const {
  return log_->spans_[static_cast<size_t>(id_)].start_ns;
}

void SpanLog::Scope::SetCount(int64_t n) { log_->spans_[static_cast<size_t>(id_)].count = n; }

double SpanLog::Scope::Stop() {
  Span& span = log_->spans_[static_cast<size_t>(id_)];
  if (open_) {
    span.end_ns = log_->Now();
    open_ = false;
    // Scopes are RAII-nested, so this span is the innermost open one.
    log_->open_.pop_back();
  }
  return span.us();
}

int32_t SpanLog::Add(std::string name, int64_t request, int32_t parent, int64_t start_ns,
                     int64_t end_ns) {
  Span span;
  span.name = std::move(name);
  span.request = request;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return static_cast<int32_t>(spans_.size() - 1);
}

double SpanLog::TotalUs(std::string_view name, bool measured_only) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name && (!measured_only || s.request >= 0)) total += s.us();
  }
  return total;
}

std::string SpanLog::ToChromeTrace(size_t max_events) const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[512];
  const size_t n = std::min(spans_.size(), max_events);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %lld, "
                  "\"parent\": %d, \"count\": %lld}}",
                  i == 0 ? "" : ",", s.name.c_str(), LayerOf(s.name).c_str(),
                  static_cast<double>(s.start_ns) / 1000.0, s.us(),
                  static_cast<long long>(s.request), s.parent,
                  static_cast<long long>(s.count));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::string SpanLog::SelfTimeTable() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += s.us();
  }
  struct Row {
    double self_us = 0;
    int64_t spans = 0;
  };
  std::map<std::string, Row> layers;
  double total = 0;
  int64_t requests = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.request < 0) continue;
    if (s.parent < 0) ++requests;
    const double self = std::max(0.0, s.us() - child_us[i]);
    Row& row = layers[LayerOf(s.name)];
    row.self_us += self;
    ++row.spans;
    total += self;
  }
  std::string out = "layer          self_ms   share  us/request   spans\n";
  char buf[160];
  for (const auto& [layer, row] : layers) {
    std::snprintf(buf, sizeof(buf), "%-12s %9.2f  %5.1f%%  %10.2f  %6lld\n", layer.c_str(),
                  row.self_us / 1000.0, total > 0 ? 100.0 * row.self_us / total : 0.0,
                  requests > 0 ? row.self_us / static_cast<double>(requests) : 0.0,
                  static_cast<long long>(row.spans));
    out += buf;
  }
  return out;
}

}  // namespace e2e
