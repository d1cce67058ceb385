#include "util/fault_point.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/string_util.h"

namespace htl {

FaultRegistry& FaultRegistry::Instance() {
  static FaultRegistry* registry = new FaultRegistry();  // Leaked singleton.
  return *registry;
}

const std::vector<std::string_view>& FaultRegistry::KnownPoints() {
  // One entry per HTL_FAULT_POINT site in src/. Hit() DCHECKs membership,
  // so a planted point missing here fails fast in debug test runs.
  static const std::vector<std::string_view>* points =
      new std::vector<std::string_view>{
          "cache.fill",          // Cache store (result + similarity-list).
          "cache.lookup",        // Cache probe (degrades to a bypass/miss).
          "engine.bound_compute",   // Retriever prune-bound derivation
                                    // (degrades to unpruned evaluation).
          "engine.table_join",   // DirectEngine and/or/until join.
          "engine.value_table",  // DirectEngine freeze value-table build.
          "net.accept",          // QueryServer accept loop, post-accept.
          "net.admin.accept",    // Admin listener accept, post-accept.
          "net.admin.read_frame",   // Admin inbound frame read.
          "net.admin.write_frame",  // Admin outbound response write.
          "net.read_frame",      // QueryServer inbound frame read.
          "net.session",         // QueryServer session body, pre-evaluate.
          "net.write_frame",     // QueryServer outbound response write.
          "picture.query",       // PictureSystem atomic picture query.
          "sql.scan",            // sql::Executor FROM-pipeline table scan.
      };
  return *points;
}

void FaultRegistry::Enable(std::string_view point, FaultSpec spec) {
  HTL_CHECK(spec.code != StatusCode::kOk) << "fault spec must carry an error code";
  MutexLock lock(&mu_);
  PointState& state = points_[std::string(point)];
  state.spec = spec;
  state.hits = 0;
  state.enabled = true;
  UpdateArmed();
}

void FaultRegistry::Disable(std::string_view point) {
  MutexLock lock(&mu_);
  auto it = points_.find(point);
  if (it != points_.end()) it->second.enabled = false;
  UpdateArmed();
}

void FaultRegistry::DisableAll() {
  MutexLock lock(&mu_);
  points_.clear();
  tracing_ = false;
  trace_hits_.clear();
  UpdateArmed();
}

void FaultRegistry::StartTrace() {
  MutexLock lock(&mu_);
  tracing_ = true;
  trace_hits_.clear();
  UpdateArmed();
}

std::map<std::string, int64_t> FaultRegistry::TraceHits() {
  MutexLock lock(&mu_);
  return trace_hits_;
}

void FaultRegistry::Seed(uint64_t seed) {
  MutexLock lock(&mu_);
  rng_state_ = seed | 1;  // Never zero.
}

void FaultRegistry::UpdateArmed() {
  bool armed = tracing_;
  for (const auto& [name, state] : points_) armed = armed || state.enabled;
  armed_.store(armed, std::memory_order_relaxed);
}

Status FaultRegistry::Hit(std::string_view point) {
  const auto& known = KnownPoints();
  HTL_DCHECK(std::find(known.begin(), known.end(), point) != known.end())
      << "fault point '" << point << "' missing from FaultRegistry::KnownPoints()";
  MutexLock lock(&mu_);
  if (tracing_) ++trace_hits_[std::string(point)];
  auto it = points_.find(point);
  if (it == points_.end() || !it->second.enabled) return Status::OK();
  PointState& state = it->second;
  ++state.hits;
  bool fire = false;
  if (state.spec.probability > 0.0 && state.spec.probability < 1.0) {
    // xorshift64*: cheap, deterministic under Seed().
    rng_state_ ^= rng_state_ >> 12;
    rng_state_ ^= rng_state_ << 25;
    rng_state_ ^= rng_state_ >> 27;
    const double u = static_cast<double>((rng_state_ * 0x2545F4914F6CDD1Dull) >> 11) *
                     (1.0 / 9007199254740992.0);  // [0, 1) from 53 bits.
    fire = u < state.spec.probability;
  } else if (state.spec.fire_on_hit <= 0) {
    fire = true;
  } else if (state.spec.sticky) {
    fire = state.hits >= state.spec.fire_on_hit;
  } else {
    fire = state.hits == state.spec.fire_on_hit;
  }
  if (!fire) return Status::OK();
  Status injected(state.spec.code,
                  StrCat("injected fault at '", point, "' (hit ", state.hits, ")"));
  // Surface the trip into the query's trace (if one is attached to this
  // thread) so RetrievalReport profiles name the fault point that caused a
  // per-video failure — not just the Status text that bubbled up.
  if (obs::QueryTrace* trace = obs::QueryTrace::Current(); trace != nullptr) {
    trace->RecordFault(point, injected);
  }
  return injected;
}

}  // namespace htl
