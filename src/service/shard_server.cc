#include "service/shard_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "join/result_range.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace dbsa::service {

uint64_t ApproxChecksum(const raster::HrCell* cells, size_t num_cells) {
  // FNV-1a over the cell ids and boundary flags: order-sensitive, so any
  // structural difference between two approximations changes it.
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(num_cells);
  for (size_t i = 0; i < num_cells; ++i) {
    mix(cells[i].id.id() | (cells[i].boundary ? (uint64_t{1} << 63) : 0));
  }
  return h;
}

// ------------------------------------------------------------ ShardServer

namespace {

/// dbsa_<family>{shard="N"} — the per-shard label scheme of every shard
/// metric, so loopback servers sharing a registry stay distinguishable.
std::string ShardMetric(const char* family, size_t shard) {
  return std::string(family) + "{shard=\"" + std::to_string(shard) + "\"}";
}

/// Executes one shard's cell slice: the point-index probe behind every
/// carrier (ShardServer::Dispatch for the transports, the router's direct
/// carrier in process). `state` may be null (an empty shard) and the
/// slice may be empty: both answer a zero partial.
GatherPartial ExecuteSlice(const core::EngineState* state,
                           const std::vector<uint32_t>& global_ids,
                           ScatterRequest::Kind kind, const raster::HrCell* cells,
                           size_t num_cells) {
  GatherPartial out;
  out.kind = kind;
  if (state == nullptr || !state->point_index.has_value() || num_cells == 0) {
    return out;
  }
  static_assert(ScatterRequest::kKindCount == 3,
                "new scatter kind: execute it against the shard slice below");
  switch (kind) {
    case ScatterRequest::Kind::kAggregateCells: {
      out.aggregate = state->point_index->QueryCells(
          cells, num_cells, join::SearchStrategy::kSortedSweep);
      break;
    }
    case ScatterRequest::Kind::kSelectIds: {
      out.probe_cells = num_cells;
      std::vector<uint32_t> local;
      state->point_index->SelectIds(cells, num_cells,
                                    join::SearchStrategy::kSortedSweep, &local);
      out.keyed_ids.reserve(local.size());
      // Keys computed from the shard's own copy of the point (identical
      // bits to the base table row), ids remapped to base rows: the
      // router needs no point data to canonicalize the gather.
      for (const uint32_t l : local) {
        out.keyed_ids.emplace_back(state->grid.LeafKey(state->points->locs[l]),
                                   global_ids[l]);
      }
      break;
    }
    case ScatterRequest::Kind::kWarm:
      break;  // Nothing to execute: a warm only fills the slice cache.
  }
  return out;
}

}  // namespace

ShardServer::ShardServer(std::shared_ptr<const core::EngineState> state,
                         std::vector<uint32_t> global_ids, const Options& options)
    : state_(std::move(state)),
      global_ids_(std::move(global_ids)),
      cache_budget_bytes_(options.cell_cache_budget_bytes),
      options_(options),
      registry_(options.registry
                    ? options.registry
                    : std::make_shared<telemetry::MetricRegistry>()),
      requests_(registry_->GetCounter(
          ShardMetric("dbsa_shard_scatter_requests_total", options.shard_index))),
      parse_errors_(registry_->GetCounter(
          ShardMetric("dbsa_shard_parse_errors_total", options.shard_index))),
      epoch_rejects_(registry_->GetCounter(
          ShardMetric("dbsa_shard_epoch_rejects_total", options.shard_index))),
      cache_hits_(registry_->GetCounter(
          ShardMetric("dbsa_shard_cache_hits_total", options.shard_index))),
      cache_misses_(registry_->GetCounter(
          ShardMetric("dbsa_shard_cache_misses_total", options.shard_index))),
      cache_evictions_(registry_->GetCounter(
          ShardMetric("dbsa_shard_cache_evictions_total", options.shard_index))),
      cache_entries_gauge_(registry_->GetGauge(
          ShardMetric("dbsa_shard_cache_entries", options.shard_index))),
      cache_bytes_gauge_(registry_->GetGauge(
          ShardMetric("dbsa_shard_cache_bytes", options.shard_index))),
      handle_ms_(registry_->GetHistogram(
          ShardMetric("dbsa_shard_handle_ms", options.shard_index))) {
  DBSA_CHECK(state_ == nullptr || state_->points->size() == global_ids_.size());
}

ShardServer::ShardServer(std::shared_ptr<const core::EngineState> state,
                         std::vector<uint32_t> global_ids)
    : ShardServer(std::move(state), std::move(global_ids), Options()) {}

std::string ShardServer::Handle(const std::string& request_bytes) {
  Timer timer;
  requests_->Add(1);
  ScatterRequest request;
  GatherPartial partial;
  const Status parsed = ScatterRequest::Decode(request_bytes, &request);
  if (!parsed.ok()) {
    // The decoder's code travels back typed: a version-skewed frame
    // answers kUnimplemented, corruption answers kInvalidArgument.
    parse_errors_->Add(1);
    partial = GatherPartial::FromStatus(
        ScatterRequest::Kind::kAggregateCells, GatherPartial::Disposition::kError,
        Status(parsed.code(), "bad request: " + parsed.message()));
  } else if (options_.serving_epoch != 0 && request.epoch != 0 &&
             request.epoch != options_.serving_epoch) {
    // Read-your-epoch: a request pinned to another dataset generation is
    // rejected typed, never answered from the wrong data. The rejection
    // still echoes OUR serving epoch (below), so the client can tell
    // which generation this server holds.
    epoch_rejects_->Add(1);
    partial = GatherPartial::FromStatus(
        request.kind, GatherPartial::Disposition::kError,
        Status::FailedPrecondition(
            "epoch mismatch: request pinned to epoch " +
            std::to_string(request.epoch) + ", serving epoch " +
            std::to_string(options_.serving_epoch)));
  } else {
    partial = Dispatch(request);
  }
  // EVERY partial — ok, error, not-cached — carries the serving epoch.
  partial.epoch = options_.serving_epoch;
  std::string encoded = partial.Encode();
  // Echo the request's correlation id: on a multiplexed connection the
  // id — not stream position — pairs this reply with its request.
  PatchCorrelation(&encoded, PeekCorrelation(request_bytes));
  const double elapsed_ms = timer.Millis();
  handle_ms_->Record(elapsed_ms);
  if (options_.slow_handle_ms > 0.0 && elapsed_ms > options_.slow_handle_ms) {
    // The server-side half of the distributed trace: one line keyed by
    // the WIRE trace id, so it joins the client's slow-query record.
    char buf[192];
    std::snprintf(
        buf, sizeof(buf), "SLOW_SHARD trace=%s shard=%zu kind=%u ms=%.3f",
        telemetry::TraceIdHex(request.trace_hi, request.trace_lo).c_str(),
        options_.shard_index, static_cast<unsigned>(request.kind), elapsed_ms);
    if (options_.slow_handle_sink) {
      options_.slow_handle_sink(buf);
    } else {
      std::fprintf(stderr, "%s\n", buf);
    }
  }
  return encoded;
}

GatherPartial ShardServer::Dispatch(const ScatterRequest& request) {
  if (request.kind == ScatterRequest::Kind::kWarm) {
    if (!request.has_object || !request.has_cells) {
      return GatherPartial::FromStatus(
          request.kind, GatherPartial::Disposition::kError,
          Status::InvalidArgument("warm request needs an object key and cells"));
    }
    GatherPartial out;
    out.kind = request.kind;
    out.cells_cached = request.cells.size();
    CachePut({request.object, request.level}, request.checksum, request.cells);
    return out;
  }

  // Resolve the cell slice: shipped inline (and cached under the object
  // key for later reference requests), or referenced from the cache.
  CellsPtr cached;
  const raster::HrCell* cells = nullptr;
  size_t num_cells = 0;
  if (request.has_cells) {
    cells = request.cells.data();
    num_cells = request.cells.size();
    if (request.has_object) {
      CachePut({request.object, request.level}, request.checksum, request.cells);
    }
  } else if (request.has_object) {
    cached = CacheGet({request.object, request.level}, request.checksum);
    if (cached == nullptr) {
      return GatherPartial::FromStatus(request.kind,
                                       GatherPartial::Disposition::kNotCached,
                                       Status::NotFound("slice not cached"));
    }
    cells = cached->data();
    num_cells = cached->size();
  } else {
    return GatherPartial::FromStatus(
        request.kind, GatherPartial::Disposition::kError,
        Status::InvalidArgument(
            "request carries neither cells nor an object reference"));
  }

  return ExecuteSlice(state_.get(), global_ids_, request.kind, cells, num_cells);
}

void ShardServer::CachePut(const CacheKey& key, uint64_t checksum,
                           std::vector<raster::HrCell> cells) {
  const size_t bytes = cells.size() * sizeof(raster::HrCell) + sizeof(CacheEntry);
  if (bytes > cache_budget_bytes_) return;  // Never cache a budget-buster.
  CellsPtr shared =
      std::make_shared<const std::vector<raster::HrCell>>(std::move(cells));
  dbsa::MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    cache_bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    map_.erase(it);
  }
  lru_.push_front(CacheEntry{key, checksum, std::move(shared), bytes});
  map_[key] = lru_.begin();
  cache_bytes_ += bytes;
  while (cache_bytes_ > cache_budget_bytes_ && lru_.size() > 1) {
    const CacheEntry& victim = lru_.back();
    cache_bytes_ -= victim.bytes;
    map_.erase(victim.key);
    lru_.pop_back();
    cache_evictions_->Add(1);
  }
  cache_entries_gauge_->Set(static_cast<double>(map_.size()));
  cache_bytes_gauge_->Set(static_cast<double>(cache_bytes_));
}

ShardServer::CellsPtr ShardServer::CacheGet(const CacheKey& key,
                                            uint64_t checksum) {
  dbsa::MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || it->second->checksum != checksum) {
    // A checksum mismatch means the key now identifies a different
    // approximation (fingerprint collision or level re-use); drop the
    // stale slice so the router's re-ship replaces it.
    if (it != map_.end()) {
      cache_bytes_ -= it->second->bytes;
      lru_.erase(it->second);
      map_.erase(it);
      cache_entries_gauge_->Set(static_cast<double>(map_.size()));
      cache_bytes_gauge_->Set(static_cast<double>(cache_bytes_));
    }
    cache_misses_->Add(1);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // Promote.
  cache_hits_->Add(1);
  return it->second->cells;  // Shared, immutable: no copy under the lock.
}

ShardServer::Stats ShardServer::stats() const {
  Stats s;
  s.requests = requests_->Value();
  s.parse_errors = parse_errors_->Value();
  s.epoch_rejects = epoch_rejects_->Value();
  s.cache_hits = cache_hits_->Value();
  s.cache_misses = cache_misses_->Value();
  s.cache_evictions = cache_evictions_->Value();
  dbsa::MutexLock lock(mu_);
  s.cache_entries = map_.size();
  s.cache_bytes = cache_bytes_;
  return s;
}

std::vector<std::pair<ObjectKey, int>> ShardServer::CachedKeys() const {
  dbsa::MutexLock lock(mu_);
  std::vector<std::pair<ObjectKey, int>> keys;
  keys.reserve(map_.size());
  for (const CacheEntry& entry : lru_) {
    keys.emplace_back(entry.key.object, entry.key.level);
  }
  return keys;
}

// ------------------------------------------------------------ ShardRouter

ShardRouter::ShardRouter(std::shared_ptr<const core::ShardedState> sharded)
    : sharded_(std::move(sharded)) {
  DBSA_CHECK(sharded_ != nullptr && sharded_->has_slices());
}

ShardRouter::ShardRouter(std::shared_ptr<const core::ShardedState> sharded,
                         std::shared_ptr<Transport> transport)
    : sharded_(std::move(sharded)), transport_(std::move(transport)) {
  DBSA_CHECK(sharded_ != nullptr && transport_ != nullptr);
  DBSA_CHECK(transport_->num_shards() == sharded_->num_shards());
  known_.resize(sharded_->num_shards());
}

bool ShardRouter::KnownCached(size_t shard, const Key& key) const {
  dbsa::MutexLock lock(known_mu_);
  return known_[shard].count(key) != 0;
}

void ShardRouter::MarkCached(size_t shard, const Key& key, bool cached) {
  dbsa::MutexLock lock(known_mu_);
  if (cached) {
    auto& keys = known_[shard];
    if (keys.size() >= kMaxKnownKeysPerShard && keys.count(key) == 0) {
      // Bounded in sympathy with the server-side LRU: drop an arbitrary
      // entry (the hint is advisory — at worst one extra inline ship).
      keys.erase(keys.begin());
    }
    keys[key] = 1;
  } else {
    known_[shard].erase(key);
  }
}

namespace {

/// Decodes and validates one shard's framed reply into a GatherPartial.
/// kError partials become a typed StatusException (the shard's code
/// survives the hop to the serving layer's Result.status unchanged);
/// kNotCached passes through for the caller's fallback policy.
GatherPartial DecodePartial(size_t shard, ScatterRequest::Kind kind,
                            const std::string& response) {
  GatherPartial partial;
  const Status decoded = GatherPartial::Decode(response, &partial);
  if (!decoded.ok()) {
    throw StatusException(Status(
        decoded.code(), "shard " + std::to_string(shard) +
                            ": undecodable response: " + decoded.message()));
  }
  if (partial.status == GatherPartial::Disposition::kError) {
    const Status status = partial.ToStatus();
    throw StatusException(Status(
        status.code(), "shard " + std::to_string(shard) + ": " + status.message()));
  }
  if (partial.status == GatherPartial::Disposition::kOk && partial.kind != kind) {
    throw StatusException(Status::Internal("shard " + std::to_string(shard) +
                                           ": response kind mismatch"));
  }
  return partial;
}

GatherPartial RoundtripDecode(Transport& transport, size_t shard,
                              const ScatterRequest& request) {
  return DecodePartial(shard, request.kind,
                       Roundtrip(transport, shard, request.Encode()));
}

/// One shard's slot in an in-flight scatter wave.
struct ShardCall {
  bool active = false;           ///< Has a request in this wave.
  std::string request;           ///< Encoded frame to send.
  Status status = Status::OK();  ///< Transport status of the completion.
  std::string frame;             ///< Framed reply when status is OK.
  uint64_t correlation = 0;
  double start_ms = 0.0;         ///< Trace-epoch offset at Send.
  double duration_ms = 0.0;
};

/// Starts every active slot's request through Transport::Send and blocks
/// until every completion lands — unconditionally, so no callback can
/// outlive the wave. Issuing runs under the caller's RunMaybeParallel
/// policy when `parallel_issue` is set: for an inline-completing
/// transport (loopback) that IS the shard-execution parallelism, for an
/// async transport the issue loop merely enqueues and the per-shard
/// demux engines overlap the work. Completions land in any order; slots
/// keep wave results positionally, so completion order never reaches the
/// merge. Per-call wall time and correlation ids are captured for span
/// recording on the gathering thread.
void SendWave(Transport& transport, const core::ExecHooks& hooks,
              bool parallel_issue, const std::vector<uint32_t>& shards,
              telemetry::QueryTrace* trace, std::vector<ShardCall>* calls) {
  struct WaveState {
    dbsa::Mutex mu;
    dbsa::CondVar cv;
    size_t remaining DBSA_GUARDED_BY(mu) = 0;
  };
  size_t active = 0;
  for (const ShardCall& call : *calls) active += call.active ? 1 : 0;
  if (active == 0) return;
  auto state = std::make_shared<WaveState>();
  {
    dbsa::MutexLock lock(state->mu);
    state->remaining = active;
  }
  const auto issue_one = [&](size_t t) {
    ShardCall& call = (*calls)[t];
    if (!call.active) return;
    call.start_ms = trace != nullptr ? trace->ElapsedMs() : 0.0;
    const auto sent = std::chrono::steady_clock::now();
    call.correlation = transport.Send(
        shards[t], std::move(call.request),
        [state, &call, sent](StatusOr<std::string> result) {
          call.duration_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - sent)
                                 .count();
          if (result.ok()) {
            call.frame = std::move(result).value();
          } else {
            call.status = result.status();
          }
          {
            dbsa::MutexLock lock(state->mu);
            --state->remaining;
          }
          state->cv.NotifyOne();
        });
  };
  // RunMaybeParallel is a barrier: every Send (and its correlation-id
  // write) has returned before the wait below starts.
  if (parallel_issue) {
    core::RunMaybeParallel(hooks, calls->size(), issue_one);
  } else {
    for (size_t t = 0; t < calls->size(); ++t) issue_one(t);
  }
  dbsa::MutexLock lock(state->mu);
  while (state->remaining != 0) state->cv.Wait(lock);
}

}  // namespace

std::vector<GatherPartial> ShardRouter::GatherFromShards(
    ScatterRequest::Kind kind, const ObjectKey* object, int level,
    const query::ErrorBound& bound, const raster::HrCell* cells,
    const core::ShardedState::CellRoute* routes, size_t num_cells,
    const core::ExecHooks& hooks, const std::vector<uint32_t>& surviving) {
  telemetry::QueryTrace* trace = hooks.trace;
  const size_t n = surviving.size();
  if (n == 0) return {};
  // One fan-out threshold for every carrier: scheduling (not results) is
  // all that changes with it.
  const bool parallel_issue = num_cells >= kShardFanOutMinCells;

  if (transport_ == nullptr) {
    // Direct carrier: the shard's slice runs in process, against the
    // same slice state a ShardServer would own.
    std::vector<GatherPartial> partials(n);
    const auto one_shard = [&](size_t t) {
      const core::ShardedState::Shard& shard = sharded_->shard(surviving[t]);
      const std::vector<raster::HrCell> slice =
          sharded_->PruneCellsForShard(surviving[t], cells, routes, num_cells);
      partials[t] = ExecuteSlice(shard.state.get(), shard.global_ids, kind,
                                 slice.data(), slice.size());
    };
    if (parallel_issue) {
      core::RunMaybeParallel(hooks, n, one_shard);
    } else {
      for (size_t t = 0; t < n; ++t) one_shard(t);
    }
    return partials;
  }

  const Key key{object != nullptr ? *object : ObjectKey(), level};

  ScatterRequest base;
  base.kind = kind;
  base.bound_kind = bound.kind;
  base.bound_epsilon = bound.epsilon;
  base.level = level;
  base.checksum = ApproxChecksum(cells, num_cells);
  base.epoch = epoch_;
  if (trace != nullptr) {
    base.trace_hi = trace->ctx().trace_hi;
    base.trace_lo = trace->ctx().trace_lo;
    base.span_id = trace->ctx().span_id;
  }
  if (object != nullptr) {
    base.has_object = true;
    base.object = *object;
  }

  // Wave 1: reference-only where the shard is believed to hold the key
  // (no cell payload — the per-shard HR cache hit path), inline cells
  // otherwise.
  std::vector<ShardCall> calls(n);
  std::vector<char> referenced(n, 0);
  for (size_t t = 0; t < n; ++t) {
    ScatterRequest request = base;
    if (object != nullptr && KnownCached(surviving[t], key)) {
      referenced[t] = 1;
    } else {
      request.has_cells = true;
      request.cells =
          sharded_->PruneCellsForShard(surviving[t], cells, routes, num_cells);
    }
    calls[t].active = true;
    calls[t].request = request.Encode();
  }
  SendWave(*transport_, hooks, parallel_issue, surviving, trace, &calls);

  // Harvest on the gathering thread: spans, fallbacks, errors. Every
  // completion has landed, so throwing from here leaves nothing in
  // flight. The first failing shard (ascending) wins — deterministic
  // regardless of completion order.
  const auto record_span = [&](size_t t) {
    if (trace != nullptr) {
      trace->Record("shard_roundtrip", calls[t].start_ms, calls[t].duration_ms,
                    static_cast<int>(surviving[t]), calls[t].correlation);
    }
  };
  std::vector<GatherPartial> partials(n);
  bool any_fallback = false;
  for (size_t t = 0; t < n; ++t) {
    record_span(t);
    calls[t].active = false;  // Only fallback slots re-enter wave 2.
    if (!calls[t].status.ok()) {
      throw StatusException(Status(calls[t].status.code(),
                                   "shard " + std::to_string(surviving[t]) +
                                       ": " + calls[t].status.message()));
    }
    partials[t] = DecodePartial(surviving[t], kind, calls[t].frame);
    if (partials[t].status == GatherPartial::Disposition::kOk) {
      if (object != nullptr && !referenced[t]) {
        MarkCached(surviving[t], key, true);
      }
      continue;
    }
    // kNotCached. A reference miss falls back to shipping the cells; a
    // shard rejecting an INLINE slice this way is a protocol violation.
    if (!referenced[t]) {
      throw StatusException(
          Status::Internal("shard " + std::to_string(surviving[t]) +
                           ": rejected inline slice: " + partials[t].error));
    }
    MarkCached(surviving[t], key, false);
    calls[t] = ShardCall();
    calls[t].active = true;
    any_fallback = true;
  }
  if (!any_fallback) return partials;

  // Wave 2: re-send with inline cells to the shards that evicted or
  // replaced the referenced slice.
  for (size_t t = 0; t < n; ++t) {
    if (!calls[t].active) continue;
    ScatterRequest request = base;
    request.has_cells = true;
    request.cells =
        sharded_->PruneCellsForShard(surviving[t], cells, routes, num_cells);
    calls[t].request = request.Encode();
  }
  SendWave(*transport_, hooks, parallel_issue, surviving, trace, &calls);
  for (size_t t = 0; t < n; ++t) {
    if (!calls[t].active) continue;
    record_span(t);
    if (!calls[t].status.ok()) {
      throw StatusException(Status(calls[t].status.code(),
                                   "shard " + std::to_string(surviving[t]) +
                                       ": " + calls[t].status.message()));
    }
    partials[t] = DecodePartial(surviving[t], kind, calls[t].frame);
    if (partials[t].status != GatherPartial::Disposition::kOk) {
      throw StatusException(
          Status::Internal("shard " + std::to_string(surviving[t]) +
                           ": rejected inline slice: " + partials[t].error));
    }
    if (object != nullptr) MarkCached(surviving[t], key, true);
  }
  return partials;
}

std::vector<uint32_t> ShardRouter::Route(
    const raster::HierarchicalRaster& hr, telemetry::QueryTrace* trace,
    std::vector<core::ShardedState::CellRoute>* routes) const {
  telemetry::SpanTimer route_span(trace, "route");
  *routes = sharded_->MakeRoutes(hr.cells().data(), hr.cells().size());
  return sharded_->SurvivingShards(routes->data(), routes->size());
}

join::CellAggregate ShardRouter::ScatterGather(
    const raster::HierarchicalRaster& hr, const ObjectKey* object, int level,
    const query::ErrorBound& bound, const core::ExecHooks& hooks,
    std::atomic<uint32_t>* touched, size_t* num_surviving) {
  const raster::HrCell* cells = hr.cells().data();
  const size_t num_cells = hr.cells().size();
  std::vector<core::ShardedState::CellRoute> routes;
  const std::vector<uint32_t> surviving = Route(hr, hooks.trace, &routes);
  if (touched != nullptr) {
    for (const uint32_t s : surviving) {
      touched[s].store(1, std::memory_order_relaxed);
    }
  }
  if (num_surviving != nullptr) *num_surviving = surviving.size();
  const std::vector<GatherPartial> partials =
      GatherFromShards(ScatterRequest::Kind::kAggregateCells, object, level,
                       bound, cells, routes.data(), num_cells, hooks, surviving);
  // Completion order was whatever the carrier delivered; the fold below
  // is the canonical ascending-shard merge (partials are positional in
  // `surviving`), preserving byte identity with the unsharded engine.
  telemetry::SpanTimer merge_span(hooks.trace, "merge");
  join::CellAggregate agg;
  for (const GatherPartial& partial : partials) agg.Merge(partial.aggregate);
  return agg;
}

std::vector<std::pair<uint64_t, uint32_t>> ShardRouter::SelectKeyed(
    const raster::HierarchicalRaster& hr, const ObjectKey* object, int level,
    const query::ErrorBound& bound, const core::ExecHooks& hooks,
    size_t* num_surviving, size_t* probe_cells) {
  const raster::HrCell* cells = hr.cells().data();
  const size_t num_cells = hr.cells().size();
  std::vector<core::ShardedState::CellRoute> routes;
  const std::vector<uint32_t> surviving = Route(hr, hooks.trace, &routes);
  if (num_surviving != nullptr) *num_surviving = surviving.size();
  std::vector<GatherPartial> partials =
      GatherFromShards(ScatterRequest::Kind::kSelectIds, object, level, bound,
                       cells, routes.data(), num_cells, hooks, surviving);
  telemetry::SpanTimer gather_span(hooks.trace, "gather");
  if (probe_cells != nullptr) {
    *probe_cells = 0;
    for (const GatherPartial& partial : partials) {
      *probe_cells += partial.probe_cells;
    }
  }
  std::vector<std::pair<uint64_t, uint32_t>> keyed;
  for (GatherPartial& partial : partials) {
    keyed.insert(keyed.end(), partial.keyed_ids.begin(),
                 partial.keyed_ids.end());
  }
  return keyed;
}

void ShardRouter::SendWarm(size_t shard, const ObjectKey& object, int level,
                           const raster::HierarchicalRaster& hr,
                           const core::ShardedState::CellRoute* routes,
                           uint64_t checksum) {
  ScatterRequest request;
  request.kind = ScatterRequest::Kind::kWarm;
  request.bound_kind = query::BoundKind::kGridLevel;
  request.level = level;
  request.checksum = checksum;
  request.epoch = epoch_;
  request.has_object = true;
  request.object = object;
  request.has_cells = true;
  request.cells = sharded_->PruneCellsForShard(shard, hr.cells().data(), routes,
                                               hr.cells().size());
  RoundtripDecode(*transport_, shard, request);
  MarkCached(shard, Key{object, level}, true);
}

size_t ShardRouter::WarmObject(const ObjectKey& object, int level,
                               const raster::HierarchicalRaster& hr) {
  if (transport_ == nullptr) return 0;  // Direct carrier: no slice cache.
  std::vector<core::ShardedState::CellRoute> routes;
  const std::vector<uint32_t> surviving = Route(hr, nullptr, &routes);
  const uint64_t checksum = ApproxChecksum(hr.cells().data(), hr.cells().size());
  for (const uint32_t s : surviving) {
    SendWarm(s, object, level, hr, routes.data(), checksum);
  }
  return surviving.size();
}

bool ShardRouter::WarmShard(size_t shard, const ObjectKey& object, int level,
                            const raster::HierarchicalRaster& hr) {
  if (transport_ == nullptr) return false;  // Direct carrier: no slice cache.
  const std::vector<core::ShardedState::CellRoute> routes =
      sharded_->MakeRoutes(hr.cells().data(), hr.cells().size());
  if (!sharded_->ShardIntersects(shard, routes.data(), routes.size())) return false;
  SendWarm(shard, object, level, hr, routes.data(),
           ApproxChecksum(hr.cells().data(), hr.cells().size()));
  return true;
}

// ---------------------------------------------------- sharded executors

core::AggregateAnswer ExecuteAggregate(ShardRouter& router, join::AggKind agg,
                                       core::Attr attr,
                                       const query::ErrorBound& bound,
                                       core::Mode mode,
                                       const core::ExecHooks& hooks) {
  const core::ShardedState& sharded = router.sharded();
  const core::EngineState& base = sharded.base();
  DBSA_CHECK(!base.regions->polys.empty());
  const double epsilon = bound.EffectiveEpsilon(base.grid);

  // Plan selection runs through the SAME shared helpers as the unsharded
  // executor (engine_state.cc), with two additions: the probe fans out
  // across the shards, and on a transport carrier each shard probe costs
  // a message round-trip, which the optimizer weighs against the fan-out
  // discount. Under Mode::kAuto the plan may therefore differ from an
  // unsharded engine's (the identity is per pinned plan).
  query::QueryProfile profile = core::MakeAggregateProfile(base, epsilon, hooks);
  profile.parallel_shards = static_cast<double>(sharded.num_shards());
  profile.transport_overhead = router.CostPerMessage();
  const query::PlanChoice choice = query::ChoosePlan(profile);
  const query::PlanKind plan = core::ResolveAggregatePlan(
      choice.kind, agg, attr, epsilon, bound.exact() ? core::Mode::kExact : mode);

  if (plan != query::PlanKind::kPointIndexJoin) {
    // Non-sharded plans never scatter: they execute against the base
    // snapshot, byte-identical to the unsharded engine by construction.
    // Pin the plan chosen here — the base's own optimizer pass must not
    // second-guess it.
    core::AggregateAnswer answer = core::ExecuteAggregate(
        base, agg, attr, epsilon,
        epsilon <= 0.0 ? core::Mode::kExact : core::ModeForPlan(plan), hooks);
    answer.stats.explain = choice.explain;
    return answer;
  }

  core::AggregateAnswer answer;
  answer.stats.plan = plan;
  answer.stats.explain = choice.explain;

  Timer timer;
  DBSA_CHECK(agg == join::AggKind::kCount || agg == join::AggKind::kSum ||
             agg == join::AggKind::kAvg);
  const int level = base.grid.LevelForEpsilon(epsilon);
  answer.stats.hr_level = level;
  answer.stats.achieved_epsilon = base.grid.AchievedEpsilon(level);

  const std::vector<geom::Polygon>& polys = base.regions->polys;
  std::vector<join::CellAggregate> per_poly(polys.size());
  std::unique_ptr<std::atomic<uint32_t>[]> touched(
      new std::atomic<uint32_t>[sharded.num_shards()]);
  for (size_t s = 0; s < sharded.num_shards(); ++s) touched[s].store(0);
  const auto one_poly = [&](size_t j) {
    const std::shared_ptr<const raster::HierarchicalRaster> hr =
        core::HrForPolygon(base, hooks, j, polys[j], epsilon);
    const ObjectKey object(static_cast<uint64_t>(j));
    per_poly[j] =
        router.ScatterGather(*hr, &object, level, bound, hooks, touched.get());
  };
  core::RunMaybeParallel(hooks, polys.size(), one_poly);

  // Gather: canonical — serial in polygon order, ascending-shard merges
  // already folded inside ScatterGather — so (per pinned plan) identical
  // to the unsharded point-index plan.
  std::vector<join::CellAggregate> per_region(base.regions->num_regions);
  for (size_t j = 0; j < polys.size(); ++j) {
    answer.stats.query_cells += per_poly[j].query_cells;
    per_region[base.regions->region_of[j]].Merge(per_poly[j]);
  }
  answer.stats.index_bytes = sharded.IndexBytes();
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    answer.stats.shards_probed += touched[s].load(std::memory_order_relaxed);
  }
  core::RowsFromRegionAggregates(per_region, agg, &answer.rows);
  answer.stats.elapsed_ms = timer.Millis();
  return answer;
}

core::CountAnswer ExecuteCount(ShardRouter& router, const geom::Polygon& poly,
                               const query::ErrorBound& bound,
                               const core::ExecHooks& hooks) {
  const core::EngineState& base = router.sharded().base();
  if (bound.exact()) return core::ExecuteCount(base, poly, bound, hooks);
  core::CountAnswer out;
  Timer timer;
  const double epsilon = bound.EffectiveEpsilon(base.grid);
  const std::shared_ptr<const raster::HierarchicalRaster> hr =
      core::HrForPolygon(base, hooks, core::kAdHocPolygon, poly, epsilon);
  const ObjectKey object = PolygonFingerprint(poly);
  const int level = base.grid.LevelForEpsilon(epsilon);
  const join::CellAggregate agg = router.ScatterGather(
      *hr, &object, level, bound, hooks, nullptr, &out.stats.shards_probed);
  out.range = join::CountRange(agg);
  out.stats.plan = query::PlanKind::kPointIndexJoin;
  out.stats.hr_level = level;
  out.stats.achieved_epsilon = base.grid.AchievedEpsilon(level);
  out.stats.query_cells = agg.query_cells;
  out.stats.index_bytes = router.sharded().IndexBytes();
  out.stats.elapsed_ms = timer.Millis();
  return out;
}

core::SelectAnswer ExecuteSelect(ShardRouter& router, const geom::Polygon& poly,
                                 const query::ErrorBound& bound,
                                 const core::ExecHooks& hooks) {
  const core::EngineState& base = router.sharded().base();
  if (bound.exact()) return core::ExecuteSelect(base, poly, bound, hooks);
  core::SelectAnswer out;
  Timer timer;
  const double epsilon = bound.EffectiveEpsilon(base.grid);
  const std::shared_ptr<const raster::HierarchicalRaster> hr =
      core::HrForPolygon(base, hooks, core::kAdHocPolygon, poly, epsilon);
  const ObjectKey object = PolygonFingerprint(poly);
  const int level = base.grid.LevelForEpsilon(epsilon);
  std::vector<std::pair<uint64_t, uint32_t>> keyed =
      router.SelectKeyed(*hr, &object, level, bound, hooks,
                         &out.stats.shards_probed, &out.stats.query_cells);
  // Canonicalize: the unsharded index emits ids in (leaf key, row id)
  // order — disjoint cells ascending, canonical tie-break inside each
  // cell (see PrefixSumIndex::Build) — and re-sorting the shard union by
  // the same key restores that order bit-for-bit.
  std::sort(keyed.begin(), keyed.end());
  out.ids.reserve(keyed.size());
  for (const auto& [key, id] : keyed) out.ids.push_back(id);
  out.stats.plan = query::PlanKind::kPointIndexJoin;
  out.stats.hr_level = level;
  out.stats.achieved_epsilon = base.grid.AchievedEpsilon(level);
  out.stats.index_bytes = router.sharded().IndexBytes();
  out.stats.elapsed_ms = timer.Millis();
  return out;
}

}  // namespace dbsa::service
