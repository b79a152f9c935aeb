#include "cluster/router.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "cache/cache_directory.h"
#include "cluster/coalescer.h"
#include "common/strings.h"

namespace scads {

void RouterWindow::MergeFrom(const RouterWindow& other) {
  read_latency.Merge(other.read_latency);
  write_latency.Merge(other.write_latency);
  reads_ok += other.reads_ok;
  reads_failed += other.reads_failed;
  writes_ok += other.writes_ok;
  writes_failed += other.writes_failed;
  deadline_exceeded += other.deadline_exceeded;
  replica_picks += other.replica_picks;
  replica_steers += other.replica_steers;
  breaker_skips += other.breaker_skips;
  for (const auto& [node, picks] : other.picks_by_node) picks_by_node[node] += picks;
}

Router::Router(NodeId client_id, Executor* loop, MessageFabric* network, ClusterState* cluster,
               RouterConfig config, uint64_t seed)
    : client_id_(client_id),
      loop_(loop),
      network_(network),
      cluster_(cluster),
      config_(config),
      breaker_(std::make_unique<CircuitBreaker>(cluster, loop->clock(), config.breaker,
                                               seed ^ 0x62726b72ULL)),
      selector_(MakeSelector(config.selector, cluster, seed ^ 0x73656c65ULL)) {
  selector_->set_breaker(breaker_.get());
}

void Router::CountPick(const ReplicaPick& pick) {
  if (!pick.policy) return;
  ++window_.replica_picks;
  ++window_.picks_by_node[pick.node];
  if (pick.steered) ++window_.replica_steers;
}

NodeId Router::ChooseReadReplica(const PartitionInfo& partition,
                                 const RequestOptions& options) {
  ReplicaPick pick = selector_->ChooseReadReplica(partition, options, config_.read_target);
  CountPick(pick);
  return pick.node;
}

std::vector<NodeId> Router::ReadCandidates(const PartitionInfo& partition,
                                           const RequestOptions& options) {
  ReplicaPick pick;
  std::vector<NodeId> candidates = selector_->ReadCandidates(
      partition, options, config_.read_target, config_.read_retries, &pick);
  CountPick(pick);
  return candidates;
}

NodeId Router::PickAmong(const std::vector<NodeId>& candidates) {
  if (candidates.empty()) return kInvalidNode;
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Prefer nodes whose breaker would admit a request right now; when every
  // candidate is refused there is nothing better to do than pick normally
  // (the caller's attempt chain still bounds the damage).
  if (breaker_ != nullptr) {
    std::vector<NodeId> healthy;
    healthy.reserve(candidates.size());
    for (NodeId id : candidates) {
      if (breaker_->Healthy(id)) healthy.push_back(id);
    }
    if (!healthy.empty() && healthy.size() < candidates.size()) {
      ReplicaPick pick = selector_->Pick(healthy);
      CountPick(pick);
      return pick.node;
    }
  }
  ReplicaPick pick = selector_->Pick(candidates);
  CountPick(pick);
  return pick.node;
}

void Router::FinishRead(Time start, const Status& status) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  window_.read_latency.Record(loop_->Now() - start);
  if (status.ok() || IsNotFound(status)) {
    ++window_.reads_ok;
    return;
  }
  ++window_.reads_failed;
  if (IsDeadlineExceeded(status)) ++window_.deadline_exceeded;
}

void Router::FinishWrite(Time start, const Status& status) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  window_.write_latency.Record(loop_->Now() - start);
  // kAborted is an answered request: the system worked, the CAS lost.
  if (status.ok() || IsAborted(status)) {
    ++window_.writes_ok;
    return;
  }
  ++window_.writes_failed;
  if (IsDeadlineExceeded(status)) ++window_.deadline_exceeded;
}

size_t Router::SubBatchLimit(NodeId target, const RequestOptions& options, Time now) const {
  const AdaptiveBatchConfig& ab = config_.adaptive_batch;
  if (!ab.enabled) return std::numeric_limits<size_t>::max();
  size_t min_batch = std::max<size_t>(1, ab.min_sub_batch);
  size_t max_batch = std::max(min_batch, ab.max_sub_batch);
  // Quadratic shrink: at a busy server the sojourn of a batch scales with
  // its service lump, so the cap must fall faster than the pressure rises
  // for the completion tail to actually flatten.
  double pressure = cluster_->NodeLoad(target).Pressure();
  double idle = (1.0 - pressure) * (1.0 - pressure);
  double size = static_cast<double>(min_batch) +
                idle * static_cast<double>(max_batch - min_batch);
  // Deadline weighting: a request whose budget is mostly gone sends small,
  // shed-eligible batches — if they shed, little is lost; if they land,
  // they are served soonest.
  if (options.has_deadline() && options.deadline > 0) {
    double remaining = static_cast<double>(options.deadline_at - now) /
                       static_cast<double>(options.deadline);
    remaining = std::clamp(remaining, 0.0, 1.0);
    size = static_cast<double>(min_batch) +
           remaining * (size - static_cast<double>(min_batch));
  }
  return std::clamp(static_cast<size_t>(size), min_batch, max_batch);
}

Duration Router::ClampedTimeout(const RequestOptions& options, Time now,
                                bool* budget_bound) const {
  Duration timeout = options.ClampTimeout(config_.request_timeout, now);
  *budget_bound = timeout < config_.request_timeout;
  return timeout;
}

Status Router::TimeoutStatus(bool budget_bound, std::string_view what) {
  if (budget_bound) {
    return DeadlineExceededError(std::string(what) + ": deadline budget exhausted");
  }
  return UnavailableError(std::string(what) + " timeout");
}

template <typename Reply, typename Serve, typename OnReply, typename OnTimeout>
void Router::Attempt(NodeId target, int64_t request_bytes, const RequestOptions& options,
                     const char* what, bool feeds_breaker, Serve serve, OnReply on_reply,
                     OnTimeout on_timeout) {
  bool budget_bound = false;
  Duration timeout = ClampedTimeout(options, loop_->Now(), &budget_bound);
  RunAttempt<Reply>(
      loop_, network_, client_id_, target, request_bytes, timeout, std::move(serve),
      [this, target, feeds_breaker, on_reply = std::move(on_reply)](Reply reply) mutable {
        std::lock_guard<std::recursive_mutex> relock(mu_);
        // Any reply — even an error reply — proves the node alive.
        if (feeds_breaker && breaker_ != nullptr) breaker_->RecordSuccess(target);
        on_reply(std::move(reply));
      },
      [this, target, feeds_breaker, budget_bound, what,
       on_timeout = std::move(on_timeout)]() mutable {
        std::lock_guard<std::recursive_mutex> relock(mu_);
        // A full attempt timeout is transport-level evidence of death; a
        // budget-clamped timeout is the deadline running out, which says
        // nothing about the node.
        if (feeds_breaker && !budget_bound && breaker_ != nullptr) {
          breaker_->RecordFailure(target);
        }
        on_timeout(TimeoutStatus(budget_bound, what));
      });
}

void Router::MaybeCacheRead(const std::string& key, Time as_of, const Result<Record>& result) {
  if (cache_ == nullptr || !result.ok() || result->tombstone) return;
  cache_->StorePoint(key, result->value, result->version, as_of);
}

void Router::GetAttempt(const std::string& key, std::vector<NodeId> candidates, size_t index,
                        Time start, RequestOptions options,
                        std::function<void(Result<Record>)> callback) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Budget check precedes the candidate check: a retry whose budget is gone
  // sheds with the deadline error, not a synthetic unreachability error.
  if (options.Expired(loop_->Now())) {
    FailRead(start, TimeoutStatus(/*budget_bound=*/true, "read"), callback);
    return;
  }
  if (index >= candidates.size()) {
    FailRead(start, UnavailableError("all replicas unreachable"), callback);
    return;
  }
  NodeId target = candidates[index];
  StorageNode* node = cluster_->GetNode(target);
  if (node == nullptr) {
    GetAttempt(key, std::move(candidates), index + 1, start, std::move(options),
               std::move(callback));
    return;
  }
  // O(1) failover: an open breaker refuses the attempt outright, so this
  // read moves to the next replica without paying the timeout a dead node
  // would cost.
  if (breaker_ != nullptr && !breaker_->TryAcquire(target)) {
    ++window_.breaker_skips;
    GetAttempt(key, std::move(candidates), index + 1, start, std::move(options),
               std::move(callback));
    return;
  }
  // Each attempt may wait at most the remaining deadline budget; the retry
  // it hands off to then sees an expired budget and sheds.
  int64_t request_bytes = static_cast<int64_t>(key.size()) + 4;
  RequestPriority priority = options.priority;
  Attempt<PointReadReply>(
      target, request_bytes, options, "read", /*feeds_breaker=*/true,
      [node, key, priority](std::function<void(PointReadReply)> respond) {
        node->HandleGet(key, priority, std::move(respond));
      },
      [this, key, start, callback](PointReadReply reply) {
        FinishRead(start, reply.result.status());
        MaybeCacheRead(key, reply.as_of, reply.result);
        callback(std::move(reply.result));
      },
      [this, key, candidates = std::move(candidates), index, start, options,
       callback](const Status&) mutable {
        // Try the next replica; the attempt budget is candidates.size().
        GetAttempt(key, std::move(candidates), index + 1, start, std::move(options),
                   std::move(callback));
      });
}

bool Router::CacheEligible(const RequestOptions& options) const {
  if (cache_ == nullptr) return false;
  switch (options.read_mode) {
    case ReadMode::kCacheOk:
      return true;
    // Pinned/replica reads (session fallbacks, read-modify-write) always
    // reach a storage node, and a deployment configured for primary-only
    // reads opted for freshness over load spreading — honor that too.
    case ReadMode::kDefault:
      return config_.read_target != ReadTarget::kPrimary;
    case ReadMode::kAnyReplica:
    case ReadMode::kPrimaryOnly:
      return false;
  }
  return false;
}

void Router::Get(const std::string& key, RequestOptions options,
                 std::function<void(Result<Record>)> callback) {
  options.Arm(loop_->Now());
  if (options.Expired(loop_->Now())) {
    FailRead(loop_->Now(), TimeoutStatus(/*budget_bound=*/true, "read"), callback);
    return;
  }
  // Cache hot path, consulted BEFORE the router mutex: the directory's
  // shard locks are leaves (see cache_directory.h), so a hit on one client
  // thread never contends with this router's in-flight completion claims.
  // Entries are served fresh under the *request's* effective staleness
  // bound (and at or above its session version floor) without touching a
  // storage node; misses fall through to the locked path unchanged. A
  // zero-cost hit on a real-threads backend completes right here, on the
  // caller's thread, with no lock held by the time the callback runs.
  if (CacheEligible(options)) {
    Record cached;
    if (cache_->LookupPoint(key, loop_->Now(), options, &cached)) {
      Time start = loop_->Now();
      RunAfterModelled(loop_, cache_->hit_service_time(),
                       [this, start, cached = std::move(cached),
                        callback = std::move(callback)]() mutable {
        FinishRead(start, Status::Ok());
        callback(std::move(cached));
      });
      return;
    }
  }
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const PartitionInfo& partition = cluster_->partitions()->ForKey(key);
  if (partition.replicas.empty()) {
    FailRead(loop_->Now(), UnavailableError("partition has no replicas"), callback);
    return;
  }
  std::vector<NodeId> candidates = ReadCandidates(partition, options);
  // Coalescing: concurrent reads of the same key share one node round
  // trip, and same-node leaders within the hold window share one message.
  // Pinned reads keep their own serve (their semantics demand it).
  if (coalescer_ != nullptr && coalescer_->enabled() && options.allow_coalesce &&
      options.read_mode != ReadMode::kPrimaryOnly && !candidates.empty()) {
    ReadCoalescer::PendingRead read;
    read.router = this;
    read.key = key;
    read.candidates = std::move(candidates);
    read.options = std::move(options);
    read.start = loop_->Now();
    read.callback = std::move(callback);
    coalescer_->Submit(std::move(read));
    return;
  }
  GetAttempt(key, std::move(candidates), 0, loop_->Now(), std::move(options),
             std::move(callback));
}

void Router::FinishCoalescedRead(const std::string& key, Time start, Result<Record> result,
                                 Time as_of, bool store_in_cache,
                                 const std::function<void(Result<Record>)>& callback) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FinishRead(start, result.status());
  if (store_in_cache) MaybeCacheRead(key, as_of, result);
  callback(std::move(result));
}

void Router::RedispatchCoalesced(const std::string& key, RequestOptions options, Time start,
                                 NodeId exclude, std::function<void(Result<Record>)> callback) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const PartitionInfo& partition = cluster_->partitions()->ForKey(key);
  if (partition.replicas.empty()) {
    FailRead(start, UnavailableError("partition has no replicas"), callback);
    return;
  }
  // Candidates come straight from the selector, NOT via ReadCandidates:
  // this read was already counted as a pick when it first dispatched, and
  // counting the re-dispatch would inflate the pick/steer window exactly
  // during failure windows, when the Director most needs the signal clean.
  std::vector<NodeId> candidates = selector_->ReadCandidates(
      partition, options, config_.read_target, config_.read_retries);
  if (exclude != kInvalidNode) {
    std::vector<NodeId> kept;
    for (NodeId candidate : candidates) {
      if (candidate != exclude) kept.push_back(candidate);
    }
    // A single-replica partition has nowhere else to go: retry the failed
    // node rather than failing outright (its timeout chain still bounds
    // the attempt).
    if (!kept.empty()) candidates = std::move(kept);
  }
  GetAttempt(key, std::move(candidates), 0, start, std::move(options), std::move(callback));
}

void Router::GetFromReplica(const std::string& key, NodeId replica, RequestOptions options,
                            std::function<void(Result<Record>)> callback) {
  options.Arm(loop_->Now());
  GetAttempt(key, {replica}, 0, loop_->Now(), std::move(options), std::move(callback));
}

// ---------------------------------------------------------------- MultiGet

struct Router::MultiGetState {
  // One in-flight unique key: where it may still be served from, and which
  // caller slots (duplicates) it fills.
  struct Fetch {
    std::string key;
    std::vector<NodeId> candidates;
    size_t next_candidate = 0;
    std::vector<size_t> slots;
    bool resolved = false;
  };

  Time start = 0;
  RequestOptions options;  // shared deadline budget for the whole fan-out
  std::vector<std::optional<Result<Record>>> results;  // caller order
  std::vector<Fetch> fetches;
  size_t unresolved = 0;
  std::function<void(std::vector<Result<Record>>)> callback;

  void Resolve(size_t fetch_id, Result<Record> result) {
    Fetch& fetch = fetches[fetch_id];
    if (fetch.resolved) return;
    fetch.resolved = true;
    for (size_t slot : fetch.slots) results[slot] = result;
    --unresolved;
  }
};

void Router::FinishMultiGet(const std::shared_ptr<MultiGetState>& state) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Every logical read in the batch is accounted individually, so the SLA
  // monitor and Director see the same read volume batched or not.
  for (const auto& slot : state->results) FinishRead(state->start, slot->status());
  std::vector<Result<Record>> out;
  out.reserve(state->results.size());
  for (auto& slot : state->results) out.push_back(std::move(*slot));
  state->callback(std::move(out));
}

void Router::DispatchMultiGet(const std::shared_ptr<MultiGetState>& state,
                              std::vector<size_t> fetch_ids) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Budget-exhausted shedding mid-fan-out: keys already answered keep their
  // results; everything still pending (first dispatch or a redirect after a
  // timed-out/shed sub-batch) resolves kDeadlineExceeded.
  if (state->options.Expired(loop_->Now())) {
    for (size_t fetch_id : fetch_ids) {
      state->Resolve(fetch_id,
                     DeadlineExceededError("multiget: deadline budget exhausted mid-fan-out"));
    }
    if (state->unresolved == 0) FinishMultiGet(state);
    return;
  }
  // Group the still-pending fetches by the node that should serve them now.
  // The breaker verdict is memoized per dispatch: TryAcquire consumes the
  // half-open probe token, and one dispatch probing a recovering node with
  // one key per sub-batch is exactly the intended dose.
  std::map<NodeId, std::vector<size_t>> by_node;
  std::map<NodeId, bool> admitted;
  for (size_t fetch_id : fetch_ids) {
    MultiGetState::Fetch& fetch = state->fetches[fetch_id];
    if (fetch.resolved) continue;
    bool placed = false;
    while (fetch.next_candidate < fetch.candidates.size()) {
      NodeId target = fetch.candidates[fetch.next_candidate];
      if (cluster_->GetNode(target) == nullptr) {
        ++fetch.next_candidate;  // unregistered node: skip without a timeout
        continue;
      }
      if (breaker_ != nullptr) {
        auto [it, fresh] = admitted.try_emplace(target, false);
        if (fresh) it->second = breaker_->TryAcquire(target);
        if (!it->second) {
          ++window_.breaker_skips;
          ++fetch.next_candidate;  // open breaker: fail over without a timeout
          continue;
        }
      }
      by_node[target].push_back(fetch_id);
      placed = true;
      break;
    }
    if (!placed) state->Resolve(fetch_id, UnavailableError("all replicas unreachable"));
  }
  if (state->unresolved == 0) {
    FinishMultiGet(state);
    return;
  }
  // Load-adaptive sizing: each node's group ships as sub-batches no larger
  // than its current load signal (and the remaining deadline budget) allow.
  // The redirect path re-enters here, so retries are re-sized against fresh
  // load too.
  Time now = loop_->Now();
  for (auto& [target, group] : by_node) {
    size_t limit = SubBatchLimit(target, state->options, now);
    for (size_t offset = 0; offset < group.size(); offset += limit) {
      size_t count = std::min(limit, group.size() - offset);
      SendMultiGetSubBatch(
          state, target,
          std::vector<size_t>(group.begin() + static_cast<ptrdiff_t>(offset),
                              group.begin() + static_cast<ptrdiff_t>(offset + count)));
    }
  }
}

void Router::SendMultiGetSubBatch(const std::shared_ptr<MultiGetState>& state, NodeId target,
                                  std::vector<size_t> group) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  StorageNode* node = cluster_->GetNode(target);
  std::vector<std::string> batch_keys;
  int64_t request_bytes = 0;
  batch_keys.reserve(group.size());
  for (size_t fetch_id : group) {
    const std::string& key = state->fetches[fetch_id].key;
    batch_keys.push_back(key);
    request_bytes += static_cast<int64_t>(key.size()) + 4;
  }
  RequestPriority priority = state->options.priority;
  Attempt<MultiGetReply>(
      target, request_bytes, state->options, "multiget", /*feeds_breaker=*/true,
      [node, priority, batch_keys = std::move(batch_keys)](
          std::function<void(MultiGetReply)> respond) {
        node->HandleMultiGet(batch_keys, priority, std::move(respond));
      },
      [this, state, group](MultiGetReply reply) {
        // Shed keys (node overload) move to their next replica candidate;
        // answered keys resolve and populate the cache.
        std::vector<size_t> retry;
        for (size_t i = 0; i < group.size(); ++i) {
          size_t fetch_id = group[i];
          MultiGetState::Fetch& fetch = state->fetches[fetch_id];
          if (fetch.resolved) continue;
          Result<Record>& result = reply.results[i];
          if (!result.ok() && result.status().code() == StatusCode::kResourceExhausted) {
            ++fetch.next_candidate;
            if (fetch.next_candidate >= fetch.candidates.size()) {
              // Every candidate shed: surface the overload itself (matching
              // single-Get semantics), not a synthetic unreachability error.
              state->Resolve(fetch_id, std::move(result));
            } else {
              retry.push_back(fetch_id);
            }
            continue;
          }
          MaybeCacheRead(fetch.key, reply.as_of[i], result);
          state->Resolve(fetch_id, std::move(result));
        }
        if (!retry.empty()) {
          DispatchMultiGet(state, std::move(retry));
        } else if (state->unresolved == 0) {
          FinishMultiGet(state);
        }
      },
      [this, state, group](const Status&) {
        // The node (or the path to it) is unresponsive: move the whole
        // sub-batch to each key's next replica candidate.
        std::vector<size_t> retry;
        for (size_t fetch_id : group) {
          MultiGetState::Fetch& fetch = state->fetches[fetch_id];
          if (fetch.resolved) continue;
          ++fetch.next_candidate;
          retry.push_back(fetch_id);
        }
        if (!retry.empty()) DispatchMultiGet(state, std::move(retry));
      });
}

void Router::MultiGet(const std::vector<std::string>& keys, RequestOptions options,
                      std::function<void(std::vector<Result<Record>>)> callback) {
  if (keys.empty()) {
    callback({});
    return;
  }
  options.Arm(loop_->Now());
  auto state = std::make_shared<MultiGetState>();
  state->start = loop_->Now();
  state->options = options;
  state->results.resize(keys.size());
  state->callback = std::move(callback);
  if (options.Expired(loop_->Now())) {
    for (auto& slot : state->results) {
      slot = Result<Record>(DeadlineExceededError("multiget: deadline budget exhausted"));
    }
    FinishMultiGet(state);
    return;
  }

  // Pass 1, BEFORE the router mutex: dedup the key set and serve
  // cache-fresh keys through the directory's leaf shard locks, so an
  // all-hit batch never contends with this router's in-flight completions
  // (same lock-free hot path as Get).
  bool cache_eligible = CacheEligible(options);
  std::map<std::string, size_t> fetch_index;  // key -> fetches index
  std::map<std::string, size_t> cached_slot;  // cache-hit key -> first slot
  for (size_t slot = 0; slot < keys.size(); ++slot) {
    const std::string& key = keys[slot];
    auto cached_it = cached_slot.find(key);
    if (cached_it != cached_slot.end()) {
      state->results[slot] = state->results[cached_it->second];
      continue;
    }
    auto fetch_it = fetch_index.find(key);
    if (fetch_it != fetch_index.end()) {
      state->fetches[fetch_it->second].slots.push_back(slot);
      continue;
    }
    if (cache_eligible) {
      Record cached;
      if (cache_->LookupPoint(key, loop_->Now(), options, &cached)) {
        state->results[slot] = Result<Record>(std::move(cached));
        cached_slot.emplace(key, slot);
        continue;
      }
    }
    MultiGetState::Fetch fetch;
    fetch.key = key;
    fetch.slots.push_back(slot);
    fetch_index.emplace(key, state->fetches.size());
    state->fetches.push_back(std::move(fetch));
  }
  state->unresolved = state->fetches.size();
  if (state->unresolved == 0) {
    // Every unique key was a cache hit (misses — even unroutable ones —
    // become fetches): charge one cache service interval, like the
    // point-read hit path (inline when it is zero on real threads).
    RunAfterModelled(loop_, cache_->hit_service_time(),
                     [this, state] { FinishMultiGet(state); });
    return;
  }
  // Pass 2, under the router mutex: each miss's replica candidate list from
  // one ClusterState lookup, then the pre-existing dispatch path unchanged.
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (MultiGetState::Fetch& fetch : state->fetches) {
    fetch.candidates = ReadCandidates(cluster_->partitions()->ForKey(fetch.key), state->options);
  }
  std::vector<size_t> all(state->fetches.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  DispatchMultiGet(state, std::move(all));
}

void Router::Scan(const std::string& start, const std::string& end, size_t limit,
                  RequestOptions options, std::function<void(Result<std::vector<Record>>)> callback) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Time started = loop_->Now();
  options.Arm(started);
  if (options.Expired(started)) {
    FailRead(started, TimeoutStatus(/*budget_bound=*/true, "scan"), callback);
    return;
  }
  const PartitionInfo& partition = cluster_->partitions()->ForKey(start);
  if (!end.empty() && !(partition.end.empty() || end <= partition.end)) {
    FailRead(started,
             InvalidArgumentError("scan range spans partitions; fan out at the query layer"),
             callback);
    return;
  }
  NodeId target = ChooseReadReplica(partition, options);
  StorageNode* node = cluster_->GetNode(target);
  if (node == nullptr) {
    FailRead(started, UnavailableError("replica not registered"), callback);
    return;
  }
  auto finish = [this, started, callback](Result<std::vector<Record>> result) {
    FinishRead(started, result.status());
    callback(std::move(result));
  };
  int64_t request_bytes = static_cast<int64_t>(start.size() + end.size()) + 16;
  RequestPriority priority = options.priority;
  Attempt<Result<std::vector<Record>>>(
      target, request_bytes, options, "scan", /*feeds_breaker=*/false,
      [node, start, end, limit, priority](
          std::function<void(Result<std::vector<Record>>)> respond) {
        node->HandleScan(start, end, limit, priority, std::move(respond));
      },
      finish, [finish](Status status) { finish(std::move(status)); });
}

void Router::SendWrite(const WalRecord& record, AckMode ack, const RequestOptions& options,
                       std::function<void(Status)> callback) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Time started = loop_->Now();
  // Write coalescing: concurrent puts of the same key merge (last-write-
  // wins) into one primary round trip. Deletes keep their own serve —
  // merging a put over a delete (or vice versa) would reorder intent.
  if (write_coalescer_ != nullptr && write_coalescer_->enabled() && options.allow_coalesce &&
      record.type == WalRecord::Type::kPut && !options.Expired(started)) {
    WriteCoalescer::PendingWrite write;
    write.router = this;
    write.record = record;
    write.ack = ack;
    write.options = options;
    write.start = started;
    write.callback = std::move(callback);
    write_coalescer_->Submit(std::move(write));
    return;
  }
  // Shared, not copied per closure: the request and the completion both
  // need the record's value payload.
  auto shared = std::make_shared<const WalRecord>(record);
  ShipWrite(shared, ack, options, SettleWrite(started, shared, std::move(callback)));
}

void Router::DispatchCoalescedWrite(const WalRecord& record, AckMode ack,
                                    const RequestOptions& options,
                                    std::function<void(Status)> callback) {
  ShipWrite(std::make_shared<const WalRecord>(record), ack, options, std::move(callback));
}

void Router::FinishCoalescedWrite(Time start, const Status& status, const WalRecord& winner) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  FinishWrite(start, status);
  // Cache coherence with the *winning* record: it is what the primary
  // stored, and its version is >= every member's own stamp.
  CacheAckedWrite(status, winner);
}

std::function<void(Status)> Router::SettleWrite(Time start, std::shared_ptr<const WalRecord> record,
                                                std::function<void(Status)> callback) {
  return [this, start, record = std::move(record), callback = std::move(callback)](Status status) {
    FinishWrite(start, status);
    CacheAckedWrite(status, *record);
    callback(std::move(status));
  };
}

void Router::CacheAckedWrite(const Status& status, const WalRecord& record) {
  if (cache_ == nullptr || !status.ok()) return;
  if (record.type == WalRecord::Type::kPut) {
    cache_->OnPut(record.key, record.value, record.version, loop_->Now());
  } else {
    cache_->OnDelete(record.key, record.version, loop_->Now());
  }
}

void Router::ShipWrite(const std::shared_ptr<const WalRecord>& record, AckMode ack,
                       const RequestOptions& options, std::function<void(Status)> callback) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (options.Expired(loop_->Now())) {
    callback(TimeoutStatus(/*budget_bound=*/true, "write"));
    return;
  }
  const PartitionInfo& partition = cluster_->partitions()->ForKey(record->key);
  NodeId target = partition.primary();
  StorageNode* node = cluster_->GetNode(target);
  if (node == nullptr) {
    callback(UnavailableError("primary not registered"));
    return;
  }
  PartitionId pid = partition.id;
  RequestPriority priority = options.priority;
  // Writes never retry (no idempotence token): a timeout completes the
  // write with its timeout status.
  Attempt<Status>(
      target, WireSize(*record), options, "write", /*feeds_breaker=*/false,
      [node, pid, record, ack, priority](std::function<void(Status)> respond) {
        node->HandleWrite(pid, *record, ack, priority, std::move(respond));
      },
      callback, callback);
}

void Router::MultiWrite(std::vector<WriteOp> ops, AckMode ack, RequestOptions options,
                        std::function<void(std::vector<Status>)> callback) {
  if (ops.empty()) {
    callback({});
    return;
  }
  const size_t n = ops.size();
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Time started = loop_->Now();
  options.Arm(started);
  if (options.Expired(started)) {
    std::vector<Status> shed(n, TimeoutStatus(/*budget_bound=*/true, "multiwrite"));
    for (const Status& status : shed) FinishWrite(started, status);
    callback(std::move(shed));
    return;
  }
  struct BatchState {
    std::vector<WalRecord> records;  // one per op, all with the batch's stamp
    std::vector<Status> statuses;
    std::map<std::string, size_t> winner_of;  // key -> winning op index
    size_t chunks_pending = 0;
    std::function<void(std::vector<Status>)> callback;
  };
  auto state = std::make_shared<BatchState>();
  Version version{loop_->Now(), client_id_};
  state->records.resize(n);
  for (size_t i = 0; i < n; ++i) {
    WalRecord& record = state->records[i];
    record.type =
        ops[i].kind == WriteOp::Kind::kPut ? WalRecord::Type::kPut : WalRecord::Type::kDelete;
    record.key = std::move(ops[i].key);
    if (ops[i].kind == WriteOp::Kind::kPut) record.value = std::move(ops[i].value);
    record.version = version;
  }
  state->statuses.assign(n, Status::Ok());
  state->callback = std::move(callback);
  // Same-key ops coalesce to the last one: the whole batch carries one
  // version stamp, so "apply in order" degenerates to "last op wins" anyway;
  // shipping only the winner keeps that outcome instead of letting the
  // engine's newer-version rule drop the later op as superseded.
  for (size_t i = 0; i < n; ++i) state->winner_of[state->records[i].key] = i;

  auto finalize = [this, state, started]() {
    // Coalesced losers inherit their winner's outcome; then every logical
    // write is accounted individually, batched or not.
    for (size_t i = 0; i < state->records.size(); ++i) {
      auto it = state->winner_of.find(state->records[i].key);
      if (it->second != i) state->statuses[i] = state->statuses[it->second];
    }
    for (const Status& status : state->statuses) FinishWrite(started, status);
    state->callback(std::move(state->statuses));
  };

  // Group the winning ops by the primary that owns each key.
  struct Group {
    std::vector<size_t> op_ids;
    std::vector<MultiWriteItem> items;
  };
  std::map<NodeId, Group> groups;
  for (const auto& [key, op_id] : state->winner_of) {
    if (key.empty()) {
      // Per-op validation, as with single writes: one bad op must not fail
      // (or poison the engine's batch apply for) its siblings.
      state->statuses[op_id] = InvalidArgumentError("empty key");
      continue;
    }
    const PartitionInfo& partition = cluster_->partitions()->ForKey(key);
    NodeId target = partition.primary();
    if (cluster_->GetNode(target) == nullptr) {
      state->statuses[op_id] = UnavailableError("primary not registered");
      continue;
    }
    Group& group = groups[target];
    group.op_ids.push_back(op_id);
    group.items.push_back(MultiWriteItem{partition.id, state->records[op_id]});
  }

  // Load-adaptive sizing: each primary's ops ship as sub-batches capped by
  // its load signal and the remaining deadline budget, the same rule as
  // MultiGet (SubBatchLimit). Writes do not redirect — a shed or timed-out
  // chunk fails only its own ops. Every chunk is counted before any ships.
  struct Chunk {
    NodeId target = kInvalidNode;
    std::vector<size_t> op_ids;
    std::vector<MultiWriteItem> items;
    int64_t bytes = 0;
  };
  std::vector<Chunk> chunks;
  Time now = loop_->Now();
  for (auto& [target, group] : groups) {
    size_t limit = SubBatchLimit(target, options, now);
    for (size_t offset = 0; offset < group.op_ids.size(); offset += limit) {
      size_t count = std::min(limit, group.op_ids.size() - offset);
      Chunk& chunk = chunks.emplace_back();
      chunk.target = target;
      for (size_t i = offset; i < offset + count; ++i) {
        chunk.bytes += WireSize(group.items[i].record);
        chunk.op_ids.push_back(group.op_ids[i]);
        chunk.items.push_back(std::move(group.items[i]));
      }
    }
  }
  state->chunks_pending = chunks.size();
  if (chunks.empty()) {
    finalize();
    return;
  }

  RequestPriority priority = options.priority;
  for (Chunk& chunk : chunks) {
    StorageNode* node = cluster_->GetNode(chunk.target);
    auto settle = [this, state, op_ids = chunk.op_ids, finalize](std::vector<Status> statuses) {
      for (size_t i = 0; i < op_ids.size(); ++i) {
        Status status = i < statuses.size() ? std::move(statuses[i])
                                            : InternalError("short multi-write reply");
        // Synchronous cache coherence, same as single writes.
        CacheAckedWrite(status, state->records[op_ids[i]]);
        state->statuses[op_ids[i]] = std::move(status);
      }
      if (--state->chunks_pending == 0) finalize();
    };
    Attempt<std::vector<Status>>(
        chunk.target, chunk.bytes, options, "write", /*feeds_breaker=*/false,
        [node, items = std::move(chunk.items), ack, priority](
            std::function<void(std::vector<Status>)> respond) mutable {
          node->HandleMultiWrite(std::move(items), ack, priority, std::move(respond));
        },
        settle,
        [settle, size = chunk.op_ids.size()](const Status& status) {
          // Writes never retry (no idempotence token): the node's whole
          // sub-batch fails; other nodes' sub-batches are unaffected.
          settle(std::vector<Status>(size, status));
        });
  }
}

void Router::Put(const std::string& key, const std::string& value, AckMode ack,
                 RequestOptions options, std::function<void(Status)> callback) {
  PutWithVersion(key, value, ack, std::move(options),
                 [callback = std::move(callback)](Result<Version> result) {
                   callback(result.ok() ? Status::Ok() : result.status());
                 });
}

void Router::PutWithVersion(const std::string& key, const std::string& value, AckMode ack,
                            RequestOptions options,
                            std::function<void(Result<Version>)> callback) {
  WalRecord record;
  record.type = WalRecord::Type::kPut;
  record.key = key;
  record.value = value;
  StampAndSend(std::move(record), ack, std::move(options), std::move(callback));
}

void Router::Delete(const std::string& key, AckMode ack, RequestOptions options,
                    std::function<void(Status)> callback) {
  DeleteWithVersion(key, ack, std::move(options),
                    [callback = std::move(callback)](Result<Version> result) {
                      callback(result.ok() ? Status::Ok() : result.status());
                    });
}

void Router::DeleteWithVersion(const std::string& key, AckMode ack, RequestOptions options,
                               std::function<void(Result<Version>)> callback) {
  WalRecord record;
  record.type = WalRecord::Type::kDelete;
  record.key = key;
  StampAndSend(std::move(record), ack, std::move(options), std::move(callback));
}

void Router::StampAndSend(WalRecord record, AckMode ack, RequestOptions options,
                          std::function<void(Result<Version>)> callback) {
  options.Arm(loop_->Now());
  record.version = Version{loop_->Now(), client_id_};
  Version stamped = record.version;
  SendWrite(record, ack, options, [stamped, callback = std::move(callback)](Status status) {
    if (status.ok()) {
      callback(stamped);
    } else {
      callback(std::move(status));
    }
  });
}

void Router::ConditionalPut(const std::string& key, const std::string& value,
                            std::optional<Version> expected, AckMode ack,
                            RequestOptions options, std::function<void(Status)> callback) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Time started = loop_->Now();
  options.Arm(started);
  if (options.Expired(started)) {
    FailWrite(started, TimeoutStatus(/*budget_bound=*/true, "conditional put"), callback);
    return;
  }
  const PartitionInfo& partition = cluster_->partitions()->ForKey(key);
  NodeId target = partition.primary();
  StorageNode* node = cluster_->GetNode(target);
  if (node == nullptr) {
    FailWrite(started, UnavailableError("primary not registered"), callback);
    return;
  }
  auto record = std::make_shared<WalRecord>();
  record->type = WalRecord::Type::kPut;
  record->key = key;
  record->value = value;
  record->version = Version{loop_->Now(), client_id_};
  auto settle = SettleWrite(started, record, std::move(callback));
  PartitionId pid = partition.id;
  RequestPriority priority = options.priority;
  int64_t request_bytes = static_cast<int64_t>(key.size() + value.size()) + 29;
  Attempt<Status>(
      target, request_bytes, options, "write", /*feeds_breaker=*/false,
      [node, pid, record, expected, ack, priority](std::function<void(Status)> respond) {
        node->HandleConditionalPut(pid, record->key, record->value, expected, record->version,
                                   ack, priority, std::move(respond));
      },
      settle, settle);
}

RouterWindow Router::TakeWindow() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  RouterWindow out = std::move(window_);
  window_ = RouterWindow{};
  return out;
}

}  // namespace scads
