#include "cluster/node.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "storage/pagestore/paged_engine.h"

namespace scads {

namespace {
constexpr Duration kMaxRetryDelay = kSecond;
// Smoothing factor for the load-signal EWMAs (sojourn, shed fraction).
constexpr double kLoadEwmaAlpha = 0.2;

// What a shed client request is told, one specialization per reply type:
// every key or item reports kResourceExhausted, so the router can redirect
// each of them.
Status Overloaded() { return ResourceExhaustedError("node overloaded"); }

template <typename Reply>
Reply ShedReply(size_t items);
template <>
Status ShedReply<Status>(size_t) { return Overloaded(); }
template <>
Result<std::vector<Record>> ShedReply<Result<std::vector<Record>>>(size_t) { return Overloaded(); }
template <>
PointReadReply ShedReply<PointReadReply>(size_t) { return PointReadReply{Overloaded(), 0}; }
template <>
std::vector<Status> ShedReply<std::vector<Status>>(size_t items) {
  return std::vector<Status>(items, Overloaded());
}
template <>
MultiGetReply ShedReply<MultiGetReply>(size_t keys) {
  return MultiGetReply{std::vector<Result<Record>>(keys, Overloaded()), std::vector<Time>(keys, 0)};
}

int AcksNeeded(AckMode ack, size_t replica_count) {
  switch (ack) {
    case AckMode::kPrimary:
      return 1;
    case AckMode::kQuorum:
      return static_cast<int>(replica_count / 2 + 1);
    case AckMode::kAll:
      return static_cast<int>(replica_count);
  }
  return 1;
}
}  // namespace

StorageNode::StorageNode(NodeId id, Executor* exec, MessageFabric* network, ClusterState* cluster,
                         NodeConfig config, uint64_t seed)
    : id_(id),
      loop_(exec),
      network_(network),
      cluster_(cluster),
      config_(config),
      rng_(seed ^ 0xab54a98ceb1f0ad2ULL) {
  if (config_.paged_storage.enabled) {
    PagedEngineOptions engine_options;
    engine_options.seed = seed;
    engine_options.config = config_.paged_storage;
    engine_ = std::make_unique<PagedEngine>(loop_, std::move(engine_options));
  } else {
    EngineOptions engine_options;
    engine_options.seed = seed;
    engine_ = std::make_unique<StorageEngine>(engine_options);
  }
}

StorageNode::~StorageNode() { Stop(); }

void StorageNode::set_alive(bool alive) {
  const bool was_alive = alive_.exchange(alive, std::memory_order_acq_rel);
  if (alive && !was_alive) StartRecovery();
}

void StorageNode::Start() {
  if (heartbeat_event_ != Executor::kInvalidTask) return;
  if (config_.watermark_heartbeat <= 0) return;
  heartbeat_event_ =
      loop_->SchedulePeriodic(config_.watermark_heartbeat, [this] { HeartbeatTick(); });
}

void StorageNode::Stop() {
  if (heartbeat_event_ != Executor::kInvalidTask) {
    loop_->Cancel(heartbeat_event_);
    heartbeat_event_ = Executor::kInvalidTask;
  }
  for (auto& [key, stream] : streams_) {
    if (stream.retry_event != Executor::kInvalidTask) {
      loop_->Cancel(stream.retry_event);
      stream.retry_event = Executor::kInvalidTask;
    }
  }
}

Duration StorageNode::queue_delay() const {
  return std::max<Duration>(0, busy_until_.load(std::memory_order_relaxed) - loop_->Now());
}

void StorageNode::InjectBackgroundLoad(Duration service_demand) {
  if (!alive_ || service_demand <= 0) return;
  // Saturation cap: a node can at most accumulate max_queue_delay of
  // backlog; beyond that, real traffic would be shed, so excess background
  // demand is dropped the same way.
  Time now = loop_->Now();
  Duration backlog = std::max<Duration>(0, busy_until_.load(std::memory_order_relaxed) - now);
  Duration admissible = std::max<Duration>(0, config_.max_queue_delay + service_demand / 4 -
                                                  backlog);
  Duration charged = std::min(service_demand, admissible);
  if (charged <= 0) {
    stats_.ops_shed += service_demand / std::max<Duration>(1, config_.get_service_time);
    return;
  }
  AccrueBusy(now, charged);
}

std::optional<Duration> StorageNode::Admit(Duration service, RequestPriority priority,
                                           bool client) {
  Time now = loop_->Now();
  Duration wait = std::max<Duration>(0, busy_until_.load(std::memory_order_relaxed) - now);
  const int pclass = static_cast<int>(priority);
  auto shed = [this, pclass, client]() {
    ++stats_.ops_shed;
    if (client) {
      ++stats_.shed_by_priority[pclass];
    } else {
      ++stats_.replication_sheds;
    }
    double shed_now = shed_ewma_.load(std::memory_order_relaxed);
    shed_ewma_.store(shed_now + kLoadEwmaAlpha * (1.0 - shed_now), std::memory_order_relaxed);
  };
  // Priority shed order: kLow gives up well before the hard cap, so an
  // overloaded node clears background work while kNormal/kHigh still queue.
  Duration shed_at = config_.max_queue_delay;
  if (priority == RequestPriority::kLow) {
    shed_at = static_cast<Duration>(static_cast<double>(config_.max_queue_delay) *
                                    config_.low_priority_shed_fraction);
  }
  // Background (unsampled) traffic: M/M/1-style delay rising steeply as
  // utilization approaches 1; past saturation the overload fraction sheds.
  double rho = background_utilization_.load(std::memory_order_relaxed);
  if (rho > 0) {
    if (rho >= 0.99) {
      // Saturated: kLow sheds outright, kNormal survives an admission
      // lottery matching remaining capacity, kHigh is always queued (it
      // still pays the heavy wait below).
      if (priority == RequestPriority::kLow) {
        shed();
        return std::nullopt;
      }
      double admit_probability = 1.0 / std::max(1.01, rho);
      if (priority != RequestPriority::kHigh && !rng_.Bernoulli(admit_probability)) {
        shed();
        return std::nullopt;
      }
      wait += config_.max_queue_delay / 2 +
              static_cast<Duration>(rng_.Exponential(
                  static_cast<double>(config_.max_queue_delay) / 4));
    } else {
      double mean_wait = rho / (1.0 - rho) * static_cast<double>(service);
      if (mean_wait >= 1.0) wait += static_cast<Duration>(rng_.Exponential(mean_wait));
    }
  }
  if (wait > shed_at) {
    shed();
    return std::nullopt;
  }
  AccrueBusy(now, service);
  if (client) ++stats_.admitted_by_priority[pclass];
  Duration sojourn = wait + service;
  sojourn_.Record(sojourn);
  double ewma = ewma_sojourn_.load(std::memory_order_relaxed);
  ewma_sojourn_.store(ewma + kLoadEwmaAlpha * (static_cast<double>(sojourn) - ewma),
                      std::memory_order_relaxed);
  shed_ewma_.store(shed_ewma_.load(std::memory_order_relaxed) * (1.0 - kLoadEwmaAlpha),
                   std::memory_order_relaxed);
  return sojourn;
}

NodeLoadSignal StorageNode::load_signal() const {
  // Read concurrently by client threads via ClusterState::NodeLoad; every
  // field here comes from an atomic (or, for io_backlog, a counter only
  // the RAM engine exposes as a constant 0 — the paged engine is
  // simulator-only for now).
  NodeLoadSignal signal;
  signal.queue_delay = queue_delay();
  signal.ewma_sojourn = static_cast<Duration>(ewma_sojourn_.load(std::memory_order_relaxed));
  signal.utilization = background_utilization_.load(std::memory_order_relaxed);
  signal.shed_fraction = shed_ewma_.load(std::memory_order_relaxed);
  signal.io_backlog = engine_->io_backlog();
  return signal;
}

void StorageNode::AccrueBusy(Time now, Duration amount) {
  busy_until_.store(std::max(busy_until_.load(std::memory_order_relaxed), now) + amount,
                    std::memory_order_relaxed);
  stats_.busy_micros += amount;
}

Duration StorageNode::ChargeEngineIo() {
  Duration io = engine_->TakeAccruedIo();
  if (io > 0) AccrueBusy(loop_->Now(), io);
  return io;
}

void StorageNode::SetBackgroundLoad(double utilization, Duration busy_account) {
  if (!alive_) return;
  background_utilization_.store(std::max(0.0, utilization), std::memory_order_relaxed);
  // Busy time accrues at most at capacity.
  stats_.busy_micros += std::min(busy_account, static_cast<Duration>(
                                                   static_cast<double>(busy_account) /
                                                   std::max(1.0, utilization)));
}

template <typename Reply, typename Body>
void StorageNode::Serve(Duration service, RequestPriority priority, size_t items,
                        std::function<void(Reply)> respond, Body body) {
  constexpr bool kOneWay = std::is_same_v<Reply, OneWay>;
  if (!alive_) return;
  std::optional<Duration> sojourn = Admit(service, priority, /*client=*/!kOneWay);
  if (!sojourn.has_value()) {
    if constexpr (!kOneWay) respond(ShedReply<Reply>(items));
    return;
  }
  RunAfterModelled(loop_, *sojourn, [this, respond = std::move(respond),
                                    body = std::move(body)]() mutable {
    if (!alive_) return;
    if constexpr (kOneWay) {
      body();
    } else {
      body(std::move(respond));
    }
  });
}

template <typename Reply, typename Finish>
void StorageNode::ReplyAfterIo(size_t items, Duration extra_delay,
                               std::function<void(Reply)> respond, Finish finish) {
  // Page faults delay the reply by the disk latency they accrued; the
  // pure-RAM path replies inline, preserving event order.
  Duration delay = extra_delay + ChargeEngineIo();
  if (delay <= 0) {
    stats_.ops_completed += static_cast<int64_t>(items);
    respond(finish());
    return;
  }
  loop_->ScheduleAfter(delay, [this, items, respond = std::move(respond),
                               finish = std::move(finish)]() mutable {
    if (!alive_) return;
    stats_.ops_completed += static_cast<int64_t>(items);
    respond(finish());
  });
}

template <typename Deliver>
void StorageNode::SendToPeer(NodeId to, int64_t payload_bytes, Deliver deliver) {
  StorageNode* peer = cluster_->GetNode(to);
  if (peer == nullptr) return;
  network_->Send(id_, to, payload_bytes,
                 [peer, deliver = std::move(deliver)]() mutable { deliver(peer); });
}

void StorageNode::HandleGet(const std::string& key, RequestPriority priority,
                            std::function<void(PointReadReply)> respond) {
  Serve(config_.get_service_time, priority, 1, std::move(respond),
        [this, key](std::function<void(PointReadReply)> respond) mutable {
    Result<Record> result = engine_->Get(key);
    ReplyAfterIo(1, 0, std::move(respond),
                 [this, key = std::move(key), result = std::move(result)]() mutable {
                   // Snapshotted as the reply leaves: a write acked while
                   // the reply is on the wire must not lend this
                   // (predecessor) value a fresh staleness lease.
                   Time as_of = replicated_through(cluster_->partitions()->ForKey(key).id);
                   return PointReadReply{std::move(result), as_of};
                 });
  });
}

void StorageNode::HandleMultiGet(const std::vector<std::string>& keys,
                                 RequestPriority priority,
                                 std::function<void(MultiGetReply)> respond) {
  Duration service =
      config_.get_service_time +
      config_.multiget_service_per_key *
          static_cast<Duration>(keys.empty() ? 0 : keys.size() - 1);
  Serve(service, priority, keys.size(), std::move(respond),
        [this, keys](std::function<void(MultiGetReply)> respond) {
    MultiGetReply reply;
    reply.results = engine_->MultiGet(keys);
    reply.as_of.reserve(keys.size());
    for (const std::string& key : keys) {
      // Serve-time watermark, per key: sub-batches may span partitions
      // with different replication progress.
      reply.as_of.push_back(replicated_through(cluster_->partitions()->ForKey(key).id));
    }
    ReplyAfterIo(keys.size(), 0, std::move(respond),
                 [reply = std::move(reply)]() mutable { return std::move(reply); });
  });
}

void StorageNode::HandleMultiWrite(std::vector<MultiWriteItem> items, AckMode ack,
                                   RequestPriority priority,
                                   std::function<void(std::vector<Status>)> respond) {
  if (items.empty()) {
    // Vacuously committed; the ack loop below would never fire.
    if (alive_) respond({});
    return;
  }
  const size_t count = items.size();
  Duration service = config_.put_service_time +
                     config_.multiwrite_service_per_record * static_cast<Duration>(count - 1);
  Serve(service, priority, count, std::move(respond),
        [this, items = std::move(items), ack](
            std::function<void(std::vector<Status>)> respond) {
    stats_.ops_completed += static_cast<int64_t>(items.size());
    // Group commit: log and apply the whole batch before any
    // replication or ack — one WAL sync covers every record.
    std::vector<WalRecord> records;
    records.reserve(items.size());
    for (const MultiWriteItem& item : items) records.push_back(item.record);
    Status applied = engine_->ApplyBatch(records);
    ChargeEngineIo();  // write-path faults/forced write-backs: busy time only
    if (!applied.ok()) {
      respond(std::vector<Status>(items.size(), applied));
      return;
    }
    // Fan each record out on the replication streams; the batch
    // responds when every record has reached the requested ack level.
    struct BatchState {
      std::vector<Status> statuses;
      size_t remaining = 0;
      std::function<void(std::vector<Status>)> respond;
    };
    auto batch = std::make_shared<BatchState>();
    batch->statuses.assign(items.size(), Status::Ok());
    batch->remaining = items.size();
    batch->respond = std::move(respond);
    auto settle = [batch](size_t index, Status status) {
      batch->statuses[index] = std::move(status);
      if (--batch->remaining == 0) batch->respond(std::move(batch->statuses));
    };
    for (size_t i = 0; i < items.size(); ++i) {
      const MultiWriteItem& item = items[i];
      ReplicateAndAck(item.pid, item.record, ack,
                      [settle, i](Status status) { settle(i, std::move(status)); });
    }
  });
}

void StorageNode::HandleScan(const std::string& start, const std::string& end, size_t limit,
                             RequestPriority priority,
                             std::function<void(Result<std::vector<Record>>)> respond) {
  // Admission pays the base cost; the per-row cost is charged after the
  // scan runs and delays the reply (a cursor streaming rows while holding
  // the executor).
  Serve(config_.scan_service_base, priority, 1, std::move(respond),
        [this, start, end, limit](std::function<void(Result<std::vector<Record>>)> respond) {
    Result<std::vector<Record>> rows = engine_->Scan(start, end, limit);
    Duration row_cost = 0;
    if (rows.ok()) {
      row_cost = config_.scan_service_per_row * static_cast<Duration>(rows->size());
      AccrueBusy(loop_->Now(), row_cost);
    }
    ReplyAfterIo(1, row_cost, std::move(respond),
                 [rows = std::move(rows)]() mutable { return std::move(rows); });
  });
}

void StorageNode::ReplicateAndAck(PartitionId pid, const WalRecord& record, AckMode ack,
                                  std::function<void(Status)> respond) {
  const PartitionInfo* partition = cluster_->partitions()->Get(pid);
  if (partition == nullptr) {
    respond(NotFoundError(StrFormat("partition %d", pid)));
    return;
  }
  int needed = AcksNeeded(ack, partition->replicas.size()) - 1;  // primary counts as one
  auto waiter = std::make_shared<WriteWaiter>();
  waiter->remaining = needed;
  waiter->respond = std::move(respond);
  if (needed <= 0) {
    waiter->done = true;
    waiter->respond(Status::Ok());
  }
  for (NodeId replica : partition->replicas) {
    if (replica == id_) continue;
    EnqueueReplication(pid, replica, record, waiter->done ? nullptr : waiter);
  }
}

void StorageNode::ApplyAndReplicate(PartitionId pid, const WalRecord& record, AckMode ack,
                                    std::function<void(Status)> respond) {
  Status applied = engine_->Apply(record);
  ChargeEngineIo();  // busy time only; acks are already async
  if (!applied.ok()) {
    respond(applied);
    return;
  }
  ReplicateAndAck(pid, record, ack, std::move(respond));
}

void StorageNode::HandleWrite(PartitionId pid, const WalRecord& record, AckMode ack,
                              RequestPriority priority, std::function<void(Status)> respond) {
  Serve(config_.put_service_time, priority, 1, std::move(respond),
        [this, pid, record, ack](std::function<void(Status)> respond) {
    ++stats_.ops_completed;
    ApplyAndReplicate(pid, record, ack, std::move(respond));
  });
}

void StorageNode::HandleConditionalPut(PartitionId pid, const std::string& key,
                                       const std::string& value, std::optional<Version> expected,
                                       Version new_version, AckMode ack,
                                       RequestPriority priority,
                                       std::function<void(Status)> respond) {
  Serve(config_.put_service_time, priority, 1, std::move(respond),
        [this, pid, key, value, expected, new_version,
         ack](std::function<void(Status)> respond) {
    ++stats_.ops_completed;
    // The primary serializes all writers of this partition, so read-
    // check-write here is atomic.
    std::optional<Record> current = engine_->GetRaw(key);
    ChargeEngineIo();  // the version check may fault the covering page
    bool exists_live = current.has_value() && !current->tombstone;
    if (expected.has_value()) {
      if (!exists_live || !(current->version == *expected)) {
        respond(AbortedError("version mismatch"));
        return;
      }
    } else if (exists_live) {
      respond(AbortedError("key already exists"));
      return;
    }
    WalRecord record;
    record.type = WalRecord::Type::kPut;
    record.key = key;
    record.value = value;
    record.version = new_version;
    ApplyAndReplicate(pid, record, ack, std::move(respond));
  });
}

void StorageNode::EnqueueReplication(PartitionId pid, NodeId to, const WalRecord& record,
                                     const std::shared_ptr<WriteWaiter>& waiter) {
  ReplicationStream& stream = streams_[{pid, to}];
  uint64_t seq = stream.next_seq++;
  stream.pending.push_back(PendingRecord{seq, record, loop_->Now()});
  if (waiter != nullptr) stream.waiters.emplace_back(seq, waiter);
  if (waiter != nullptr) {
    // Synchronous-ack writes flush immediately.
    FlushStream(pid, to);
  } else if (!stream.flush_scheduled && !stream.inflight) {
    stream.flush_scheduled = true;
    loop_->ScheduleAfter(config_.replication_flush_interval,
                         [this, pid, to] { FlushStream(pid, to); });
  }
}

bool StorageNode::StreamStillValid(PartitionId pid, NodeId to) const {
  const PartitionInfo* partition = cluster_->partitions()->Get(pid);
  if (partition == nullptr) return false;
  bool member = std::find(partition->replicas.begin(), partition->replicas.end(), to) !=
                partition->replicas.end();
  if (member && partition->primary() == id_) return true;
  // Topology moved on (leadership transferred, or `to` left the replica
  // set). A LIVE destination still drains the unacked tail — it may be the
  // new primary, and those records are data it needs (WritesDuringMove
  // relies on this). Only a dead or unregistered destination makes further
  // retransmission pointless: its catch-up path is delta-sync on restart,
  // not this stream.
  StorageNode* target = cluster_->GetNode(to);
  return target != nullptr && target->alive();
}

void StorageNode::TearDownStream(PartitionId pid, NodeId to) {
  auto it = streams_.find({pid, to});
  if (it == streams_.end()) return;
  ReplicationStream& stream = it->second;
  if (stream.retry_event != Executor::kInvalidTask) {
    loop_->Cancel(stream.retry_event);
    stream.retry_event = Executor::kInvalidTask;
  }
  // Unmet waiters fail honestly: the ack they were counting on will never
  // come from this replica (re-replication streams the data to its
  // replacement out of band, but that is a copy, not this write's ack).
  for (auto& [seq, waiter] : stream.waiters) {
    if (!waiter->done) {
      waiter->done = true;
      waiter->respond(UnavailableError("replica removed from partition"));
    }
  }
  streams_.erase(it);
}

void StorageNode::FlushStream(PartitionId pid, NodeId to) {
  auto it = streams_.find({pid, to});
  if (it == streams_.end()) return;
  ReplicationStream& stream = it->second;
  stream.flush_scheduled = false;
  if (stream.inflight || !alive_) return;
  if (stream.pending.empty()) return;
  if (!StreamStillValid(pid, to)) {
    TearDownStream(pid, to);
    return;
  }
  SendBatch(pid, to, &stream);
}

void StorageNode::SendBatch(PartitionId pid, NodeId to, ReplicationStream* stream) {
  // Send everything pending (bounded by batch max), starting after the last
  // cumulative ack; retransmissions resend the same prefix.
  // The batch's watermark is its last record's enqueue time.
  std::vector<WalRecord> batch;
  uint64_t first_seq = stream->acked + 1;
  Time watermark = 0;
  int64_t payload_bytes = 0;
  for (const PendingRecord& entry : stream->pending) {
    if (entry.seq < first_seq) continue;
    if (batch.size() == config_.replication_batch_max) break;
    batch.push_back(entry.record);
    payload_bytes += WireSize(entry.record);
    watermark = entry.enqueued_at;
  }
  if (batch.empty()) return;
  stream->sent_through = first_seq + batch.size() - 1;
  stream->inflight = true;
  stats_.records_replicated_out += static_cast<int64_t>(batch.size());
  SendToPeer(to, payload_bytes, [pid, self = id_, first_seq, batch = std::move(batch),
                                 watermark](StorageNode* target) mutable {
    target->HandleReplicate(pid, self, first_seq, std::move(batch), watermark);
  });
  // Arm retransmission with exponential backoff.
  Duration delay = stream->current_retry_delay == 0 ? config_.replication_retry_base
                                                    : stream->current_retry_delay;
  stream->retry_event = loop_->ScheduleAfter(delay, [this, pid, to] {
    auto it = streams_.find({pid, to});
    if (it == streams_.end()) return;
    ReplicationStream& s = it->second;
    s.retry_event = Executor::kInvalidTask;
    if (s.acked >= s.sent_through) return;  // acked meanwhile
    if (!StreamStillValid(pid, to)) {
      // Target dropped from the replica set (re-replication replaced a
      // dead node) or leadership moved: stop retransmitting into the void.
      TearDownStream(pid, to);
      return;
    }
    ++stats_.retransmits;
    s.inflight = false;
    s.current_retry_delay =
        std::min<Duration>(kMaxRetryDelay, (s.current_retry_delay == 0
                                                ? config_.replication_retry_base
                                                : s.current_retry_delay) *
                                               2);
    if (alive_) SendBatch(pid, to, &s);
  });
}

void StorageNode::HandleReplicate(PartitionId pid, NodeId from, uint64_t first_seq,
                                  std::vector<WalRecord> records, Time watermark) {
  if (!alive_) return;
  // Any delivery from `from` is proof of life — the watermark-heartbeat
  // stream doubles as the failure detector's primary signal (even a shed
  // batch was still sent by a live node).
  cluster_->RecordHeartbeat(from, loop_->Now());
  Duration service = config_.replicate_service_per_record *
                     std::max<Duration>(1, static_cast<Duration>(records.size()));
  // A shed batch is retransmitted by the primary.
  Serve<OneWay>(service, RequestPriority::kNormal, 0, nullptr,
                [this, pid, from, first_seq, records = std::move(records), watermark] {
    uint64_t& applied = last_applied_seq_[{pid, from}];
    uint64_t seq = first_seq;
    for (const WalRecord& record : records) {
      if (seq > applied) {
        (void)engine_->Apply(record);  // version rule dedups content anyway
        applied = seq;
        ++stats_.records_replicated_in;
      }
      ++seq;
    }
    ChargeEngineIo();  // replication-apply faults: busy time only
    if (watermark > 0) {
      Time& through = replicated_through_[pid];
      through = std::max(through, watermark);
    }
    // Cumulative ack back to the primary.
    SendToPeer(from, 0, [pid, self = id_, ack = applied](StorageNode* primary) {
      primary->HandleReplicateAck(pid, self, ack);
    });
  });
}

void StorageNode::HandleReplicateAck(PartitionId pid, NodeId from, uint64_t acked_seq) {
  if (!alive_) return;
  cluster_->RecordHeartbeat(from, loop_->Now());
  auto it = streams_.find({pid, from});
  if (it == streams_.end()) return;
  ReplicationStream& stream = it->second;
  if (acked_seq <= stream.acked) return;  // stale/duplicate ack
  stream.acked = acked_seq;
  stream.current_retry_delay = 0;
  while (!stream.pending.empty() && stream.pending.front().seq <= acked_seq) {
    stream.pending.pop_front();
  }
  // Wake write waiters satisfied by this ack.
  auto waiter_it = stream.waiters.begin();
  while (waiter_it != stream.waiters.end()) {
    if (waiter_it->first <= acked_seq) {
      std::shared_ptr<WriteWaiter>& waiter = waiter_it->second;
      if (!waiter->done && --waiter->remaining <= 0) {
        waiter->done = true;
        waiter->respond(Status::Ok());
      }
      waiter_it = stream.waiters.erase(waiter_it);
    } else {
      ++waiter_it;
    }
  }
  if (stream.retry_event != Executor::kInvalidTask && stream.acked >= stream.sent_through) {
    loop_->Cancel(stream.retry_event);
    stream.retry_event = Executor::kInvalidTask;
  }
  stream.inflight = false;
  if (!stream.pending.empty()) {
    SendBatch(pid, from, &stream);
  }
}

void StorageNode::StartRecovery() {
  if (!alive_) return;
  for (PartitionId pid : cluster_->partitions()->PartitionsOnNode(id_)) {
    const PartitionInfo* partition = cluster_->partitions()->Get(pid);
    if (partition == nullptr || partition->primary() == id_) continue;
    SendToPeer(partition->primary(), 0,
               [pid, self = id_, since = replicated_through(pid)](StorageNode* primary) {
                 primary->HandleDeltaSyncRequest(pid, self, since);
               });
  }
}

void StorageNode::HandleDeltaSyncRequest(PartitionId pid, NodeId from, Time since) {
  if (!alive_) return;
  const PartitionInfo* partition = cluster_->partitions()->Get(pid);
  if (partition == nullptr || partition->primary() != id_) return;  // stale map; streams cover it
  if (cluster_->GetNode(from) == nullptr) return;  // nowhere to send the reply
  // The scan pays admitted service like any range read; recovery traffic
  // must not jump the queue ahead of client work. If shed, the recovering
  // node still has the streams.
  Serve<OneWay>(config_.scan_service_base, RequestPriority::kNormal, 0, nullptr,
                [this, pid, from, since] {
    const PartitionInfo* partition = cluster_->partitions()->Get(pid);
    if (partition == nullptr || partition->primary() != id_) return;
    // Everything whose version stamp is at or after the requester's durable
    // watermark. Versions are stamped at write arrival and the watermark is
    // the enqueue time of the last applied record, so >= since is a
    // superset of what was missed (the engine's newer-version rule makes
    // re-application a no-op).
    std::vector<WalRecord> missed;
    int64_t payload_bytes = 0;
    for (const Record& record :
         engine_->ScanRaw(partition->start, partition->end, /*limit=*/0)) {
      if (record.version.timestamp < since) continue;
      WalRecord wal;
      wal.type = record.tombstone ? WalRecord::Type::kDelete : WalRecord::Type::kPut;
      wal.key = record.key;
      wal.value = record.value;
      wal.version = record.version;
      payload_bytes += WireSize(wal);
      missed.push_back(std::move(wal));
    }
    Duration row_cost =
        config_.scan_service_per_row * static_cast<Duration>(missed.size());
    AccrueBusy(loop_->Now(), row_cost);
    ChargeEngineIo();
    ++stats_.delta_syncs_served;
    stats_.delta_records_shipped += static_cast<int64_t>(missed.size());
    SendToPeer(from, payload_bytes, [pid, self = id_, missed = std::move(missed),
                                     watermark = loop_->Now()](StorageNode* requester) mutable {
      requester->HandleDeltaSyncResponse(pid, self, std::move(missed), watermark);
    });
  });
}

void StorageNode::HandleDeltaSyncResponse(PartitionId pid, NodeId from,
                                          std::vector<WalRecord> records, Time watermark) {
  if (!alive_) return;
  cluster_->RecordHeartbeat(from, loop_->Now());
  const PartitionInfo* partition = cluster_->partitions()->Get(pid);
  if (partition == nullptr || partition->primary() != from) return;
  if (std::find(partition->replicas.begin(), partition->replicas.end(), id_) ==
      partition->replicas.end()) {
    return;  // dropped from the set while recovering
  }
  Duration service = config_.replicate_service_per_record *
                     std::max<Duration>(1, static_cast<Duration>(records.size()));
  // If shed, the streams still converge eventually.
  Serve<OneWay>(service, RequestPriority::kNormal, 0, nullptr,
                [this, pid, records = std::move(records), watermark] {
    for (const WalRecord& record : records) {
      (void)engine_->Apply(record);
      ++stats_.records_replicated_in;
    }
    ChargeEngineIo();
    Time& through = replicated_through_[pid];
    through = std::max(through, watermark);
    ++stats_.delta_syncs_completed;
  });
}

void StorageNode::HeartbeatTick() {
  if (!alive_) return;
  // Liveness beacon to the control-plane observer. It rides the simulated
  // network (loss, partitions, and gray delays shape it), so the failure
  // detector in ClusterState measures reachability rather than trusting an
  // oracle. Every node beacons — secondaries and rf=1 nodes carry no
  // outbound watermark streams, yet their death must still be detectable.
  network_->Send(id_, ClusterState::kControlPlane, [cluster = cluster_, self = id_, loop = loop_] {
    cluster->RecordHeartbeat(self, loop->Now());
  });
  // Advance watermarks on idle streams so secondaries can prove freshness.
  for (PartitionId pid : cluster_->partitions()->PartitionsOnNode(id_, /*primary_only=*/true)) {
    const PartitionInfo* partition = cluster_->partitions()->Get(pid);
    if (partition == nullptr) continue;
    for (NodeId replica : partition->replicas) {
      if (replica == id_) continue;
      ReplicationStream& stream = streams_[{pid, replica}];
      if (!stream.pending.empty() || stream.inflight) continue;  // data carries watermark
      // Empty batch: no seq consumed.
      SendToPeer(replica, 0, [pid, self = id_, first_seq = stream.next_seq,
                              watermark = loop_->Now()](StorageNode* target) {
        target->HandleReplicate(pid, self, first_seq, {}, watermark);
      });
    }
  }
}

Time StorageNode::replicated_through(PartitionId pid) const {
  // A primary is definitionally current.
  const PartitionInfo* partition = cluster_->partitions()->Get(pid);
  if (partition != nullptr && partition->primary() == id_) return loop_->Now();
  auto it = replicated_through_.find(pid);
  return it == replicated_through_.end() ? 0 : it->second;
}

}  // namespace scads
