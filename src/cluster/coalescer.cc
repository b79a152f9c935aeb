#include "cluster/coalescer.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>

#include "cluster/attempt.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "storage/engine.h"

namespace scads {

void ReadCoalescer::Submit(PendingRead read) {
  // Called with the submitting router's lock held; only coalescer state is
  // touched here (no router re-entry), so the router->coalescer lock order
  // holds.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inflight_.find(read.key);
  if (it != inflight_.end()) {
    // A read for this key is already in flight (held or dispatched):
    // attach as a follower and wait for the leader's reply.
    ++stats_.follower_joins;
    it->second.followers.push_back(std::move(read));
    return;
  }
  ++stats_.leader_reads;
  NodeId target = read.candidates.front();
  std::string key = read.key;
  KeyEntry entry;
  entry.target = target;
  entry.leader = std::move(read);
  inflight_.emplace(key, std::move(entry));

  NodeBatch& batch = held_[target];
  batch.keys.push_back(std::move(key));
  if (batch.flush_event == Executor::kInvalidTask) {
    // First leader for this node opens the hold window; everything that
    // targets the node before it closes rides the same message.
    batch.flush_event = loop_->ScheduleAfter(config_.window, [this, target] { Flush(target); });
  }
}

void ReadCoalescer::Flush(NodeId target) {
  StorageNode* node = cluster_->GetNode(target);
  std::vector<std::string> keys;
  Router* sender = nullptr;
  RequestPriority priority = RequestPriority::kLow;
  int64_t request_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto held_it = held_.find(target);
    if (held_it == held_.end()) return;
    keys = std::move(held_it->second.keys);
    held_.erase(held_it);
    if (keys.empty()) return;
    if (node != nullptr) {
      // The merged message rides the highest priority any member carries
      // (a kHigh read must not queue at kLow because it merged), and
      // originates from the first leader's router. A key in held_ always
      // has its inflight_ entry: both are mutated together under mu_, and
      // dispatch (the only path to completion) removes from held_ first.
      for (const std::string& key : keys) {
        const KeyEntry& entry = inflight_.at(key);
        if (sender == nullptr) sender = entry.leader.router;
        priority = std::max(priority, entry.leader.options.priority);
        for (const PendingRead& follower : entry.followers) {
          priority = std::max(priority, follower.options.priority);
        }
        request_bytes += static_cast<int64_t>(key.size()) + 4;
      }
      // Record what each key actually shipped at: followers attaching from
      // now on can outrank it, which is the in-flight upgrade case
      // CompleteKey handles when the node sheds this message.
      for (const std::string& key : keys) inflight_.at(key).dispatched = priority;
      ++stats_.batches_sent;
      stats_.batched_keys += static_cast<int64_t>(keys.size());
    }
  }
  if (node == nullptr) {
    // Router calls happen outside mu_ (FailOverKey re-takes it per key).
    for (const std::string& key : keys) FailOverKey(key, target);
    return;
  }

  auto shared_keys = std::make_shared<std::vector<std::string>>(std::move(keys));
  RunAttempt<MultiGetReply>(
      loop_, network_, sender->client_id(), target, request_bytes,
      sender->config().request_timeout,
      [node, priority, shared_keys](std::function<void(MultiGetReply)> respond) {
        node->HandleMultiGet(*shared_keys, priority, std::move(respond));
      },
      [this, shared_keys](MultiGetReply reply) {
        for (size_t i = 0; i < shared_keys->size() && i < reply.results.size(); ++i) {
          CompleteKey((*shared_keys)[i], std::move(reply.results[i]), reply.as_of[i]);
        }
      },
      [this, shared_keys, target] {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.batch_timeouts;
        }
        for (const std::string& key : *shared_keys) FailOverKey(key, target);
      });
}

bool ReadCoalescer::FollowerServable(const PendingRead& follower, const Result<Record>& result,
                                     Time as_of, Time now) const {
  // Deadline: a follower whose budget expired re-dispatches, and sheds
  // kDeadlineExceeded there — the same outcome an uncoalesced read gets.
  if (follower.options.Expired(now)) return false;
  // Freshness: the reply proves the value current as of the serving
  // node's watermark; the follower's own effective bound must cover the
  // age of that proof (the read cache's serve-time discipline, reused).
  Duration bound = follower.options.EffectiveStaleness(config_.staleness_bound);
  if (bound > 0 && now - as_of > bound) return false;
  // Session floor: provable only from a live record's version — NotFound
  // cannot demonstrate the follower's own write is visible.
  if (follower.options.min_version.has_value()) {
    if (!result.ok()) return false;
    if (result->version < *follower.options.min_version) return false;
  }
  return true;
}

void ReadCoalescer::CompleteKey(const std::string& key, Result<Record> result, Time as_of) {
  bool answered = result.ok() || IsNotFound(result.status());
  KeyEntry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) return;
    entry = std::move(it->second);
    // Erase before running callbacks: a re-entrant read of the same key
    // must lead a fresh entry, not attach to this resolved one.
    inflight_.erase(it);

    // In-flight priority upgrade: the node shed a message that shipped at
    // a lower priority than this key's members now collectively carry (a
    // kHigh follower attached after dispatch). The admission decision was
    // made against the stale priority, so re-admit the merged read once at
    // the true one instead of propagating the shed to a kHigh request.
    if (!answered && result.status().code() == StatusCode::kResourceExhausted &&
        !entry.upgrade_retry_used) {
      RequestPriority merged = entry.leader.options.priority;
      for (const PendingRead& follower : entry.followers) {
        merged = std::max(merged, follower.options.priority);
      }
      if (merged > entry.dispatched) {
        ++stats_.priority_upgrades;
        entry.upgrade_retry_used = true;
        NodeId target = entry.target;
        inflight_.emplace(key, std::move(entry));
        NodeBatch& batch = held_[target];
        batch.keys.push_back(key);
        if (batch.flush_event == Executor::kInvalidTask) {
          // No hold window on a retry: the members already waited one round
          // trip; ship as soon as the executor turns over.
          batch.flush_event = loop_->ScheduleAfter(0, [this, target] { Flush(target); });
        }
        return;
      }
    }
  }
  // Members collected; resolve them outside mu_ — these calls take router
  // locks (the coalescer lock is ordered after them, never around them).
  Time now = loop_->Now();
  int64_t expired = 0, errors = 0, served = 0, detached = 0;

  // The leader takes its own reply — unless its deadline budget expired
  // while the merged message was in flight. Uncoalesced reads clamp every
  // attempt timeout to the remaining budget, so a success can never be
  // delivered past the deadline; the merged message can't clamp to any one
  // member's budget, so the expiry check moves here: an expired leader
  // detaches exactly like an expired follower and sheds on redispatch.
  if (answered && entry.leader.options.Expired(now)) {
    ++expired;
    entry.leader.router->RedispatchCoalesced(key, entry.leader.options, entry.leader.start,
                                             kInvalidNode, std::move(entry.leader.callback));
  } else {
    // Only the leader's router caches the shared reply (once), so
    // followers can never pollute another request's cache.
    entry.leader.router->FinishCoalescedRead(key, entry.leader.start, result, as_of,
                                             /*store_in_cache=*/true, entry.leader.callback);
  }
  for (PendingRead& follower : entry.followers) {
    if (!answered) {
      // Leader error: propagated per-follower, each failing in its own
      // router's window. (Sheds surface as kResourceExhausted — the same
      // backpressure contract single reads have; merged-message timeouts
      // never reach here, they fail over in FailOverKey.)
      ++errors;
      follower.router->FinishCoalescedRead(key, follower.start, result, as_of,
                                           /*store_in_cache=*/false, follower.callback);
      continue;
    }
    if (FollowerServable(follower, result, as_of, now)) {
      ++served;
      follower.router->FinishCoalescedRead(key, follower.start, result, as_of,
                                           /*store_in_cache=*/false, follower.callback);
    } else {
      // Bounds unprovable from this reply: detach and dispatch normally.
      ++detached;
      follower.router->RedispatchCoalesced(key, follower.options, follower.start, kInvalidNode,
                                           std::move(follower.callback));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.leaders_expired += expired;
  stats_.follower_errors += errors;
  stats_.followers_served += served;
  stats_.followers_detached += detached;
}

void ReadCoalescer::FailOverKey(const std::string& key, NodeId failed) {
  KeyEntry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) return;
    entry = std::move(it->second);
    inflight_.erase(it);
  }
  // The merged message died with the node (or the path to it): every
  // member retries individually on its own remaining candidates, so one
  // unlucky merge can't fail a whole cohort of requests. Router calls run
  // outside mu_.
  entry.leader.router->RedispatchCoalesced(key, entry.leader.options, entry.leader.start, failed,
                                           std::move(entry.leader.callback));
  for (PendingRead& follower : entry.followers) {
    follower.router->RedispatchCoalesced(key, follower.options, follower.start, failed,
                                         std::move(follower.callback));
  }
}

// ------------------------------------------------------------ WriteCoalescer

void WriteCoalescer::Submit(PendingWrite write) {
  // Called with the submitting router's lock held; touches only coalescer
  // state (router->coalescer lock order).
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = write.record.key;
  auto it = inflight_.find(key);
  if (it != inflight_.end()) {
    KeyEntry& entry = it->second;
    ++stats_.merged_writes;
    // Last-write-wins by version stamp, not arrival order: the merged
    // record must be the one the engine would have kept had each put been
    // sent separately, or a member's session floor could outrun the store.
    // An exact version tie (same client, same instant) goes to the later
    // arrival — that is the order the client issued them in.
    if (write.record.version >= entry.winner.version) entry.winner = write.record;
    entry.ack = std::max(entry.ack, write.ack);
    entry.members.push_back(std::move(write));
    return;
  }
  ++stats_.leader_writes;
  KeyEntry entry;
  entry.winner = write.record;
  entry.ack = write.ack;
  entry.members.push_back(std::move(write));
  entry.flush_event = loop_->ScheduleAfter(config_.window, [this, key] { Flush(key); });
  inflight_.emplace(key, std::move(entry));
}

void WriteCoalescer::Flush(const std::string& key) {
  KeyEntry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) return;
    entry = std::move(it->second);
    // Erased before dispatch: a put arriving while the merged record is on
    // the wire cannot change it, so it must open a fresh entry.
    inflight_.erase(it);
    ++stats_.batches_sent;
  }
  // Dispatch outside mu_: DispatchCoalescedWrite takes the router's lock.
  auto members = std::make_shared<std::vector<PendingWrite>>(std::move(entry.members));
  auto winner = std::make_shared<WalRecord>(std::move(entry.winner));
  members->front().router->DispatchCoalescedWrite(
      *winner, entry.ack, members->front().options, [members, winner](Status status) {
        // One replication ack settles every member: window accounting and
        // cache refresh per member (with the winning record), then the
        // member's own callback.
        for (PendingWrite& member : *members) {
          member.router->FinishCoalescedWrite(member.start, status, *winner);
          member.callback(status);
        }
      });
}

}  // namespace scads
