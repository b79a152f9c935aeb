#include "consistency/staleness.h"

#include <utility>

#include "cache/cache_directory.h"
#include "cluster/node.h"

namespace scads {

NodeId StalenessController::FreshEnoughReplica(const PartitionInfo& partition,
                                               Duration bound) const {
  Time now = loop_->Now();
  // Collect every provably-fresh secondary, then let the router's
  // read-routing policy pick among them (p2c steers to the least-loaded
  // fresh replica; the pre-policy behavior took the first in set order).
  std::vector<NodeId> fresh;
  for (size_t i = 1; i < partition.replicas.size(); ++i) {
    NodeId id = partition.replicas[i];
    StorageNode* node = cluster_->GetNode(id);
    if (node == nullptr || !cluster_->IsAlive(id)) continue;
    Time watermark = node->replicated_through(partition.id);
    if (bound == 0 || now - watermark <= bound) fresh.push_back(id);
  }
  if (fresh.empty()) return kInvalidNode;
  return router_->PickAmong(fresh);
}

void StalenessController::Get(const std::string& key, RequestOptions options,
                              std::function<void(Result<Record>)> callback) {
  options.Arm(loop_->Now());
  // Explicit primary pin: no replica/cache reasoning to do here.
  if (options.read_mode == ReadMode::kPrimaryOnly) {
    router_->Get(key, std::move(options), std::move(callback));
    return;
  }
  Duration bound = options.EffectiveStaleness(bound_);
  // Cache first: an entry whose age is within the *request's* bound is as
  // good as a fresh-enough replica, minus the two network hops.
  if (cache_ != nullptr && options.read_mode != ReadMode::kAnyReplica) {
    Record cached;
    Time start = loop_->Now();
    if (cache_->LookupPoint(key, start, options, &cached)) {
      ++stats_.cache_hits;
      RunAfterModelled(loop_, cache_->hit_service_time(),
                       [this, start, cached = std::move(cached),
                        callback = std::move(callback)]() mutable {
        // Keep the SLA window complete: cache-served reads count too.
        router_->CountCacheServedRead(start);
        callback(std::move(cached));
      });
      return;
    }
  }
  const PartitionInfo& partition = cluster_->partitions()->ForKey(key);
  NodeId replica = FreshEnoughReplica(partition, bound);
  if (replica != kInvalidNode) {
    ++stats_.fresh_replica_reads;
    router_->GetFromReplica(key, replica, std::move(options), std::move(callback));
    return;
  }
  // No secondary can prove freshness under the effective bound: escalate to
  // the primary (always current). If that fails, the declared priority
  // order decides.
  ++stats_.primary_escalations;
  RequestOptions pinned = options;
  pinned.read_mode = ReadMode::kPrimaryOnly;
  router_->Get(
      key, std::move(pinned),
      [this, key, options = std::move(options),
       callback = std::move(callback)](Result<Record> result) mutable {
        if (result.ok() || IsNotFound(result.status())) {
          callback(std::move(result));
          return;
        }
        // An exhausted deadline budget is terminal: the fallback read would
        // only arrive after the deadline anyway.
        if (IsDeadlineExceeded(result.status())) {
          callback(std::move(result));
          return;
        }
        // Primary unreachable.
        if (!availability_first_) {
          ++stats_.consistency_failures;
          callback(DeadlineExceededError("staleness bound unprovable; consistency prioritized"));
          return;
        }
        // Availability first: serve possibly-stale data from a live
        // secondary — the read-routing policy picks which (least-loaded
        // under p2c), since a fallback storm onto one fixed secondary is
        // exactly the hot spot the policy exists to avoid.
        const PartitionInfo& p = cluster_->partitions()->ForKey(key);
        std::vector<NodeId> live;
        for (size_t i = 1; i < p.replicas.size(); ++i) {
          if (cluster_->IsAlive(p.replicas[i])) live.push_back(p.replicas[i]);
        }
        NodeId fallback = live.empty() ? kInvalidNode : router_->PickAmong(live);
        if (fallback == kInvalidNode) {
          ++stats_.consistency_failures;
          callback(UnavailableError("no live replica"));
          return;
        }
        ++stats_.stale_served;
        router_->GetFromReplica(key, fallback, std::move(options), std::move(callback));
      });
}

}  // namespace scads
