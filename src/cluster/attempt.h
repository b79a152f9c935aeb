// RunAttempt: one request/reply exchange with a storage node, bounded by a
// timeout — the only place in the cluster layer that sends a request to a
// node and ships its reply back. Router (every read and write path) and
// ReadCoalescer (merged reads) build on it.
//
// An attempt arms its timeout, ships the request, runs `serve` on the
// node's worker (where it hands the request to the node's handler), and
// ships the handler's reply back to the sender. A single claim record
// decides the race between the reply and the timeout: exactly one of
// `on_reply` / `on_timeout` runs, once; the loser returns without touching
// anything else.
//
// Event order (the simulator's digests depend on it):
//   * the timer is armed before the request ships, so the fabric enqueue's
//     release publishes the timer id to the worker that runs the reply;
//   * a reply runs claim -> cancel timer -> on_reply; a timeout runs
//     claim -> on_timeout.
// Neither path posts a task or sends a message beyond the request, the
// reply, and the timer.
//
// Lifetimes: the winner's continuation is released as soon as it has run;
// the loser's lives as long as the claim (a cancelled timer holds it until
// its deadline). Releasing the loser at claim time too slowed the
// benchmark's MultiWrite preload by ~15%: batch state then dies with each
// reply, and allocator trim-and-regrow per batch is the likely cause.

#ifndef SCADS_CLUSTER_ATTEMPT_H_
#define SCADS_CLUSTER_ATTEMPT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "runtime/execution_backend.h"
#include "storage/engine.h"

namespace scads {

// Reply payload sizes on the wire, one rule per reply type.
inline int64_t ReplyBytes(const Status&) { return 4; }
inline int64_t ReplyBytes(const std::vector<Status>& statuses) {
  return static_cast<int64_t>(statuses.size()) * 4;
}
inline int64_t ReplyBytes(const Result<Record>& result) {
  return result.ok() ? WireSize(*result) : 8;
}
inline int64_t ReplyBytes(const PointReadReply& reply) { return ReplyBytes(reply.result); }
inline int64_t ReplyBytes(const MultiGetReply& reply) {
  int64_t bytes = 0;
  for (const Result<Record>& result : reply.results) bytes += ReplyBytes(result);
  return bytes;
}
inline int64_t ReplyBytes(const Result<std::vector<Record>>& rows) {
  int64_t bytes = 8;
  if (rows.ok()) {
    for (const Record& row : *rows) bytes += WireSize(row);
  }
  return bytes;
}

/// The claim shared by one attempt's reply and timeout continuations,
/// which it holds inline (one allocation per attempt).
template <typename OnReply, typename OnTimeout>
struct AttemptClaim {
  AttemptClaim(OnReply reply, OnTimeout timeout)
      : on_reply(std::move(reply)), on_timeout(std::move(timeout)) {}

  std::atomic<bool> done{false};
  Executor::TaskId timeout_event = Executor::kInvalidTask;
  std::optional<OnReply> on_reply;
  std::optional<OnTimeout> on_timeout;

  /// True exactly once, for the first claimant.
  bool Claim() { return !done.exchange(true, std::memory_order_acq_rel); }
};

/// Sends `request_bytes` from `from` to `to` and calls `serve(respond)` on
/// the node's worker; `serve` hands the request to the node's handler,
/// which calls `respond(Reply)`. The reply ships back to `from`. Exactly
/// one of `on_reply(Reply)` (on the reply's delivery) or `on_timeout()`
/// (after `timeout`, on `loop`) runs.
template <typename Reply, typename Serve, typename OnReply, typename OnTimeout>
void RunAttempt(Executor* loop, MessageFabric* fabric, NodeId from, NodeId to,
                int64_t request_bytes, Duration timeout, Serve serve, OnReply on_reply,
                OnTimeout on_timeout) {
  auto claim = std::make_shared<AttemptClaim<OnReply, OnTimeout>>(std::move(on_reply),
                                                                  std::move(on_timeout));
  claim->timeout_event = loop->ScheduleAfter(timeout, [claim] {
    if (!claim->Claim()) return;
    (*claim->on_timeout)();
    claim->on_timeout.reset();
  });
  fabric->Send(from, to, request_bytes,
               [loop, fabric, from, to, claim, serve = std::move(serve)]() mutable {
    serve(std::function<void(Reply)>([loop, fabric, from, to, claim](Reply reply) {
      int64_t reply_bytes = ReplyBytes(reply);
      fabric->Send(to, from, reply_bytes, [loop, claim, reply = std::move(reply)]() mutable {
        if (!claim->Claim()) return;
        loop->Cancel(claim->timeout_event);
        (*claim->on_reply)(std::move(reply));
        claim->on_reply.reset();
      });
    }));
  });
}

}  // namespace scads

#endif  // SCADS_CLUSTER_ATTEMPT_H_
