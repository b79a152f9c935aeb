// The execution-backend API: the seam between the data plane and whatever
// actually runs it.
//
// Every data-plane component (Router, StorageNode, coalescers, paged
// engine) schedules work and exchanges messages through two small
// interfaces instead of concrete simulator types:
//
//   Executor       — "run this closure later": timers, periodic ticks, and
//                    a clock. The deterministic simulator's EventLoop is
//                    one implementation; ThreadedRuntime's per-worker
//                    timer wheels are another.
//   MessageFabric  — "deliver this closure at that NodeId": the message
//                    substrate. SimNetwork implements it with sampled
//                    latency/loss/partitions over simulated time;
//                    ThreadedRuntime implements it as an immediate
//                    enqueue on the destination's worker thread.
//
// ExecutionBackend is both at once — what a self-contained deployment
// runs on. The two concrete backends:
//
//   simulator        EventLoop (src/sim/event_loop.h) is the Executor and
//                    SimNetwork (src/sim/network.h) the MessageFabric:
//                    deterministic, single-threaded, virtual time. Every
//                    test/bench that wants replayable schedules passes
//                    this pair (via Scads or directly); `deterministic()`
//                    returns true.
//   ThreadedRuntime  (src/runtime/threaded_runtime.h) one ExecutionBackend:
//                    real OS threads, wall-clock time, sharded dispatch.
//                    `deterministic()` returns false; callers may block.
//
// The contract components rely on (both backends honour it):
//
//  * Closures scheduled from a worker thread run on that same worker
//    (worker-affine timers), and fabric deliveries to a registered
//    destination always run on its owner worker. Together these serialize
//    all execution belonging to one StorageNode, which is why node
//    internals need no locking — the simulator gives the same guarantee
//    trivially with its single thread.
//  * Send() never invokes `deliver` synchronously.
//  * Executor::Cancel is safe to race with the task firing; one of the
//    two wins.
//
// Modelled delays (node service times, the cache's hit cost) go through
// RunAfterModelled below, which has one rule: zero modelled delay on a
// real-threads backend runs inline; the simulator always posts.

#ifndef SCADS_RUNTIME_EXECUTION_BACKEND_H_
#define SCADS_RUNTIME_EXECUTION_BACKEND_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "common/clock.h"
#include "common/types.h"

namespace scads {

/// Deferred-execution surface of a backend: clock, one-shot timers,
/// periodic ticks. `TaskId`s are only meaningful to the issuing executor.
class Executor {
 public:
  using TaskId = int64_t;
  static constexpr TaskId kInvalidTask = -1;

  virtual ~Executor() = default;

  /// Current time: simulated for the event loop, monotonic wall-clock
  /// microseconds for the threaded runtime.
  virtual Time Now() const = 0;

  /// Clock view for components that only need "now" (breakers, detectors).
  virtual const Clock* clock() const = 0;

  /// Runs `fn` at absolute time `t` (clamped to Now() if in the past).
  virtual TaskId ScheduleAt(Time t, std::function<void()> fn) = 0;

  /// Runs `fn` after `delay` (<= 0 runs as soon as possible, never
  /// synchronously).
  virtual TaskId ScheduleAfter(Duration delay, std::function<void()> fn) = 0;

  /// Runs `fn` every `period`, first firing after one period. Cancel stops
  /// the whole chain.
  virtual TaskId SchedulePeriodic(Duration period, std::function<void()> fn) = 0;

  /// Cancels a pending (or periodic) task. Returns false when it already
  /// ran or does not exist.
  virtual bool Cancel(TaskId id) = 0;

  /// True when schedules replay identically (simulated time, single
  /// thread). Blocking helpers (ScadsClient::GetSync etc.) refuse to run
  /// on a deterministic executor — there is no second thread to make
  /// progress; pump the loop instead.
  virtual bool deterministic() const = 0;
};

/// Runs `fn` after a *modelled* delay: a service time or cache-hit cost
/// charged by the data plane, not a protocol timer. The one rule: zero
/// modelled delay on a real-threads backend runs `fn` inline, on the
/// calling thread, before this returns; the simulator always posts, so its
/// schedules and digests do not depend on a cost happening to be 0.
/// Nonzero delays always post. ScheduleAfter itself still never runs
/// synchronously.
template <typename F>
void RunAfterModelled(Executor* loop, Duration delay, F&& fn) {
  if (delay <= 0 && !loop->deterministic()) {
    fn();
    return;
  }
  loop->ScheduleAfter(delay, std::forward<F>(fn));
}

/// Message-passing surface of a backend: deliver a closure "at" a NodeId.
/// Implementations decide latency, loss, and which thread runs it; the
/// cluster layer builds RPC with timeouts on top.
class MessageFabric {
 public:
  /// Fixed per-message framing overhead charged by byte-counting fabrics
  /// on top of the declared payload. Batching N requests into one message
  /// saves (N-1) of these.
  static constexpr int64_t kMessageOverheadBytes = 64;

  virtual ~MessageFabric() = default;

  /// Delivers `deliver` at `to`, never synchronously. `payload_bytes` is
  /// the application payload size (fabrics that meter bytes add
  /// kMessageOverheadBytes per message).
  virtual void Send(NodeId from, NodeId to, int64_t payload_bytes,
                    std::function<void()> deliver) = 0;

  /// Payload-size-agnostic send (control messages; counts overhead only).
  void Send(NodeId from, NodeId to, std::function<void()> deliver) {
    Send(from, to, 0, std::move(deliver));
  }
};

/// A complete place to run a SCADS data plane: scheduling plus messaging.
class ExecutionBackend : public Executor, public MessageFabric {};

}  // namespace scads

#endif  // SCADS_RUNTIME_EXECUTION_BACKEND_H_
