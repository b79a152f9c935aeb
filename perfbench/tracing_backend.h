// TracingBackend: an ExecutionBackend decorator that records one span per
// closure the data plane hands to the runtime.
//
// It forwards every call to an inner backend (a ThreadedRuntime) and wraps
// each Send `deliver` closure and each ScheduleAt/After closure. For every
// wrapped closure it records when the closure was queued (Send time, or the
// timer's due time), when it started and ended, and where it ran: the
// destination NodeId for messages, the NodeId whose closure armed it for
// timers. A request id travels in a thread-local: the client thread sets it
// before calling into the client API, every closure captures the id current
// at Send/Schedule time and restores it while it runs, so all spans caused
// by one request share it (replication hops included).
//
// Periodic ticks (heartbeats) are forwarded unwrapped: they belong to no
// request. Spans stay in per-thread in-memory buffers; Spans() may be read
// only after every thread that records has stopped (runtime shut down,
// client threads joined).

#ifndef SCADS_PERFBENCH_TRACING_BACKEND_H_
#define SCADS_PERFBENCH_TRACING_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/execution_backend.h"

namespace scads::perfbench {

/// Monotonic nanoseconds (steady_clock); all span times use it.
int64_t NowNs();

struct Span {
  enum Kind : uint8_t { kMessage, kTimer };
  uint64_t request = 0;  ///< 0 = not caused by a traced request.
  int64_t queued_ns = 0;  ///< Send time (message) or due time (timer).
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Message: destination. Timer: the NodeId whose closure armed it, or
  /// kOffWorker when armed by a thread outside any traced closure (a
  /// client thread inside Router::Get).
  NodeId site = kInvalidNode;
  Kind kind = kMessage;
};

class TracingBackend final : public ExecutionBackend {
 public:
  static constexpr NodeId kOffWorker = -2;

  explicit TracingBackend(ExecutionBackend* inner);
  TracingBackend(const TracingBackend&) = delete;
  TracingBackend& operator=(const TracingBackend&) = delete;

  /// Request id spans recorded on the calling thread are attributed to.
  static void SetCurrentRequest(uint64_t request);
  /// Last time (NowNs) the calling thread handed a closure to the runtime
  /// (Send or Schedule*). A client thread reads it after a call into the
  /// router to find where the router's caller-thread work ended.
  static int64_t LastHandoffNs();

  /// Spans are recorded only while recording is on.
  void set_recording(bool on) { recording_.store(on, std::memory_order_release); }
  /// Messages handed to Send while recording.
  int64_t messages() const { return messages_.load(std::memory_order_relaxed); }
  /// Spans that did not fit the per-thread cap (counted, not stored).
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// All recorded spans, concatenated across threads. Call only once every
  /// recording thread has stopped.
  std::vector<Span> Spans() const;

  // --- Executor -----------------------------------------------------------
  Time Now() const override { return inner_->Now(); }
  const Clock* clock() const override { return inner_->clock(); }
  TaskId ScheduleAt(Time t, std::function<void()> fn) override;
  TaskId ScheduleAfter(Duration delay, std::function<void()> fn) override;
  TaskId SchedulePeriodic(Duration period, std::function<void()> fn) override {
    return inner_->SchedulePeriodic(period, std::move(fn));
  }
  bool Cancel(TaskId id) override { return inner_->Cancel(id); }
  bool deterministic() const override { return inner_->deterministic(); }

  // --- MessageFabric --------------------------------------------------------
  void Send(NodeId from, NodeId to, int64_t payload_bytes,
            std::function<void()> deliver) override;
  using MessageFabric::Send;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };

  /// Wraps `fn` so that running it records a span of `kind` at `site`.
  std::function<void()> Wrap(Span::Kind kind, NodeId site, int64_t queued_ns,
                             std::function<void()> fn);
  void Record(const Span& span);

  /// Per-thread cap keeps a long traced window from exhausting memory.
  static constexpr size_t kMaxSpansPerThread = size_t{3} << 20;

  ExecutionBackend* inner_;
  const uint64_t generation_;
  std::atomic<bool> recording_{false};
  std::atomic<int64_t> messages_{0};
  std::atomic<int64_t> dropped_{0};
  mutable std::mutex buffers_mu_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace scads::perfbench

#endif  // SCADS_PERFBENCH_TRACING_BACKEND_H_
