#include "tracing_backend.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace scads::perfbench {
namespace {

// Request the running code belongs to, and the NodeId whose closure is
// running (kOffWorker outside any traced closure).
thread_local uint64_t tl_request = 0;
thread_local NodeId tl_site = TracingBackend::kOffWorker;
thread_local int64_t tl_last_handoff_ns = 0;

// This thread's span buffer, tagged with the generation of the backend
// that owns it so a thread that outlives one backend never writes into a
// freed buffer.
std::atomic<uint64_t> next_generation{1};
thread_local uint64_t tl_owner = 0;
thread_local void* tl_buffer = nullptr;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TracingBackend::TracingBackend(ExecutionBackend* inner)
    : inner_(inner), generation_(next_generation.fetch_add(1)) {}

void TracingBackend::SetCurrentRequest(uint64_t request) { tl_request = request; }

int64_t TracingBackend::LastHandoffNs() { return tl_last_handoff_ns; }

std::function<void()> TracingBackend::Wrap(Span::Kind kind, NodeId site, int64_t queued_ns,
                                           std::function<void()> fn) {
  tl_last_handoff_ns = NowNs();
  return [this, kind, site, queued_ns, request = tl_request, fn = std::move(fn)] {
    uint64_t saved_request = tl_request;
    NodeId saved_site = tl_site;
    tl_request = request;
    tl_site = site;
    int64_t start = NowNs();
    fn();
    int64_t end = NowNs();
    tl_request = saved_request;
    tl_site = saved_site;
    if (recording_.load(std::memory_order_acquire)) {
      Span span;
      span.request = request;
      span.queued_ns = queued_ns;
      span.start_ns = start;
      span.end_ns = end;
      span.site = site;
      span.kind = kind;
      Record(span);
    }
  };
}

void TracingBackend::Record(const Span& span) {
  if (tl_owner != generation_) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(size_t{1} << 16);
    tl_buffer = buffer.get();
    tl_owner = generation_;
    std::lock_guard<std::mutex> lock(buffers_mu_);
    buffers_.push_back(std::move(buffer));
  }
  auto* buffer = static_cast<Buffer*>(tl_buffer);
  if (buffer->spans.size() >= kMaxSpansPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->spans.push_back(span);
}

std::vector<Span> TracingBackend::Spans() const {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->spans.size();
  std::vector<Span> all;
  all.reserve(total);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

Executor::TaskId TracingBackend::ScheduleAt(Time t, std::function<void()> fn) {
  int64_t due = NowNs() + std::max<Duration>(0, t - inner_->Now()) * 1000;
  return inner_->ScheduleAt(t, Wrap(Span::kTimer, tl_site, due, std::move(fn)));
}

Executor::TaskId TracingBackend::ScheduleAfter(Duration delay, std::function<void()> fn) {
  int64_t due = NowNs() + std::max<Duration>(0, delay) * 1000;
  return inner_->ScheduleAfter(delay, Wrap(Span::kTimer, tl_site, due, std::move(fn)));
}

void TracingBackend::Send(NodeId from, NodeId to, int64_t payload_bytes,
                          std::function<void()> deliver) {
  if (recording_.load(std::memory_order_relaxed)) {
    messages_.fetch_add(1, std::memory_order_relaxed);
  }
  inner_->Send(from, to, payload_bytes, Wrap(Span::kMessage, to, NowNs(), std::move(deliver)));
}

}  // namespace scads::perfbench
