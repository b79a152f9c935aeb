#include "runtime/threaded_runtime.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

namespace scads {
namespace {

// Which ThreadedRuntime worker (if any) the current thread is. Lets
// ScheduleAfter arm timers on the caller's own worker so node-local
// callbacks never migrate.
struct WorkerTls {
  const void* runtime = nullptr;
  int index = -1;
};
thread_local WorkerTls tls_worker;

}  // namespace

ThreadedRuntime::ThreadedRuntime(Options options) {
  int n = options.workers;
  if (n <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    n = std::clamp(static_cast<int>(hw == 0 ? 2 : hw), 2, 16);
  }
  n = std::min<int>(n, kWorkerMask + 1);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) workers_.push_back(std::make_unique<Worker>());
  for (int i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

ThreadedRuntime::~ThreadedRuntime() { Shutdown(); }

void ThreadedRuntime::Shutdown() {
  if (stopped_.exchange(true)) return;
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->stop = true;
    }
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void ThreadedRuntime::RegisterDestination(NodeId id) {
  std::unique_lock lock(destinations_mu_);
  if (destinations_.count(id)) return;
  destinations_[id] = next_destination_worker_;
  next_destination_worker_ = (next_destination_worker_ + 1) % worker_count();
}

void ThreadedRuntime::RegisterDestination(NodeId id, int worker) {
  std::unique_lock lock(destinations_mu_);
  destinations_[id] = ((worker % worker_count()) + worker_count()) % worker_count();
}

int ThreadedRuntime::WorkerOf(NodeId to) const {
  {
    std::shared_lock lock(destinations_mu_);
    auto it = destinations_.find(to);
    if (it != destinations_.end()) return it->second;
  }
  // Fibonacci hash: adjacent client ids spread across workers.
  uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(to)) * 0x9e3779b97f4a7c15ULL;
  return static_cast<int>((h >> 32) % static_cast<uint64_t>(worker_count()));
}

int ThreadedRuntime::HomeWorker() {
  if (tls_worker.runtime == this) return tls_worker.index;
  return next_external_.fetch_add(1, std::memory_order_relaxed) % worker_count();
}

Executor::TaskId ThreadedRuntime::ArmTimer(int worker, Time when, Duration period,
                                           std::function<void()> fn) {
  Worker& w = *workers_[worker];
  TaskId id = NextId(worker);
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(w.mu);
    if (w.stop) return id;
    std::optional<Time> next = w.timers.NextDeadline();
    wake = !next || when < *next;
    w.timers.Add(id, when, period, std::move(fn));
  }
  // A new earliest deadline shortens the worker's current wait.
  if (wake) w.cv.notify_one();
  return id;
}

Executor::TaskId ThreadedRuntime::ScheduleAt(Time t, std::function<void()> fn) {
  return ArmTimer(HomeWorker(), std::max(t, Now()), /*period=*/0, std::move(fn));
}

Executor::TaskId ThreadedRuntime::ScheduleAfter(Duration delay, std::function<void()> fn) {
  return ArmTimer(HomeWorker(), Now() + std::max<Duration>(delay, 0), /*period=*/0,
                  std::move(fn));
}

Executor::TaskId ThreadedRuntime::SchedulePeriodic(Duration period, std::function<void()> fn) {
  period = std::max<Duration>(period, 1);
  return ArmTimer(HomeWorker(), Now() + period, period, std::move(fn));
}

bool ThreadedRuntime::Cancel(TaskId id) {
  if (id == kInvalidTask) return false;
  Worker& w = *workers_[WorkerIndexOf(id)];
  std::function<void()> freed;  // declared first: destroyed after the unlock
  std::lock_guard<std::mutex> lock(w.mu);
  return w.timers.Cancel(id, &freed);
}

void ThreadedRuntime::Send(NodeId from, NodeId to, int64_t payload_bytes,
                           std::function<void()> deliver) {
  (void)from;
  (void)payload_bytes;
  sent_.fetch_add(1, std::memory_order_relaxed);
  Worker& w = *workers_[WorkerOf(to)];
  {
    std::lock_guard<std::mutex> lock(w.mu);
    if (w.stop) return;
    w.deliveries.push_back(std::move(deliver));
  }
  w.cv.notify_one();
}

bool ThreadedRuntime::RunOneLocked(std::unique_lock<std::mutex>& lock, Worker& w) {
  // Deliveries first (message order), then the earliest due timer. Every
  // closure is destroyed outside the lock.
  if (!w.deliveries.empty()) {
    std::function<void()> deliver = std::move(w.deliveries.front());
    w.deliveries.pop_front();
    lock.unlock();
    deliver();
    deliver = nullptr;
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    return true;
  }
  TimerQueue::Due due;
  if (!w.timers.PopDue(Now(), &due)) return false;
  lock.unlock();
  due.fn();
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  if (due.period > 0) {
    // Hands the closure back unless Cancel ran while it executed.
    lock.lock();
    w.timers.Rearm(&due, Now());
    lock.unlock();
  }
  due.fn = nullptr;
  lock.lock();
  return true;
}

void ThreadedRuntime::WorkerLoop(int index) {
  tls_worker.runtime = this;
  tls_worker.index = index;
  Worker& w = *workers_[index];
  std::unique_lock<std::mutex> lock(w.mu);
  while (true) {
    if (w.stop) return;
    if (RunOneLocked(lock, w)) continue;
    std::optional<Time> next = w.timers.NextDeadline();
    if (!next) {
      w.cv.wait(lock);
    } else {
      Duration until = *next - Now();
      if (until > 0) w.cv.wait_for(lock, std::chrono::microseconds(until));
    }
  }
}

}  // namespace scads
