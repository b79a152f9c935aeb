// TimerQueue: the pending-task store both backends share.
//
// A min-heap of (when, seq, id) plus one map from id to the task's closure
// and period. The simulator's EventLoop keeps one; each ThreadedRuntime
// worker keeps one behind its own mutex. The queue itself is not
// thread-safe.
//
//  * Order: earliest `when` first; ties run in `seq` order. `seq` is taken
//    on every Add and every periodic Rearm, so same-time tasks run in the
//    order they were (re)armed.
//  * Cancel erases the map slot and hands its closure back, so the caller
//    can destroy it after dropping its lock. The heap entry stays behind
//    and is skipped when it reaches the top.
//  * A periodic task keeps its slot while it runs (the closure is out,
//    with the caller). Rearm puts the closure back and pushes the next
//    firing, unless Cancel erased the slot in the meantime.

#ifndef SCADS_RUNTIME_TIMER_QUEUE_H_
#define SCADS_RUNTIME_TIMER_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "runtime/execution_backend.h"

namespace scads {

class TimerQueue {
 public:
  using TaskId = Executor::TaskId;

  /// A task taken off the queue to run. `period` > 0 marks a periodic
  /// task; hand it back through Rearm once it has run.
  struct Due {
    TaskId id = Executor::kInvalidTask;
    Time when = 0;
    Duration period = 0;
    std::function<void()> fn;
  };

  /// Schedules `fn` at `when`; with `period` > 0, again every `period`
  /// after each run. `id` must be unique.
  void Add(TaskId id, Time when, Duration period, std::function<void()> fn) {
    slots_.emplace(id, Slot{std::move(fn), period});
    Push(when, id);
  }

  /// Removes a pending task, or a periodic task even while it runs. Moves
  /// the closure into `*freed` (empty for a running periodic task).
  /// Returns false when the task already ran or does not exist.
  bool Cancel(TaskId id, std::function<void()>* freed) {
    auto it = slots_.find(id);
    if (it == slots_.end()) return false;
    *freed = std::move(it->second.fn);
    slots_.erase(it);
    return true;
  }

  /// The earliest pending deadline; drops cancelled entries off the top.
  std::optional<Time> NextDeadline() {
    while (!heap_.empty()) {
      if (slots_.count(heap_.front().id)) return heap_.front().when;
      Pop();
    }
    return std::nullopt;
  }

  /// Takes the earliest pending task if it is due at or before `limit`.
  bool PopDue(Time limit, Due* due) {
    while (!heap_.empty()) {
      auto it = slots_.find(heap_.front().id);
      if (it == slots_.end()) {
        Pop();
        continue;
      }
      if (heap_.front().when > limit) return false;
      Entry top = Pop();
      *due = Due{top.id, top.when, it->second.period, std::move(it->second.fn)};
      if (due->period == 0) slots_.erase(it);
      return true;
    }
    return false;
  }

  /// Re-arms the periodic task `due` came from at `now + period`. Returns
  /// false, leaving the closure in `due`, when it was cancelled meanwhile.
  bool Rearm(Due* due, Time now) {
    auto it = slots_.find(due->id);
    if (it == slots_.end()) return false;
    it->second.fn = std::move(due->fn);
    Push(now + due->period, due->id);
    return true;
  }

  /// Pending tasks; a periodic task counts once.
  size_t size() const { return slots_.size(); }

 private:
  struct Entry {
    Time when;
    uint64_t seq;
    TaskId id;
  };
  // Heap order: the earliest (when, seq) on top.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    std::function<void()> fn;
    Duration period;
  };

  void Push(Time when, TaskId id) {
    heap_.push_back(Entry{when, next_seq_++, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  Entry Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry top = heap_.back();
    heap_.pop_back();
    return top;
  }

  std::vector<Entry> heap_;
  std::unordered_map<TaskId, Slot> slots_;
  uint64_t next_seq_ = 0;
};

}  // namespace scads

#endif  // SCADS_RUNTIME_TIMER_QUEUE_H_
