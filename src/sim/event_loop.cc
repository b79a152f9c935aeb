#include "sim/event_loop.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace scads {

EventLoop::EventId EventLoop::ScheduleAt(Time t, std::function<void()> fn) {
  EventId id = next_id_++;
  timers_.Add(id, std::max(t, Now()), /*period=*/0, std::move(fn));
  return id;
}

EventLoop::EventId EventLoop::ScheduleAfter(Duration delay, std::function<void()> fn) {
  SCADS_CHECK(delay >= 0);
  return ScheduleAt(Now() + delay, std::move(fn));
}

EventLoop::EventId EventLoop::SchedulePeriodic(Duration period, std::function<void()> fn) {
  SCADS_CHECK(period > 0);
  EventId id = next_id_++;
  timers_.Add(id, Now() + period, period, std::move(fn));
  return id;
}

bool EventLoop::Cancel(EventId id) {
  std::function<void()> freed;
  return timers_.Cancel(id, &freed);
}

bool EventLoop::RunNext(Time limit) {
  TimerQueue::Due due;
  if (!timers_.PopDue(limit, &due)) return false;
  clock_.SetTime(due.when);
  ++executed_;
  due.fn();
  if (due.period > 0) timers_.Rearm(&due, Now());
  return true;
}

bool EventLoop::RunOne() { return RunNext(std::numeric_limits<Time>::max()); }

void EventLoop::RunUntil(Time deadline) {
  while (RunNext(deadline)) {
  }
  if (Now() < deadline) clock_.SetTime(deadline);
}

void EventLoop::RunFor(Duration span) {
  SCADS_CHECK(span >= 0);
  RunUntil(Now() + span);
}

void EventLoop::RunAll() {
  while (RunOne()) {
  }
}

}  // namespace scads
