#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>

namespace zeiot::sim {

Simulator::~Simulator() {
  while (!heap_.empty()) {
    delete heap_.top();
    heap_.pop();
  }
  for (Event* ev : free_) delete ev;
}

void Simulator::push(Time t, Callback cb) {
  Event* ev;
  if (free_.empty()) {
    ev = new Event{t, next_seq_++, std::move(cb)};
  } else {
    ev = free_.back();
    free_.pop_back();
    ev->time = t;
    ev->seq = next_seq_++;
    ev->cb = std::move(cb);
  }
  heap_.push(ev);
  if (observer_ != nullptr) observer_->on_scheduled(t, ev->seq);
}

void Simulator::recycle(Event* ev) {
  ev->cb = nullptr;  // release captured state now, not at reuse time
  free_.push_back(ev);
}

void Simulator::schedule(Time delay, Callback cb) {
  ZEIOT_CHECK_MSG(delay >= 0.0, "schedule() requires delay >= 0, got " << delay);
  push(now_ + delay, std::move(cb));
}

void Simulator::schedule_at(Time t, Callback cb) {
  ZEIOT_CHECK_MSG(t >= now_, "schedule_at() in the past: t=" << t
                                                             << " now=" << now_);
  push(t, std::move(cb));
}

void Simulator::pop_and_run() {
  Event* ev = heap_.top();
  heap_.pop();
  now_ = ev->time;
  const Time t = ev->time;
  const std::uint64_t seq = ev->seq;
  if (observer_ == nullptr) {
    ev->cb();
    recycle(ev);
    if (post_step_hook_) post_step_hook_(t);
    return;
  }
  // Wall-clock timing of the callback only happens when observed, so the
  // unobserved hot path stays a single pointer test.
  const auto start = std::chrono::steady_clock::now();
  ev->cb();
  recycle(ev);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  observer_->on_executed(t, seq, heap_.size(), wall.count());
  if (post_step_hook_) post_step_hook_(t);
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t executed = 0;
  while (!heap_.empty() && executed < limit) {
    pop_and_run();
    ++executed;
  }
  return executed;
}

std::size_t Simulator::run_until(Time t) {
  ZEIOT_CHECK_MSG(t >= now_, "run_until() in the past");
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.top()->time <= t) {
    pop_and_run();
    ++executed;
  }
  now_ = std::max(now_, t);
  return executed;
}

}  // namespace zeiot::sim
