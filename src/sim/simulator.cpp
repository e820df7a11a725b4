#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

namespace zeiot::sim {

void Simulator::push(Time t, Callback&& cb) {
  std::uint32_t s = free_slot_;
  if (s != kNil) {
    free_slot_ = slots_[s].next;
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[s].cb = std::move(cb);
  slots_[s].next = kNil;
  const std::uint64_t seq = next_seq_++;
  // The last run holds the newest seqs, so appending keeps its seq range
  // contiguous and the run still sorts where its events belong.
  if (last_tail_ != kNil && std::bit_cast<std::uint64_t>(t) ==
                                std::bit_cast<std::uint64_t>(last_time_)) {
    slots_[last_tail_].next = s;
  } else {
    runs_.push_back({t, seq, s});
    std::push_heap(runs_.begin(), runs_.end(), std::greater<>{});
    last_time_ = t;
  }
  last_tail_ = s;
  ++pending_;
  if (observer_ != nullptr) observer_->on_scheduled(t, seq);
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
  Run& top = runs_.front();
  const Time t = top.time;
  const std::uint64_t seq = top.seq++;
  const std::uint32_t s = top.head;
  top.head = slots_[s].next;
  if (top.head == kNil) {  // drained: a push at this time opens a new run
    std::pop_heap(runs_.begin(), runs_.end(), std::greater<>{});
    runs_.pop_back();
    if (last_tail_ == s) last_tail_ = kNil;
  }
  // Move the callback out so its slot is free (and the arena may grow)
  // while it runs; captured state is released as soon as it returns.
  Callback cb = std::move(slots_[s].cb);
  slots_[s].next = free_slot_;
  free_slot_ = s;
  --pending_;
  now_ = t;
  if (observer_ == nullptr) {
    cb();
    cb.reset();
    if (post_step_hook_) post_step_hook_(t);
    return;
  }
  // Wall-clock timing of the callback only happens when observed, so the
  // unobserved hot path stays a single pointer test.
  const auto start = std::chrono::steady_clock::now();
  cb();
  cb.reset();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  observer_->on_executed(t, seq, pending_, wall.count());
  if (post_step_hook_) post_step_hook_(t);
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t executed = 0;
  while (!runs_.empty() && executed < limit) {
    pop_and_run();
    ++executed;
  }
  return executed;
}

std::size_t Simulator::run_until(Time t) {
  ZEIOT_CHECK_MSG(t >= now_, "run_until() in the past");
  std::size_t executed = 0;
  while (!runs_.empty() && runs_.front().time <= t) {
    pop_and_run();
    ++executed;
  }
  now_ = std::max(now_, t);
  return executed;
}

}  // namespace zeiot::sim
