#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"

namespace timedc::net {
namespace {

/// The loop whose run() is executing on this thread, if any. Thread-local,
/// so no other thread ever reads it (unlike loop_thread_, which run()
/// rewrites while other threads may call post()).
thread_local const EventLoop* t_running_loop = nullptr;

std::int64_t clock_us(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  TIMEDC_ASSERT(epoll_fd_ >= 0);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  TIMEDC_ASSERT(wake_fd_ >= 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  const int rc = epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  TIMEDC_ASSERT(rc == 0);
  loop_thread_ = std::this_thread::get_id();
  // Room up front, so a new high-water mark of pending timers or of tasks
  // posted in one tick does not reallocate mid-run (sizes: event_loop.hpp).
  timers_.reserve(kReservedTimers);
  posted_.reserve(kReservedPosts);
  draining_.reserve(kReservedPosts);
}

EventLoop::~EventLoop() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

std::int64_t EventLoop::steady_now_us() { return clock_us(CLOCK_MONOTONIC); }

SimTime EventLoop::now() const { return SimTime::micros(clock_us(CLOCK_REALTIME)); }

void EventLoop::add_fd(int fd, std::uint32_t events, FdCallback cb) {
  TIMEDC_ASSERT(fds_.find(fd) == fds_.end());
  fds_[fd] = std::move(cb);
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  const int rc = epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  TIMEDC_ASSERT(rc == 0);
}

void EventLoop::modify_fd(int fd, std::uint32_t events) {
  TIMEDC_ASSERT(fds_.find(fd) != fds_.end());
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  const int rc = epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  TIMEDC_ASSERT(rc == 0);
}

void EventLoop::remove_fd(int fd) {
  if (fds_.erase(fd) == 0) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

bool EventLoop::called_from_run() const { return t_running_loop == this; }

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    posted_.push_back(std::move(fn));
  }
  if (!called_from_run()) wake();
}

EventLoop::TimerId EventLoop::run_after(SimTime delay, std::function<void()> fn) {
  TIMEDC_ASSERT(!delay.is_infinite());
  const std::int64_t deadline = steady_now_us() + std::max<std::int64_t>(0, delay.as_micros());
  TimerId id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_timer_seq_++;
    timers_.push_back(Timer{deadline, id, std::move(fn)});
    std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
  }
  if (!called_from_run()) wake();
  return id;
}

bool EventLoop::cancel_timer(TimerId id) {
  // Declared before the lock: the capture is destroyed after unlocking, so
  // a destructor that posts cannot deadlock.
  std::function<void()> dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  for (Timer& t : timers_) {
    if (t.seq != id) continue;
    if (t.cancelled) return false;
    t.cancelled = true;  // pops unfired at its deadline
    dropped.swap(t.fn);  // release the capture now, not at the deadline
    return true;
  }
  return false;  // already fired (or never issued)
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

EventLoop::HookId EventLoop::add_tick_end_hook(std::function<void()> fn) {
  TIMEDC_ASSERT(running_in_loop_thread());
  const HookId id = next_hook_id_++;
  tick_end_hooks_.push_back(TickEndHook{id, std::move(fn)});
  return id;
}

void EventLoop::remove_tick_end_hook(HookId id) {
  // No thread assert: owners unregister from their destructors, which run
  // after the loop thread has stopped and joined.
  for (auto& hook : tick_end_hooks_) {
    if (hook.id == id) {
      hook.fn = nullptr;  // compacted after the current iteration
      hooks_dirty_ = true;
      return;
    }
  }
}

void EventLoop::run_tick_end_hooks() {
  // Index loop: a hook may register another hook (it runs this same tick,
  // at the end) but removal only nulls the slot, so iteration stays valid.
  for (std::size_t i = 0; i < tick_end_hooks_.size(); ++i) {
    if (tick_end_hooks_[i].fn) tick_end_hooks_[i].fn();
  }
  if (hooks_dirty_) {
    std::erase_if(tick_end_hooks_,
                  [](const TickEndHook& h) { return !h.fn; });
    hooks_dirty_ = false;
  }
}

void EventLoop::drain_posted() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_.swap(posted_);
  }
  // Tasks posted by these tasks land in posted_ and run next iteration.
  for (auto& t : draining_) t();
  draining_.clear();
}

void EventLoop::fire_due_timers() {
  const std::int64_t now = steady_now_us();
  for (;;) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (timers_.empty() || timers_.front().deadline_steady_us > now) return;
      // The timer leaves the heap before its callback runs, so a timer
      // cancelling itself from inside its own callback finds nothing
      // pending. A cancelled timer pops unfired.
      std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
      if (!timers_.back().cancelled) fn.swap(timers_.back().fn);
      timers_.pop_back();
    }
    if (fn) fn();
  }
}

int EventLoop::wait_timeout_ms() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Tasks posted from inside the loop wrote no eventfd: poll, don't block.
  if (!posted_.empty()) return 0;
  if (!timers_.empty()) {
    const std::int64_t us = timers_.front().deadline_steady_us - steady_now_us();
    if (us <= 0) return 0;
    return static_cast<int>((us + 999) / 1000);
  }
  return -1;
}

void EventLoop::run() {
  loop_thread_ = std::this_thread::get_id();
  const EventLoop* const outer = t_running_loop;
  t_running_loop = this;
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(epoll_fd_, events, 64, wait_timeout_ms());
    if (n < 0) {
      TIMEDC_ASSERT(errno == EINTR);
      continue;
    }
    tick_start_steady_us_ = steady_now_us();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      // Look up at dispatch time (an earlier callback this round may have
      // removed this fd) and invoke a copy, so a callback that removes its
      // own registration does not destroy the function mid-call.
      const auto it = fds_.find(fd);
      if (it == fds_.end()) continue;
      FdCallback cb = it->second;
      cb(events[i].events);
    }
    fire_due_timers();
    drain_posted();
    run_tick_end_hooks();
  }
  t_running_loop = outer;
}

}  // namespace timedc::net
