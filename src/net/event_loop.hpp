// A single-threaded, non-blocking epoll event loop.
//
// One EventLoop drives every socket of a TcpTransport plus its timers and
// cross-thread posted tasks. It is the real-world stand-in for the
// discrete-event Simulator: protocol code written against Transport sees
// "now" and "run this later" here exactly as it does there, except that
// time is CLOCK_REALTIME and callbacks race with the outside world.
//
// Threading: run() executes on exactly one thread (the loop thread); every
// fd callback, timer and posted task fires there. post(), run_after() and
// stop() are safe from any thread; add_fd/modify_fd/remove_fd are loop-
// thread only. Calls from inside this loop's own run() write no eventfd:
// the loop computes its next epoll_wait timeout after the current tick, so
// it already sees the new task or timer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/sim_time.hpp"

namespace timedc::net {

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t epoll_events)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Watch `fd` for the EPOLL* events in `events`. The callback may close
  /// other fds, add new ones, or remove itself.
  void add_fd(int fd, std::uint32_t events, FdCallback cb);
  void modify_fd(int fd, std::uint32_t events);
  void remove_fd(int fd);

  /// Run `fn` on the loop thread as soon as possible. Thread-safe; from
  /// another thread it wakes a blocked epoll_wait, from inside run() it
  /// runs on the next iteration without a wake (that epoll_wait polls).
  void post(std::function<void()> fn);

  /// Identifies one pending run_after timer. Never reused.
  using TimerId = std::uint64_t;

  /// Run `fn` once, `delay` from now, on the loop thread. Thread-safe.
  /// Deadlines are tracked on CLOCK_MONOTONIC so wall-clock jumps cannot
  /// fire timers early or stall them. The returned id cancels the timer via
  /// cancel_timer(); it stays valid (as a no-op) after the timer fires.
  /// Like post(), wakes the loop only when called from another thread.
  TimerId run_after(SimTime delay, std::function<void()> fn);

  /// Prevent a pending timer from firing. Returns true if the timer was
  /// still pending (it will now never run), false if it already fired or
  /// was already cancelled. Thread-safe, and safe from inside the timer's
  /// own callback (a timer cancelling itself mid-fire returns false — it is
  /// no longer pending by then). The callback is released at once; the
  /// heap entry is flagged and stays until its deadline, where it pops
  /// unfired. Scans the heap: meant for rare cancellations, not the
  /// per-operation path.
  bool cancel_timer(TimerId id);

  /// Wall-clock time (CLOCK_REALTIME) in microseconds. Real deployments of
  /// the timed protocols compare timestamps across processes, so the time
  /// source must be one every process shares.
  SimTime now() const;

  /// Process events until stop(). Must be called from exactly one thread.
  void run();

  /// Ask run() to return after the current iteration. Thread-safe.
  void stop();

  /// Identifies one registered tick-end hook.
  using HookId = std::uint64_t;

  /// Register `fn` to run at the end of every loop iteration — after the
  /// fd callbacks, due timers and posted tasks of that iteration. This is
  /// the batching point: everything a tick queued (acks to coalesce, local
  /// deliveries to apply) is drained in one place, once, before the loop
  /// blocks again. Loop-thread only. Hooks run in registration order.
  HookId add_tick_end_hook(std::function<void()> fn);

  /// Unregister a tick-end hook. Loop-thread only while the loop runs
  /// (safe from inside the hook itself — removal takes effect next
  /// iteration); also safe after the loop has stopped and joined.
  void remove_tick_end_hook(HookId id);

  bool running_in_loop_thread() const {
    return std::this_thread::get_id() == loop_thread_;
  }

  /// CLOCK_MONOTONIC stamp taken when the current iteration's epoll_wait
  /// returned. Tick-end hooks subtract it from steady time to measure how
  /// long the iteration's callbacks ran (the reactor stall watchdog);
  /// excludes the blocking wait itself. Loop-thread only.
  std::int64_t tick_start_steady_us() const { return tick_start_steady_us_; }
  /// Current CLOCK_MONOTONIC microseconds (duration measurements only —
  /// not comparable across processes, unlike now()).
  static std::int64_t steady_time_us() { return steady_now_us(); }

 private:
  struct Timer {
    std::int64_t deadline_steady_us;
    std::uint64_t seq;  // insertion order breaks deadline ties; the TimerId
    std::function<void()> fn;
    bool cancelled = false;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.deadline_steady_us != b.deadline_steady_us) {
        return a.deadline_steady_us > b.deadline_steady_us;
      }
      return a.seq > b.seq;
    }
  };

  // Capacity reserved up front, about 4x the largest high-water marks
  // measured (20-s e2ebench runs of every workload, and ten runs of
  // client_alloc_test): 65 pending timers on cluster_forward's client loop
  // (8 clients with retries, whose superseded retry timers stay pending
  // until their deadlines, plus 3 supervised peers), at most 6 on a server
  // loop; at most 4 tasks posted per tick on any loop.
  static constexpr std::size_t kReservedTimers = 256;
  static constexpr std::size_t kReservedPosts = 16;

  static std::int64_t steady_now_us();
  /// True when the caller runs inside this loop's run(): its next
  /// epoll_wait timeout is computed after the current tick, so a task or
  /// timer added now needs no eventfd wake.
  bool called_from_run() const;
  void wake();
  void drain_posted();
  void fire_due_timers();
  void run_tick_end_hooks();
  /// epoll_wait timeout: 0 while posted tasks wait, else until the nearest
  /// timer (ms, rounded up), or -1.
  int wait_timeout_ms();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd written by post()/stop()
  std::atomic<bool> stop_{false};
  std::thread::id loop_thread_;

  std::unordered_map<int, FdCallback> fds_;

  /// Tick-end hooks, loop-thread only (no lock). Stable ids; removal marks
  /// the slot and the vector is compacted outside hook iteration.
  struct TickEndHook {
    HookId id;
    std::function<void()> fn;
  };
  std::vector<TickEndHook> tick_end_hooks_;
  HookId next_hook_id_ = 0;
  bool hooks_dirty_ = false;
  std::int64_t tick_start_steady_us_ = 0;

  std::mutex mutex_;  // guards posted_ and timers_
  std::vector<std::function<void()>> posted_;
  /// drain_posted() swaps posted_ with this loop-owned vector and clears it
  /// after running the batch, so both keep their capacity: a steady stream
  /// of posts allocates nothing.
  std::vector<std::function<void()>> draining_;
  /// Binary min-heap (std::push_heap/pop_heap with TimerLater) of pending
  /// timers, cancelled ones included until their deadline pops them.
  std::vector<Timer> timers_;
  std::uint64_t next_timer_seq_ = 0;
};

}  // namespace timedc::net
