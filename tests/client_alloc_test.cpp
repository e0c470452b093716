// Zero-allocation gate for the client path: after warm-up, TSC clients
// with retries on, driving a real TcpTransport + EventLoop against an
// in-process server on loopback, allocate nothing on their loop thread —
// not per operation, not per RPC timeout re-arm, not per posted task, not
// per recv.
//
// This binary replaces the global operator new with a per-thread counter.
// Only the client loop thread's count inside the steady-state window is
// asserted; the server thread and the set-up allocate freely.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "clocks/physical_clock.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "protocol/server.hpp"
#include "protocol/timed_serial_cache.hpp"

namespace {

thread_local std::uint64_t t_allocs = 0;

void* counted_malloc(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t n) { return counted_malloc(n); }
void* operator new[](std::size_t n) { return counted_malloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace timedc {
namespace {

constexpr std::size_t kClients = 4;
constexpr std::uint32_t kObjects = 16;
constexpr std::uint64_t kWarmupOps = 2000;
constexpr std::uint64_t kWindowOps = 4000;
// The window also spans several RPC timeouts, so the one retry timer per
// client fires and re-arms inside it.
constexpr std::int64_t kMinWindowUs = 60000;

/// An in-process timedc-server on an ephemeral port, its loop on its own
/// thread.
class LoopbackServer {
 public:
  LoopbackServer() {
    port_ = transport_.listen(0);
    server_ = std::make_unique<ObjectServer>(transport_, SiteId{0}, 4,
                                             PushPolicy::kNone, MessageSizes{});
    server_->attach();
    thread_ = std::thread([this] { loop_.run(); });
  }

  ~LoopbackServer() {
    net::TcpTransport* transport = &transport_;
    loop_.post([transport] { transport->close_all(); });
    loop_.stop();
    thread_.join();
  }

  std::uint16_t port() const { return port_; }

 private:
  net::EventLoop loop_;
  net::TcpTransport transport_{loop_};
  std::unique_ptr<ObjectServer> server_;
  std::thread thread_;
  std::uint16_t port_ = 0;
};

/// Closed-loop load: each client issues its next operation in a posted
/// task when the previous one completes. Every capture is at most 16 bytes,
/// so the std::function wrappers store it inline.
class Loader {
 public:
  explicit Loader(std::uint16_t port) {
    tx_.add_route(SiteId{0}, "127.0.0.1", port);
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.base_timeout = SimTime::millis(5);
    for (std::size_t k = 0; k < kClients; ++k) {
      auto c = std::make_unique<TimedSerialCache>(
          tx_, SiteId{100 + static_cast<std::uint32_t>(k)}, SiteId{0},
          &clock_, SimTime::millis(2), /*mark_old=*/true, MessageSizes{});
      c->configure_reliability(policy, {SiteId{0}}, 0x5eed + k);
      c->attach();
      clients_.push_back(std::move(c));
    }
    next_.assign(kClients, 0);
  }

  /// Runs warm-up then the window; returns the loop thread's allocations
  /// inside the window.
  std::uint64_t run() {
    for (std::size_t k = 0; k < kClients; ++k) {
      loop_.post([this, k] { issue(k); });
    }
    loop_.run_after(SimTime::seconds(60), [this] { loop_.stop(); });  // hang guard
    loop_.run();
    return window_allocs_;
  }

  std::uint64_t completed() const { return completed_; }
  bool window_done() const { return window_done_; }
  std::uint64_t retries() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c->stats().retries;
    return n;
  }

 private:
  void issue(std::size_t k) {
    const std::uint64_t seq = next_[k]++;
    const ObjectId object{static_cast<std::uint32_t>((seq * 7 + k) % kObjects)};
    if (seq % 10 == 3) {
      const Value value{static_cast<std::int64_t>((k + 1) << 32 | seq)};
      clients_[k]->write(object, value, [this, k](SimTime) { done(k); });
    } else {
      clients_[k]->read(object, [this, k](Value, SimTime) { done(k); });
    }
  }

  void done(std::size_t k) {
    ++completed_;
    if (completed_ == kWarmupOps) {
      window_start_allocs_ = t_allocs;
      window_start_us_ = net::EventLoop::steady_time_us();
    }
    if (completed_ >= kWarmupOps + kWindowOps && !window_done_ &&
        net::EventLoop::steady_time_us() - window_start_us_ >= kMinWindowUs) {
      window_allocs_ = t_allocs - window_start_allocs_;
      window_done_ = true;
      loop_.stop();
      return;
    }
    loop_.post([this, k] { issue(k); });
  }

  net::EventLoop loop_;
  net::TcpTransport tx_{loop_, SimTime::millis(100)};
  PerfectClock clock_;
  std::vector<std::unique_ptr<TimedSerialCache>> clients_;
  std::vector<std::uint64_t> next_;
  std::uint64_t completed_ = 0;
  std::uint64_t window_start_allocs_ = 0;
  std::int64_t window_start_us_ = 0;
  std::uint64_t window_allocs_ = 0;
  bool window_done_ = false;
};

TEST(ClientAllocGate, SteadyStateClientLoopAllocatesNothing) {
  LoopbackServer server;
  Loader loader(server.port());
  const std::uint64_t allocs = loader.run();
  ASSERT_TRUE(loader.window_done()) << "only " << loader.completed()
                                    << " ops completed before the hang guard";
  EXPECT_EQ(allocs, 0u) << "client loop thread allocated in steady state ("
                        << loader.retries() << " retries)";
}

}  // namespace
}  // namespace timedc
