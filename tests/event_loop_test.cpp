// EventLoop timer edge cases (zero delay, same-deadline ordering, lazy
// cancellation, self-cancellation from inside the firing callback), the
// posting contract (a post from inside the loop runs next iteration with
// no eventfd wake; a post from another thread still wakes a blocked
// epoll_wait), the Connection write-side backpressure contract (a peer
// that never drains its socket pauses our reading at the high watermark
// and resumes below the low watermark once the bytes finally move) and the
// read buffer, which grows without zero-filling: frames split across many
// reads and a steered connection's leftover bytes decode unchanged.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/wire.hpp"
#include "protocol/messages.hpp"

namespace timedc {
namespace {

/// Runs `fn` on the loop thread and returns its value (the loop must be
/// running on another thread).
template <typename F>
auto on_loop(net::EventLoop& loop, F fn) -> decltype(fn()) {
  std::promise<decltype(fn())> result;
  auto fut = result.get_future();
  loop.post([&] { result.set_value(fn()); });
  return fut.get();
}

TEST(EventLoopTimers, ZeroDelayTimerFiresOnNextIteration) {
  net::EventLoop loop;
  int fired = 0;
  loop.run_after(SimTime::zero(), [&] {
    ++fired;
    loop.stop();
  });
  loop.run_after(SimTime::seconds(30), [&] { loop.stop(); });  // hang guard
  loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTimers, SameDeadlineFiresInInsertionOrder) {
  net::EventLoop loop;
  std::vector<int> order;
  // Identical delays computed before either is inserted: deadline ties must
  // break by insertion sequence, deterministically.
  loop.run_after(SimTime::millis(1), [&] { order.push_back(1); });
  loop.run_after(SimTime::millis(1), [&] { order.push_back(2); });
  loop.run_after(SimTime::millis(1), [&] {
    order.push_back(3);
    loop.stop();
  });
  loop.run_after(SimTime::seconds(30), [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTimers, CancelledTimerNeverFires) {
  net::EventLoop loop;
  bool cancelled_fired = false;
  const net::EventLoop::TimerId id =
      loop.run_after(SimTime::millis(1), [&] { cancelled_fired = true; });
  EXPECT_TRUE(loop.cancel_timer(id));
  EXPECT_FALSE(loop.cancel_timer(id));  // second cancel: no longer pending
  // A later timer at a later deadline proves the loop ran past the
  // cancelled deadline without firing it.
  loop.run_after(SimTime::millis(5), [&] { loop.stop(); });
  loop.run_after(SimTime::seconds(30), [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(cancelled_fired);
}

TEST(EventLoopTimers, CallbackCancellingItselfReturnsFalse) {
  net::EventLoop loop;
  net::EventLoop::TimerId self = 0;
  bool self_cancel_result = true;
  self = loop.run_after(SimTime::zero(), [&] {
    // By the time the callback runs the timer is no longer pending, so the
    // cancel must report false and must not break the loop.
    self_cancel_result = loop.cancel_timer(self);
    loop.stop();
  });
  loop.run_after(SimTime::seconds(30), [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(self_cancel_result);
}

TEST(EventLoopTimers, CallbackCancellingSameDeadlineSiblingSuppressesIt) {
  net::EventLoop loop;
  bool sibling_fired = false;
  net::EventLoop::TimerId sibling = 0;
  bool cancel_result = false;
  loop.run_after(SimTime::millis(1), [&] {
    // The sibling shares this deadline and is already due; cancelling it
    // from inside the earlier-inserted callback must still suppress it.
    cancel_result = loop.cancel_timer(sibling);
  });
  sibling = loop.run_after(SimTime::millis(1), [&] { sibling_fired = true; });
  loop.run_after(SimTime::millis(5), [&] { loop.stop(); });
  loop.run_after(SimTime::seconds(30), [&] { loop.stop(); });
  loop.run();
  EXPECT_TRUE(cancel_result);
  EXPECT_FALSE(sibling_fired);
}

// Tick-end hooks count iterations: a task posted during iteration i that
// runs in iteration i + 1 sees the count at i (that iteration's hooks run
// after its posted tasks). The hang guard is far beyond the test's pace,
// so a loop blocking in epoll_wait for want of a wake fails the test.
TEST(EventLoopPost, PostFromTickEndHookRunsNextIterationWithoutFdActivity) {
  net::EventLoop loop;
  int iterations = 0;
  int posted_at = -1;
  int ran_at = -1;
  bool guard_fired = false;
  loop.add_tick_end_hook([&] {
    ++iterations;
    if (posted_at < 0) {
      posted_at = iterations;
      loop.post([&] {
        ran_at = iterations;
        loop.stop();
      });
    }
  });
  loop.run_after(SimTime::seconds(10), [&] {
    guard_fired = true;
    loop.stop();
  });
  const auto t0 = std::chrono::steady_clock::now();
  loop.run();
  EXPECT_FALSE(guard_fired);
  EXPECT_EQ(ran_at, posted_at);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

TEST(EventLoopPost, PostFromPostedTaskRunsNextIterationWithoutFdActivity) {
  net::EventLoop loop;
  int iterations = 0;
  int outer_at = -1;
  int inner_at = -1;
  bool guard_fired = false;
  loop.add_tick_end_hook([&] { ++iterations; });
  loop.run_after(SimTime::seconds(10), [&] {
    guard_fired = true;
    loop.stop();
  });
  std::thread loop_thread([&] { loop.run(); });
  // A cross-thread post starts the chain; the inner post is loop-thread.
  loop.post([&] {
    outer_at = iterations;
    loop.post([&] {
      inner_at = iterations;
      loop.stop();
    });
  });
  loop_thread.join();
  EXPECT_FALSE(guard_fired);
  EXPECT_EQ(inner_at, outer_at + 1);  // not in the same drain, the next one
}

TEST(EventLoopPost, CrossThreadPostWakesBlockedLoop) {
  net::EventLoop loop;
  bool guard_fired = false;
  bool ran = false;
  loop.run_after(SimTime::seconds(10), [&] {
    guard_fired = true;
    loop.stop();
  });
  std::thread loop_thread([&] { loop.run(); });
  // Let the loop settle into epoll_wait (its only timer is 10 s away).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  loop.post([&] {
    ran = true;
    loop.stop();
  });
  loop_thread.join();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(guard_fired);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

TEST(ConnectionBackpressure, PausesReadingAtHighWatermarkAndResumes) {
  // A unix socketpair stands in for TCP: Connection is stream-agnostic.
  // Tiny send buffer so the kernel absorbs almost nothing and queued bytes
  // land in the Connection's write buffer.
  int sv[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  const int sndbuf = 8 * 1024;
  ASSERT_EQ(setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)),
            0);

  net::EventLoop loop;
  std::thread loop_thread([&] { loop.run(); });
  std::unique_ptr<net::Connection> conn;
  const Message msg{FetchRequest{ObjectId{1}, SiteId{7}, 1}};

  const bool paused = on_loop(loop, [&] {
    conn = std::make_unique<net::Connection>(loop, sv[0], false);
    conn->start([](net::Connection&, const wire::FrameView&) {},
                [](net::Connection&, const char*) {});
    // The peer never reads: keep queueing frames until the high watermark
    // pauses our read side (bounded: ~5MiB of frames clears 4MiB + sndbuf).
    for (int i = 0; i < 400000 && !conn->reading_paused(); ++i) {
      conn->send_frame(SiteId{7}, SiteId{0}, msg);
    }
    return conn->reading_paused();
  });
  EXPECT_TRUE(paused);
  EXPECT_GE(on_loop(loop, [&] { return conn->pending_write_bytes(); }),
            net::Connection::kHighWatermark);

  // Now drain the peer side until the connection's buffer falls under the
  // low watermark and reading resumes.
  std::vector<char> sink(256 * 1024);
  bool resumed = false;
  for (int spin = 0; spin < 20000 && !resumed; ++spin) {
    while (read(sv[1], sink.data(), sink.size()) > 0) {
    }
    resumed = on_loop(loop, [&] { return !conn->reading_paused(); });
  }
  EXPECT_TRUE(resumed);

  on_loop(loop, [&] {
    conn->close("test done");
    conn.reset();
    return true;
  });
  loop.stop();
  loop_thread.join();
  close(sv[1]);
}

/// A FetchReply whose two logical timestamps carry the maximum entry count:
/// one frame larger than the 64 KiB read chunk.
Message large_message(std::uint64_t seed) {
  std::vector<std::uint64_t> entries(wire::kMaxClockEntries);
  for (std::size_t i = 0; i < entries.size(); ++i) entries[i] = seed * 31 + i;
  const PlausibleTimestamp ts(entries, SiteId{2});
  const ObjectCopy copy{ObjectId{9}, Value{static_cast<std::int64_t>(seed)},
                        seed, SimTime::micros(1), SimTime::micros(2),
                        SimTime::micros(3), ts, ts};
  return Message{FetchReply{copy, seed}};
}

/// Decodes every frame a connection delivers and keeps its exact bytes.
struct FrameSink {
  std::vector<std::uint8_t> bytes;
  std::vector<Message> messages;
  void on_frame(const wire::FrameView& view) {
    const auto raw = wire::frame_bytes(view);
    bytes.insert(bytes.end(), raw.begin(), raw.end());
    wire::DecodedFrame decoded;
    ASSERT_EQ(wire::decode_frame_view(view, decoded), wire::DecodeStatus::kOk);
    messages.push_back(decoded.message);
  }
};

/// Writes all `n` bytes to a non-blocking socket, waiting out a full
/// buffer while the loop thread drains it. False on error or no progress.
bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  for (int stalls = 0; n > 0 && stalls < 5000;) {
    const ssize_t w = write(fd, data, n);
    if (w > 0) {
      data += w;
      n -= static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
    ++stalls;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return n == 0;
}

TEST(ConnectionReadBuffer, FrameLargerThanReadChunkArrivesInSmallPieces) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  const std::vector<Message> msgs = {
      Message{FetchRequest{ObjectId{1}, SiteId{7}, 1}}, large_message(2),
      Message{FetchRequest{ObjectId{3}, SiteId{7}, 3}}, large_message(4)};
  std::vector<std::uint8_t> stream;
  for (const Message& m : msgs) wire::encode_frame(SiteId{7}, SiteId{0}, m, stream);
  ASSERT_GT(stream.size(), 2 * 64 * 1024u);

  net::EventLoop loop;
  std::thread loop_thread([&] { loop.run(); });
  std::unique_ptr<net::Connection> conn;
  FrameSink sink;
  on_loop(loop, [&] {
    conn = std::make_unique<net::Connection>(loop, sv[0], false);
    conn->start([&](net::Connection&, const wire::FrameView& v) { sink.on_frame(v); },
                [](net::Connection&, const char*) {});
    return true;
  });
  // Odd-sized pieces with pauses: most reads end mid-header or mid-body,
  // so every frame is assembled across many recv calls into spare capacity.
  constexpr std::size_t kPiece = 1021;
  for (std::size_t at = 0; at < stream.size(); at += kPiece) {
    const std::size_t n = std::min(kPiece, stream.size() - at);
    if (!write_all(sv[1], stream.data() + at, n)) {
      ADD_FAILURE() << "write failed at byte " << at;
      break;
    }
    if ((at / kPiece) % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  std::size_t got = 0;
  for (int spin = 0; spin < 5000 && got < stream.size(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    got = on_loop(loop, [&] { return sink.bytes.size(); });
  }
  on_loop(loop, [&] {
    EXPECT_FALSE(conn->closed());
    conn->close("test done");
    conn.reset();
    return true;
  });
  loop.stop();
  loop_thread.join();
  close(sv[1]);
  EXPECT_TRUE(sink.bytes == stream) << "decoded frame bytes differ";
  EXPECT_EQ(sink.messages, msgs);
}

TEST(ConnectionReadBuffer, SteeredLeftoverBytesDecodeOnAdoptingConnection) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  std::vector<Message> msgs;
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 1; i <= 4; ++i) {
    msgs.push_back(Message{FetchRequest{ObjectId{i}, SiteId{7}, i}});
  }
  msgs.push_back(large_message(5));
  for (const Message& m : msgs) wire::encode_frame(SiteId{7}, SiteId{0}, m, stream);
  // The first three frames and half of the fourth are in the socket before
  // the first read: steering on frame 1 leaves frames 1-3 whole plus a
  // partial frame 4 in the leftover. The rest arrives after adoption.
  std::vector<std::uint8_t> first;
  for (std::size_t i = 0; i < 3; ++i) {
    wire::encode_frame(SiteId{7}, SiteId{0}, msgs[i], first);
  }
  std::vector<std::uint8_t> frame4;
  wire::encode_frame(SiteId{7}, SiteId{0}, msgs[3], frame4);
  const std::size_t split = first.size() + frame4.size() / 2;
  ASSERT_EQ(write(sv[1], stream.data(), split), static_cast<ssize_t>(split));

  net::EventLoop loop;
  std::thread loop_thread([&] { loop.run(); });
  std::unique_ptr<net::Connection> a, b;
  std::vector<std::uint8_t> leftover;
  FrameSink sink;
  // Steer on the first frame, as TcpTransport::steer does: the frame being
  // dispatched is part of the leftover. release() destroys the handler
  // that is running, so the handler only forwards to this object.
  struct Steer {
    net::EventLoop& loop;
    std::vector<std::uint8_t>& leftover;
    std::unique_ptr<net::Connection>& adopter;
    FrameSink& sink;
    void operator()(net::Connection& released) {
      const int fd = released.release(leftover);
      loop.post([this, fd] {
        adopter = std::make_unique<net::Connection>(loop, fd, false);
        adopter->start([this](net::Connection&,
                              const wire::FrameView& v) { sink.on_frame(v); },
                       [](net::Connection&, const char*) {});
        adopter->inject(leftover);
      });
    }
  } steer{loop, leftover, b, sink};
  on_loop(loop, [&] {
    a = std::make_unique<net::Connection>(loop, sv[0], false);
    a->start([&steer](net::Connection& c, const wire::FrameView&) { steer(c); },
             [](net::Connection&, const char*) {});
    return true;
  });
  std::size_t got = 0;
  for (int spin = 0; spin < 5000 && got < first.size(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    got = on_loop(loop, [&] { return sink.bytes.size(); });
  }
  EXPECT_EQ(on_loop(loop, [&] { return leftover.size(); }), split);
  const std::size_t rest = stream.size() - split;
  EXPECT_TRUE(write_all(sv[1], stream.data() + split, rest));
  for (int spin = 0; spin < 5000 && got < stream.size(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    got = on_loop(loop, [&] { return sink.bytes.size(); });
  }
  on_loop(loop, [&] {
    EXPECT_TRUE(a->released());
    b->close("test done");
    a.reset();
    b.reset();
    return true;
  });
  loop.stop();
  loop_thread.join();
  close(sv[1]);
  EXPECT_TRUE(sink.bytes == stream) << "decoded frame bytes differ";
  EXPECT_EQ(sink.messages, msgs);
}

}  // namespace
}  // namespace timedc
