// The traced run's instruments, all outside the program: a decorating
// Transport that times sends and reply deliveries per client, the per-op
// span record, the Perfetto (Chrome JSON) writer, and codec timing on a
// sample of the messages the run actually carried.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace e2e {

/// operator new calls made so far by the calling thread (alloc_count.cpp).
std::uint64_t thread_allocs();

/// Span boundaries of one traced operation, in monotonic ns. Every span of
/// an op shares its index in the span vector as the op id.
struct OpSpan {
  std::int64_t start = 0;            // read()/write() called (op root)
  std::int64_t call_end = 0;         // read()/write() returned
  std::int64_t send_start = 0;       // first net.send of the op
  std::int64_t send_end = 0;
  std::int64_t last_send_start = 0;  // net.wait begins at the last send
  std::int64_t deliver_start = 0;    // reply handed to the client
  std::int64_t end = 0;              // callback invoked (op root)
  std::uint32_t client = 0;
  bool write = false;
  bool sent = false;        // the op reached the transport
  bool in_handler = false;  // completed inside a delivered reply's handler
};

/// Per-client boundaries the decorator observed for the op in flight.
struct ClientMarks {
  std::int64_t send_start = 0;
  std::int64_t send_end = 0;
  std::int64_t last_send_start = 0;
  std::int64_t deliver_start = 0;
  bool sent = false;
  bool in_handler = false;
};

/// Forwards every call to `inner`; clients with sites [site_base,
/// site_base + clients) are timed. Always counts protocol bytes (the
/// encoded frame size of each message sent or delivered); takes span
/// timestamps and message samples only while recording() is on.
class SpanTransport final : public timedc::Transport {
 public:
  SpanTransport(timedc::Transport& inner, std::uint32_t site_base,
                std::size_t clients);

  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }
  ClientMarks& marks(std::size_t k) { return marks_[k]; }
  std::uint64_t bytes() const { return bytes_; }
  const std::vector<timedc::Message>& sampled() const { return sampled_; }

  void register_site(timedc::SiteId self, MessageHandler handler) override;
  void send_message(timedc::SiteId from, timedc::SiteId to, timedc::Message m,
                    std::size_t bytes) override;
  timedc::SimTime now() const override { return inner_.now(); }
  void run_after(timedc::SimTime delay, std::function<void()> fn) override {
    inner_.run_after(delay, std::move(fn));
  }
  timedc::SimTime latency_upper_bound() const override {
    return inner_.latency_upper_bound();
  }
  bool requires_sequenced_requests() const override {
    return inner_.requires_sequenced_requests();
  }
  bool peer_reachable(timedc::SiteId to) const override {
    return inner_.peer_reachable(to);
  }
  bool dispatch_serve_locally() const override {
    return inner_.dispatch_serve_locally();
  }

 private:
  void sample(const timedc::Message& m);

  timedc::Transport& inner_;
  std::uint32_t site_base_;
  std::vector<ClientMarks> marks_;
  std::vector<timedc::Message> sampled_;
  std::uint64_t seen_ = 0;
  std::uint64_t bytes_ = 0;
  bool recording_ = false;
};

/// Mean ns per message to encode (encode_frame) and to decode
/// (peek_frame + decode_frame_view) the sampled messages, each repeated.
struct CodecTiming {
  double encode_ns = 0;
  double decode_ns = 0;
};
CodecTiming time_codec(const std::vector<timedc::Message>& sample);

/// Writes the first `max_ops` ops of `spans` as Chrome trace-event JSON,
/// which Perfetto loads: one track per client, op root with its children
/// client.call, net.send, net.wait and client.deliver.
bool write_perfetto(const std::string& path, const std::vector<OpSpan>& spans,
                    std::size_t max_ops);

}  // namespace e2e
