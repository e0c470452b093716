#include "spans.hpp"

#include <algorithm>
#include <cstdio>

#include "net/wire.hpp"
#include "procs.hpp"

namespace e2e {

using timedc::Message;
using timedc::SiteId;

namespace {
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kMaxSamples = 4096;
}  // namespace

SpanTransport::SpanTransport(timedc::Transport& inner, std::uint32_t site_base,
                             std::size_t clients)
    : inner_(inner), site_base_(site_base), marks_(clients) {
  sampled_.reserve(kMaxSamples);
}

void SpanTransport::register_site(SiteId self, MessageHandler handler) {
  const std::size_t k = self.value - site_base_;
  inner_.register_site(self, [this, k, handler = std::move(handler)](
                                 SiteId from, const Message& m) {
    bytes_ += timedc::wire::encoded_frame_size(m);
    if (!recording_ || k >= marks_.size()) {
      handler(from, m);
      return;
    }
    sample(m);
    ClientMarks& mk = marks_[k];
    mk.deliver_start = mono_ns();
    mk.in_handler = true;
    handler(from, m);
    mk.in_handler = false;
  });
}

void SpanTransport::send_message(SiteId from, SiteId to, Message m,
                                 std::size_t bytes) {
  bytes_ += timedc::wire::encoded_frame_size(m);
  const std::size_t k = from.value - site_base_;
  if (!recording_ || k >= marks_.size()) {
    inner_.send_message(from, to, std::move(m), bytes);
    return;
  }
  sample(m);
  ClientMarks& mk = marks_[k];
  const std::int64_t t0 = mono_ns();
  inner_.send_message(from, to, std::move(m), bytes);
  const std::int64_t t1 = mono_ns();
  if (!mk.sent) {
    mk.sent = true;
    mk.send_start = t0;
    mk.send_end = t1;
  }
  mk.last_send_start = t0;
}

void SpanTransport::sample(const Message& m) {
  if (++seen_ % kSampleEvery == 0 && sampled_.size() < kMaxSamples) {
    sampled_.push_back(m);
  }
}

CodecTiming time_codec(const std::vector<Message>& sample) {
  CodecTiming out;
  if (sample.empty()) return out;
  constexpr int kReps = 64;
  std::vector<std::uint8_t> buf;
  buf.reserve(4096);
  timedc::wire::DecodedFrame frame;
  std::int64_t enc_ns = 0;
  std::int64_t dec_ns = 0;
  for (const Message& m : sample) {
    std::int64_t t0 = mono_ns();
    for (int r = 0; r < kReps; ++r) {
      buf.clear();
      timedc::wire::encode_frame(SiteId{1000}, SiteId{0}, m, buf);
    }
    enc_ns += mono_ns() - t0;
    t0 = mono_ns();
    for (int r = 0; r < kReps; ++r) {
      const timedc::wire::FrameView view = timedc::wire::peek_frame(buf);
      timedc::wire::decode_frame_view(view, frame);
    }
    dec_ns += mono_ns() - t0;
  }
  const double n = static_cast<double>(sample.size()) * kReps;
  out.encode_ns = static_cast<double>(enc_ns) / n;
  out.decode_ns = static_cast<double>(dec_ns) / n;
  return out;
}

bool write_perfetto(const std::string& path, const std::vector<OpSpan>& spans,
                    std::size_t max_ops) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::min(max_ops, spans.size());
  const std::int64_t base = n == 0 ? 0 : spans[0].start;
  bool first = true;
  auto emit = [&](const char* name, std::size_t id, std::uint32_t tid,
                  std::int64_t b, std::int64_t e) {
    if (e < b) return;
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%zu}}",
                 first ? "" : ",", name, tid,
                 static_cast<double>(b - base) / 1e3,
                 static_cast<double>(e - b) / 1e3, id);
    first = false;
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (std::size_t i = 0; i < n; ++i) {
    const OpSpan& s = spans[i];
    const std::int64_t root_end = std::max(s.end, s.call_end);
    emit(s.write ? "op.write" : "op.read", i, s.client, s.start, root_end);
    emit("client.call", i, s.client, s.start, s.call_end);
    if (s.sent) emit("net.send", i, s.client, s.send_start, s.send_end);
    if (s.sent && s.in_handler) {
      emit("net.wait", i, s.client, std::max(s.last_send_start, s.call_end),
           s.deliver_start);
      emit("client.deliver", i, s.client, s.deliver_start, s.end);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
