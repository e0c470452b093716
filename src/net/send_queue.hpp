// A chunked scatter list for coalesced socket writes.
//
// Encoded frames are appended into fixed-size chunks arranged in a ring;
// flush gathers every chunk's unsent remainder into an iovec array and
// hands it to one writev() call. Drained chunks are recycled in place —
// their byte buffers keep capacity — so a connection in steady state
// appends and flushes without touching the allocator, however many frames
// a loop tick coalesces.
//
// Unlike a single contiguous write buffer, a partially sent queue never
// memmoves its remainder: consume() just advances the head chunk's sent
// cursor. The ring itself only reallocates when more chunks are
// simultaneously pending than ever before.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

struct iovec;

namespace timedc::net {

class SendQueue {
 public:
  /// Chunk payload size. Matches the read-side chunking: one full chunk is
  /// one comfortable writev element, and small frames pack densely.
  static constexpr std::size_t kChunkBytes = 64 * 1024;
  /// Capacity a chunk reserves on first use: a client loop's flush (a few
  /// dozen requests of ~60 B) fits without regrowing.
  static constexpr std::size_t kFirstReserveBytes = 4096;
  /// Upper bound on iovecs per writev (IOV_MAX is 1024 everywhere we run;
  /// stay well below it).
  static constexpr std::size_t kMaxIov = 64;

  SendQueue();

  /// Append `n` bytes, splitting across chunks as needed.
  void append(const std::uint8_t* data, std::size_t n);

  bool empty() const { return pending_ == 0; }
  std::size_t pending_bytes() const { return pending_; }

  /// Fill `iov` (capacity kMaxIov) with the unsent remainders, front to
  /// back. Returns the number of entries filled; the bytes they cover may
  /// be less than pending_bytes() when more chunks are queued than fit.
  std::size_t gather(struct iovec* iov) const;

  /// Mark `n` bytes (<= pending_bytes()) as sent; fully drained chunks are
  /// recycled. A short writev return is the normal caller.
  void consume(std::size_t n);

  /// Drop everything unsent (connection teardown).
  void clear();

  std::size_t chunks_in_use() const { return count_; }

 private:
  struct Chunk {
    std::vector<std::uint8_t> data;
    std::size_t sent = 0;
  };

  Chunk& tail() { return ring_[(head_ + count_ - 1) & (ring_.size() - 1)]; }
  void push_chunk();

  /// Power-of-two ring of chunks; [head_, head_+count_) are live.
  std::vector<Chunk> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace timedc::net
