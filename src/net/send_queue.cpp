#include "net/send_queue.hpp"

#include <sys/uio.h>

#include <cstring>

#include "common/assert.hpp"

namespace timedc::net {

SendQueue::SendQueue() : ring_(2) {}

void SendQueue::push_chunk() {
  if (count_ == ring_.size()) {
    // Grow the ring to the next power of two, re-packing live chunks to the
    // front so the index mask stays valid.
    std::vector<Chunk> bigger(ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }
  Chunk& c = ring_[(head_ + count_) & (ring_.size() - 1)];
  c.data.clear();  // keeps capacity: recycled chunks never reallocate
  // A fresh chunk takes one page up front instead of growing through every
  // power of two as batches get larger, which would allocate mid-run.
  if (c.data.capacity() == 0) c.data.reserve(kFirstReserveBytes);
  c.sent = 0;
  ++count_;
}

void SendQueue::append(const std::uint8_t* data, std::size_t n) {
  pending_ += n;
  while (n > 0) {
    if (count_ == 0 || tail().data.size() == kChunkBytes) push_chunk();
    Chunk& c = tail();
    const std::size_t room = kChunkBytes - c.data.size();
    const std::size_t take = n < room ? n : room;
    c.data.insert(c.data.end(), data, data + take);
    data += take;
    n -= take;
  }
}

std::size_t SendQueue::gather(struct iovec* iov) const {
  std::size_t filled = 0;
  for (std::size_t i = 0; i < count_ && filled < kMaxIov; ++i) {
    const Chunk& c = ring_[(head_ + i) & (ring_.size() - 1)];
    const std::size_t unsent = c.data.size() - c.sent;
    if (unsent == 0) continue;  // only possible for the head chunk
    iov[filled].iov_base =
        const_cast<std::uint8_t*>(c.data.data()) + c.sent;
    iov[filled].iov_len = unsent;
    ++filled;
  }
  return filled;
}

void SendQueue::consume(std::size_t n) {
  TIMEDC_ASSERT(n <= pending_);
  pending_ -= n;
  while (n > 0) {
    Chunk& c = ring_[head_ & (ring_.size() - 1)];
    const std::size_t unsent = c.data.size() - c.sent;
    if (n < unsent) {
      c.sent += n;
      return;
    }
    n -= unsent;
    c.sent = c.data.size();
    // Recycle: the chunk stays in the ring with its capacity; the next
    // push_chunk() reuses it.
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
  }
}

void SendQueue::clear() {
  while (count_ > 0) {
    ring_[head_ & (ring_.size() - 1)].sent = 0;
    ring_[head_ & (ring_.size() - 1)].data.clear();
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
  }
  pending_ = 0;
}

}  // namespace timedc::net
