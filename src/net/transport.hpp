// The message transport abstraction: how protocol messages move between
// sites, and where "now" and timers come from.
//
// Two implementations exist:
//   * the deterministic in-process sim Network (src/sim/network.hpp), whose
//     clock and timers are the discrete-event Simulator — every experiment
//     stays bit-for-bit reproducible;
//   * the real TcpTransport (src/net/tcp_transport.hpp), which frames
//     messages with the wire codec over non-blocking sockets driven by an
//     epoll EventLoop, with CLOCK_REALTIME as the time source.
// ObjectServer and both CacheClient families are written against this
// interface only, so the Section 5 protocols run unchanged over either.
//
// Threading contract: every method is called from the transport's dispatch
// context (the simulator run loop, or the owning EventLoop's thread).
// Handlers are invoked from that same context.
#pragma once

#include <cstddef>
#include <functional>

#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "protocol/messages.hpp"

namespace timedc {

class Transport {
 public:
  /// Invoked for each delivered message as (sender site, message).
  using MessageHandler = std::function<void(SiteId from, const Message&)>;

  virtual ~Transport() = default;

  /// Install `handler` as the protocol endpoint for local site `self`.
  virtual void register_site(SiteId self, MessageHandler handler) = 0;

  /// Send `m` from -> to. `bytes` is the accounted message size (the sim
  /// cost model); real transports also track actual encoded bytes.
  /// Delivery is asynchronous: the handler never runs inside this call.
  virtual void send_message(SiteId from, SiteId to, Message m,
                            std::size_t bytes) = 0;

  /// The transport's time source: simulated time on the sim network, real
  /// (CLOCK_REALTIME) microseconds on TCP. All protocol timestamps
  /// (lifetimes, leases, Delta budgets) are read through this.
  virtual SimTime now() const = 0;

  /// Run `fn` once, `delay` from now, in the dispatch context.
  virtual void run_after(SimTime delay, std::function<void()> fn) = 0;

  /// The clock run_after() delays elapse on. TCP answers with the loop's
  /// CLOCK_MONOTONIC, which a wall-clock step cannot move; a transport
  /// whose now() never steps (the sim) keeps this default. Only its
  /// differences mean anything: deadlines on it are for run_after alone.
  virtual SimTime timer_now() const { return now(); }

  /// An upper bound on one-way delivery latency, used to budget RPC
  /// timeouts (infinite when the transport cannot promise one).
  virtual SimTime latency_upper_bound() const = 0;

  /// True when requests reach servers through the wire codec, in which case
  /// the server rejects requests with request_id == 0 ("unsequenced" is a
  /// raw in-process test convention, never a legal wire value).
  virtual bool requires_sequenced_requests() const { return false; }

  /// False when the transport has positive evidence that `to` is currently
  /// unreachable (e.g. a supervised TCP peer whose connection is DEAD).
  /// Advisory only — true means "no evidence against", never a delivery
  /// guarantee. The sim Network keeps the default: its fault model decides
  /// delivery per message, and the RPC layer's timeouts see the effects.
  virtual bool peer_reachable(SiteId /*to*/) const { return true; }

  /// True while the message currently being dispatched arrived in a
  /// kForward frame with the serve-here flag: a WARMING owner forwarded it
  /// through to this site (its previous owner), which must answer from
  /// local state even if its own ring disagrees — re-forwarding would
  /// loop. Only TcpTransport ever returns true, and only for the duration
  /// of that dispatch.
  virtual bool dispatch_serve_locally() const { return false; }
};

}  // namespace timedc
