// e2e-driver: the end-to-end benchmark's single load-generating process.
//
// It drives the real client stack -- TimedSerialCache (Section 5 rules 1-3,
// Context_i := max(t_i - Delta, Context_i)) over net::TcpTransport and its
// EventLoop -- against fresh timedc-server processes on loopback, and prints
// one JSON result line. The load is a closed loop: a TSC client has one
// operation in flight by API, so each of the kClients clients on the one
// loader thread issues its next operation only after the previous callback.
//
// Work per run is fixed: every client's operation list comes from the
// workload and --seed before timing starts, and its length from --seconds
// times the workload's nominal rate, so the WAL, the history and the
// server's memory do not grow when the code gets faster.
//
// A run sets the system up kSetups times (spawn servers, WAL replay on
// write_wal, member health on cluster_forward, seeded preload through the
// client stack) and reports the median set-up time; the timed phase runs on
// the last set-up. write_wal's log is written once per run, through the
// client stack, before the first set-up. Every set-up's full
// history is checked: a read of a value no traced write produced exits 1; a
// late read under Definition 1 at Delta, an abandoned operation or one still
// unanswered at the deadline counts as failed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates blocks of
// kBlockOps completions with span recording on and off (the off blocks give
// trace.overhead_share), prints the per-layer metrics and writes the spans
// as Perfetto-loadable JSON.
//
// Usage: e2e-driver --workload NAME --seed N --seconds S --trace 0|1
//                   --server-bin PATH --work-dir DIR [--trace-out FILE]
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clocks/physical_clock.hpp"
#include "cluster/ring.hpp"
#include "common/rng.hpp"
#include "core/history.hpp"
#include "core/timed.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "obs/stats_board.hpp"
#include "procs.hpp"
#include "protocol/timed_serial_cache.hpp"
#include "spans.hpp"

namespace {

using namespace timedc;
using e2e::mono_ns;

constexpr std::size_t kClients = 8;  // per loader thread
constexpr std::int64_t kDeltaUs = 20000;
constexpr int kSetups = 3;
constexpr std::uint64_t kBlockOps = 4096;  // traced/untraced alternation
constexpr std::uint32_t kClientSiteBase = 1000;
constexpr std::uint32_t kScrapeSite = 900;
constexpr std::size_t kPerfettoOps = 4000;

// Why each workload exists is recorded in e2ebench/README.md.
struct Workload {
  const char* name;
  std::size_t servers;  // 1 server, or that many --cluster members
  bool wal;             // --state-file on, with a preloaded log
  std::size_t objects;
  double zipf;  // 0 = uniform
  int write_pct;
  int misroute_pct;  // cluster only: ops sent to a non-owner on purpose
  int max_attempts;  // 1 = no client retries
  double nominal_ops_per_s;  // timed ops = seconds x this
  std::size_t wal_preload_writes;  // the log every set-up replays
  std::size_t warm_ops_per_client;  // preload ops drawn from the mix
};

const Workload kWorkloads[] = {
    {"wide_read", 1, false, 1024, 0.0, 10, 0, 1, 120000, 0, 0},
    {"write_wal", 1, true, 256, 0.9, 80, 0, 1, 125000, 120000, 0},
    {"cluster_forward", 3, false, 64, 0.9, 10, 25, 4, 110000, 0, 8000},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string server_bin;
  std::string work_dir;
  std::string trace_out;  // Perfetto JSON of the traced run
};

struct PlannedOp {
  std::uint32_t object = 0;
  bool write = false;
  std::uint8_t hop = 0;  // 0 = owner; else misroute to (owner + hop) % S
};

/// One operation of a set-up's global history.
struct OpRecord {
  std::uint32_t site;  // history site (client index within the set-up)
  bool write;
  std::uint32_t object;
  std::int64_t value;
  std::int64_t time_us;  // issue time (writes) / completion time (reads)
};

double percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  const std::size_t i = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i), v.end());
  return static_cast<double>(v[i]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<PlannedOp> plan_mix(const Workload& w, Rng& rng,
                                const ZipfDistribution& zipf, std::size_t n) {
  std::vector<PlannedOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PlannedOp op;
    op.object = static_cast<std::uint32_t>(zipf.sample(rng));
    op.write = rng.uniform_int(0, 99) < w.write_pct;
    if (w.misroute_pct > 0 && rng.uniform_int(0, 99) < w.misroute_pct) {
      op.hop = static_cast<std::uint8_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(w.servers) - 1));
    }
    ops.push_back(op);
  }
  return ops;
}

/// Server counters scraped over the wire (kStatsRequest), per site.
using BoardSnapshot = std::map<std::uint32_t, std::map<std::uint16_t, std::int64_t>>;

std::int64_t board_sum(const BoardSnapshot& b, StatKey key) {
  std::int64_t total = 0;
  for (const auto& [site, rows] : b) {
    const auto it = rows.find(static_cast<std::uint16_t>(key));
    if (it != rows.end()) total += it->second;
  }
  return total;
}

double board_mean(const BoardSnapshot& b, StatKey key) {
  return b.empty() ? 0
                   : static_cast<double>(board_sum(b, key)) /
                         static_cast<double>(b.size());
}

/// Everything read at one edge of the timed phase.
struct Snapshot {
  std::int64_t t_ns = 0;
  std::int64_t server_cpu_ns = 0;
  std::int64_t steal = 0;
  std::int64_t wal_bytes = 0;
  net::TcpTransportStats net;
  CacheStats cache;
  BoardSnapshot boards;
};

/// What the timed phase measured (filled only by the loader that runs it).
struct TimedResult {
  Snapshot before, after;
  std::uint64_t completed = 0, abandoned = 0, unanswered = 0;
  std::uint64_t writes_completed = 0;
  std::vector<std::int64_t> read_ns, write_ns;  // exact per-op latency
  std::vector<std::int64_t> owner_rtt_ns, misrouted_rtt_ns;
  double cached_entries_sum = 0;
  std::uint64_t cached_entries_samples = 0;
  std::uint64_t ring_updates = 0;
  // Per-mode accounting of the traced run: [0] untraced blocks, [1] traced.
  std::int64_t mode_ns[2] = {0, 0};
  std::int64_t mode_cpu_ns[2] = {0, 0};
  std::uint64_t mode_ops[2] = {0, 0};
  std::uint64_t mode_allocs[2] = {0, 0};
  std::vector<e2e::OpSpan> spans;
  std::vector<Message> codec_sample;
  std::uint64_t client_bytes = 0;
};

/// One EventLoop + TcpTransport with kClients TSC clients, run on the
/// calling thread. Phases: preload (each client's first preload_ops ops),
/// a barrier, a server scrape, then -- if the plan has more ops -- the
/// timed phase and a second scrape.
class Loader {
 public:
  struct Config {
    const Workload* w = nullptr;
    std::vector<std::uint16_t> ports;
    std::vector<pid_t> server_pids;
    std::string wal_path;  // empty = no WAL
    std::uint32_t first_site = 0;  // history site of client 0
    bool trace = false;
    std::int64_t timed_limit_ns = 0;
    std::int64_t preload_limit_ns = 0;
  };

  Loader(const Config& cfg, std::vector<std::vector<PlannedOp>> plans,
         std::vector<std::size_t> preload_ops, std::vector<OpRecord>& history,
         TimedResult* timed)
      : cfg_(cfg),
        transport_(loop_, SimTime::millis(100)),
        history_(history),
        timed_(timed),
        plans_(std::move(plans)),
        preload_ops_(std::move(preload_ops)) {
    const std::size_t n = cfg.w->servers;
    std::vector<SiteId> servers;
    for (std::size_t s = 0; s < n; ++s) {
      servers.push_back(SiteId{static_cast<std::uint32_t>(s)});
      transport_.add_route(servers.back(), "127.0.0.1", cfg.ports[s]);
    }
    if (cfg.w->max_attempts > 1) {
      net::SupervisionConfig sup;
      sup.enabled = true;
      sup.heartbeat_interval = SimTime::millis(200);
      sup.seed = 0x10ad;
      transport_.set_supervision(sup);
    }
    if (cfg.w->servers > 1) ring_.set_members(servers);
    transport_.set_stats_reply_handler(
        [this](SiteId from, std::uint64_t seq,
               std::span<const wire::StatsRow> rows) {
          on_stats_reply(from, seq, rows);
        });
    const std::uint32_t net_base = kClientSiteBase + cfg.first_site;
    Transport* client_net = &transport_;
    if (cfg.trace && timed_ != nullptr) {
      spans_net_ = std::make_unique<e2e::SpanTransport>(transport_, net_base,
                                                        kClients);
      client_net = spans_net_.get();
    }
    slots_.resize(kClients);
    for (std::size_t k = 0; k < kClients; ++k) {
      Slot& sl = slots_[k];
      sl.cache = std::make_unique<TimedSerialCache>(
          *client_net, SiteId{net_base + static_cast<std::uint32_t>(k)},
          SiteId{0}, &clock_, SimTime::micros(kDeltaUs), /*mark_old=*/true,
          MessageSizes{});
      if (cfg.w->servers > 1) {
        sl.cache->set_route([this, k](ObjectId object) {
          Slot& s = slots_[k];
          SiteId owner = ring_.owner_of(object);
          s.routed = true;
          if (s.op.hop != 0) {
            s.misrouted = true;
            owner = SiteId{(owner.value + s.op.hop) %
                           static_cast<std::uint32_t>(cfg_.w->servers)};
          }
          return owner;
        });
      }
      if (cfg.w->max_attempts > 1) {
        RetryPolicy policy;
        policy.max_attempts = cfg.w->max_attempts;
        sl.cache->configure_reliability(policy, servers, 0x5eed + k);
      }
      sl.cache->attach();
    }
    ready_.assign(kClients, 0);
    if (timed_ != nullptr) {
      std::size_t timed_ops = 0;
      for (std::size_t k = 0; k < kClients; ++k) {
        timed_ops += plans_[k].size() - preload_ops_[k];
      }
      timed_->read_ns.reserve(timed_ops);
      timed_->write_ns.reserve(timed_ops);
      timed_->owner_rtt_ns.reserve(timed_ops);
      timed_->misrouted_rtt_ns.reserve(timed_ops);
      // Recording alternates every kBlockOps completions.
      if (cfg.trace) timed_->spans.reserve(timed_ops / 2 + kBlockOps);
    }
  }

  /// Runs every phase; false when the preload could not finish in time.
  bool run() {
    loop_.post([this] { start(); });
    loop_.run();
    return preload_ok_;
  }

  /// Monotonic ns at which the first timed op was issued (or, with no timed
  /// phase, at which it would have been).
  std::int64_t ready_at_ns() const { return ready_at_ns_; }
  std::uint64_t issued_ops() const { return issued_; }
  std::uint64_t abandoned_ops() const { return abandoned_; }

 private:
  enum class Phase { kPreload, kScrapeBefore, kTimed, kScrapeAfter, kDone };
  static constexpr std::size_t kNoSpan = ~std::size_t{0};

  struct Slot {
    std::unique_ptr<TimedSerialCache> cache;
    std::size_t next = 0;  // index of the next planned op
    PlannedOp op;          // the op in flight
    std::int64_t t0_ns = 0;
    std::int64_t issue_us = 0;
    std::int64_t value = 0;
    std::uint64_t value_seq = 0;
    bool routed = false, misrouted = false;
    bool traced = false;
    std::size_t span = kNoSpan;  // index of the op's span once recorded
    std::int64_t call_end = 0;
  };

  void start() {
    phase_ = Phase::kPreload;
    loop_.run_after(SimTime::micros(cfg_.preload_limit_ns / 1000), [this] {
      if (phase_ == Phase::kPreload) {
        std::fprintf(stderr, "e2e-driver: preload did not finish in time\n");
        preload_ok_ = false;
        loop_.stop();
      }
    });
    for (std::size_t k = 0; k < kClients; ++k) release(k);
  }

  /// Puts client k back in the ready ring, or parks it at a phase edge.
  void release(std::size_t k) {
    Slot& sl = slots_[k];
    const bool at_barrier =
        phase_ == Phase::kPreload && sl.next >= preload_ops_[k];
    if (at_barrier || sl.next >= plans_[k].size()) {
      if (++parked_ == kClients) phase_edge();
      return;
    }
    ready_[(ready_head_ + ready_count_) % kClients] = k;
    ++ready_count_;
    if (!pump_posted_) {
      pump_posted_ = true;
      loop_.post([this] { pump(); });
    }
  }

  // Bounded by the entry-time count: a cache hit completes inside read()
  // and re-enters the ring, and must wait for the next loop pass.
  void pump() {
    pump_posted_ = false;
    for (std::size_t budget = ready_count_; budget > 0; --budget) {
      const std::size_t k = ready_[ready_head_];
      ready_head_ = (ready_head_ + 1) % kClients;
      --ready_count_;
      issue(k);
    }
  }

  void issue(std::size_t k) {
    Slot& sl = slots_[k];
    sl.op = plans_[k][sl.next++];
    sl.routed = sl.misrouted = false;
    sl.span = kNoSpan;
    sl.traced = spans_net_ != nullptr && spans_net_->recording();
    if (sl.traced) spans_net_->marks(k) = e2e::ClientMarks{};
    ++issued_;
    ++outstanding_;
    const ObjectId object{sl.op.object};
    sl.t0_ns = mono_ns();
    if (sl.op.write) {
      sl.issue_us = clock_now_us();
      sl.value = (static_cast<std::int64_t>(cfg_.first_site + k + 1) << 32) +
                 static_cast<std::int64_t>(++sl.value_seq);
      sl.cache->write(object, Value{sl.value},
                      [this, k](SimTime) { complete(k, 0); });
    } else {
      sl.cache->read(object, [this, k](Value v, SimTime) {
        complete(k, v.value);
      });
    }
    if (sl.traced) {
      // A cache hit completed inside the call: its span is already recorded.
      sl.call_end = mono_ns();
      if (sl.span != kNoSpan) timed_->spans[sl.span].call_end = sl.call_end;
    }
  }

  std::int64_t clock_now_us() const {
    return clock_.read(transport_.now()).as_micros();
  }

  void complete(std::size_t k, std::int64_t read_value) {
    const std::int64_t t1 = mono_ns();
    Slot& sl = slots_[k];
    --outstanding_;
    const bool timed = phase_ == Phase::kTimed;
    if (sl.cache->last_op_abandoned()) {
      if (timed) ++timed_->abandoned;
      ++abandoned_;  // its value is a local guess: kept out of the history
    } else {
      history_.push_back(OpRecord{
          cfg_.first_site + static_cast<std::uint32_t>(k), sl.op.write,
          sl.op.object, sl.op.write ? sl.value : read_value,
          sl.op.write ? sl.issue_us : clock_now_us()});
      if (timed) record_timed(k, t1);
    }
    if (phase_ == Phase::kTimed || phase_ == Phase::kPreload) {
      release(k);
    }
  }

  void record_timed(std::size_t k, std::int64_t t1) {
    Slot& sl = slots_[k];
    TimedResult& r = *timed_;
    const std::int64_t lat = t1 - sl.t0_ns;
    ++r.completed;
    if (sl.op.write) {
      ++r.writes_completed;
      r.write_ns.push_back(lat);
    } else {
      r.read_ns.push_back(lat);
    }
    if (sl.routed) {
      (sl.misrouted ? r.misrouted_rtt_ns : r.owner_rtt_ns).push_back(lat);
    }
    const int mode = spans_net_ != nullptr && spans_net_->recording() ? 1 : 0;
    ++r.mode_ops[mode];
    if (sl.traced && mode == 1) {
      const e2e::ClientMarks& mk = spans_net_->marks(k);
      e2e::OpSpan s;
      s.start = sl.t0_ns;
      s.call_end = sl.call_end;
      s.send_start = mk.send_start;
      s.send_end = mk.send_end;
      s.last_send_start = mk.last_send_start;
      s.deliver_start = mk.deliver_start;
      s.end = t1;
      s.client = static_cast<std::uint32_t>(k);
      s.write = sl.op.write;
      s.sent = mk.sent;
      s.in_handler = mk.in_handler;
      sl.span = r.spans.size();
      r.spans.push_back(s);
    }
    if (r.completed % kBlockOps == 0) on_block_edge();
  }

  /// Every kBlockOps completions: sample cache sizes and, when traced,
  /// switch span recording, charging time/CPU/allocs to the ending mode.
  void on_block_edge() {
    TimedResult& r = *timed_;
    for (const Slot& sl : slots_) {
      r.cached_entries_sum += static_cast<double>(sl.cache->cached_entries());
    }
    r.cached_entries_samples += kClients;
    if (spans_net_ == nullptr) return;
    close_mode();
    spans_net_->set_recording(!spans_net_->recording());
  }

  void close_mode() {
    TimedResult& r = *timed_;
    const int mode = spans_net_->recording() ? 1 : 0;
    const std::int64_t now = mono_ns();
    const std::int64_t cpu = e2e::thread_cpu_ns();
    const std::uint64_t allocs = e2e::thread_allocs();
    r.mode_ns[mode] += now - mode_t0_;
    r.mode_cpu_ns[mode] += cpu - mode_cpu0_;
    r.mode_allocs[mode] += allocs - mode_allocs0_;
    mode_t0_ = now;
    mode_cpu0_ = cpu;
    mode_allocs0_ = allocs;
  }

  void phase_edge() {
    parked_ = 0;
    if (phase_ == Phase::kPreload) {
      phase_ = Phase::kScrapeBefore;
      begin_scrape();
    } else if (phase_ == Phase::kTimed) {
      end_timed();
    }
  }

  void end_timed() {
    take_snapshot(timed_->after);
    if (spans_net_ != nullptr) {
      close_mode();
      spans_net_->set_recording(false);
    }
    phase_ = Phase::kScrapeAfter;
    begin_scrape();
  }

  void take_snapshot(Snapshot& s) {
    s.t_ns = mono_ns();
    for (const pid_t pid : cfg_.server_pids) {
      s.server_cpu_ns += e2e::process_cpu_ns(pid);
    }
    s.steal = e2e::steal_ticks();
    s.wal_bytes = cfg_.wal_path.empty() ? 0 : e2e::file_size(cfg_.wal_path);
    s.net = transport_.stats();
    for (const Slot& sl : slots_) s.cache += sl.cache->stats();
  }

  void begin_scrape() {
    ++scrape_seq_;
    scrape_.clear();
    scrape_pending_ = cfg_.w->servers;
    scrape_sent_.assign(cfg_.w->servers, false);
    scrape_deadline_ns_ = mono_ns() + 5'000'000'000;
    send_scrapes();
  }

  void send_scrapes() {
    bool all_sent = true;
    for (std::size_t s = 0; s < cfg_.w->servers; ++s) {
      if (scrape_sent_[s]) continue;
      const SiteId to{static_cast<std::uint32_t>(s)};
      scrape_sent_[s] = transport_.send_stats_request(
          SiteId{kScrapeSite}, to, wire::StatsRequest{scrape_seq_, to.value});
      all_sent &= scrape_sent_[s];
    }
    // Supervised routes refuse a request until the peer is healthy; a lost
    // reply must not hang the run either.
    const std::uint64_t seq = scrape_seq_;
    loop_.run_after(SimTime::millis(all_sent ? 50 : 1), [this, seq] {
      if (seq != scrape_seq_ || scrape_pending_ == 0) return;
      if (mono_ns() > scrape_deadline_ns_) {
        std::fprintf(stderr, "e2e-driver: server scrape timed out\n");
        scrape_pending_ = 0;
        after_scrape();
        return;
      }
      send_scrapes();
    });
  }

  void on_stats_reply(SiteId /*from*/, std::uint64_t seq,
                      std::span<const wire::StatsRow> rows) {
    if (seq != scrape_seq_ || scrape_pending_ == 0) return;
    for (const wire::StatsRow& row : rows) scrape_[row.site][row.key] = row.value;
    if (--scrape_pending_ == 0) after_scrape();
  }

  void after_scrape() {
    if (phase_ == Phase::kScrapeBefore) {
      const bool has_timed = timed_ != nullptr;
      if (has_timed) {
        take_snapshot(timed_->before);
        timed_->before.boards = scrape_;
      }
      ready_at_ns_ = mono_ns();
      if (!has_timed) {
        phase_ = Phase::kDone;
        loop_.stop();
        return;
      }
      phase_ = Phase::kTimed;
      mode_t0_ = mono_ns();
      mode_cpu0_ = e2e::thread_cpu_ns();
      mode_allocs0_ = e2e::thread_allocs();
      loop_.run_after(SimTime::micros(cfg_.timed_limit_ns / 1000), [this] {
        if (phase_ != Phase::kTimed) return;
        timed_->unanswered = outstanding_;
        end_timed();
      });
      for (std::size_t k = 0; k < kClients; ++k) release(k);
    } else if (phase_ == Phase::kScrapeAfter) {
      timed_->after.boards = scrape_;
      timed_->ring_updates = transport_.stats().ring_updates_received;
      if (spans_net_ != nullptr) {
        timed_->codec_sample = spans_net_->sampled();
        timed_->client_bytes = spans_net_->bytes();
      }
      phase_ = Phase::kDone;
      loop_.stop();
    }
  }

  const Config cfg_;
  net::EventLoop loop_;
  net::TcpTransport transport_;
  PerfectClock clock_;
  std::unique_ptr<e2e::SpanTransport> spans_net_;
  cluster::HashRing ring_;
  std::vector<OpRecord>& history_;
  TimedResult* timed_;
  std::vector<std::vector<PlannedOp>> plans_;
  std::vector<std::size_t> preload_ops_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> ready_;  // ring of ready client indices
  std::size_t ready_head_ = 0, ready_count_ = 0;
  bool pump_posted_ = false;
  std::size_t parked_ = 0;
  Phase phase_ = Phase::kPreload;
  bool preload_ok_ = true;
  std::uint64_t issued_ = 0;
  std::uint64_t outstanding_ = 0, abandoned_ = 0;
  std::int64_t ready_at_ns_ = 0;
  std::int64_t mode_t0_ = 0, mode_cpu0_ = 0;
  std::uint64_t mode_allocs0_ = 0;
  std::uint64_t scrape_seq_ = 0;
  std::vector<bool> scrape_sent_;
  std::size_t scrape_pending_ = 0;
  std::int64_t scrape_deadline_ns_ = 0;
  BoardSnapshot scrape_;
};

/// Correctness of one set-up's history.
struct Verdict {
  std::uint64_t ops = 0, reads = 0, late = 0;
  bool thin_air = false;
};

Verdict check_history(const std::vector<OpRecord>& records, std::size_t sites) {
  // Per-site order is append order (one op in flight per client); equal
  // microseconds are bumped to keep per-site times strictly increasing.
  HistoryBuilder builder(sites);
  std::vector<std::int64_t> last(sites, -1);
  Verdict v;
  for (const OpRecord& r : records) {
    const std::int64_t t = std::max(r.time_us, last[r.site] + 1);
    last[r.site] = t;
    if (r.write) {
      builder.write(SiteId{r.site}, ObjectId{r.object}, Value{r.value},
                    SimTime::micros(t));
    } else {
      builder.read(SiteId{r.site}, ObjectId{r.object}, Value{r.value},
                   SimTime::micros(t));
      ++v.reads;
    }
  }
  const History h = builder.build();
  v.ops = records.size();
  v.thin_air = h.has_thin_air_read();
  const TimedCheckResult timed =
      reads_on_time(h, TimedSpecPerfect{SimTime::micros(kDeltaUs)});
  v.late = timed.late_reads.size();
  for (std::size_t i = 0; i < std::min<std::size_t>(5, v.late); ++i) {
    const LateRead& lr = timed.late_reads[i];
    const Operation& r = h.op(lr.read);
    const Operation& newest = h.op(lr.w_r.back());
    std::printf("#   late read: site %u object %u at %lld us returned %s; a "
                "write %lld us older (site %u) was due\n",
                r.site.value, r.object.value,
                static_cast<long long>(r.time.as_micros()),
                lr.source ? "an overwritten value" : "the initial value",
                static_cast<long long>((r.time - newest.time).as_micros()),
                newest.site.value);
  }
  return v;
}

struct SetupOutcome {
  bool ok = false;
  double setup_s = 0;
  double replay_s = 0;
  std::uint64_t replay_records = 0;
  std::int64_t server_rss_kib = 0;
  std::string phases;  // "spawn 0.0123 health 0.0612 ..." in seconds
  std::uint64_t attempted = 0;
  std::uint64_t abandoned = 0;
  Verdict verdict;
};

std::vector<std::string> server_args(const Workload& w, const Options& opt,
                                     std::size_t index,
                                     const std::vector<std::uint16_t>& ports,
                                     const std::string& wal_base) {
  std::vector<std::string> a = {
      "--port", std::to_string(ports.empty() ? 0 : ports[index]),
      "--shards", "1", "--drain-ms", "0", "--duration-s", "300",
      "--metrics-out",
      opt.work_dir + "/server" + std::to_string(index) + ".json"};
  if (!wal_base.empty()) {
    a.insert(a.end(), {"--state-file", wal_base});
  }
  if (w.servers > 1) {
    a.insert(a.end(), {"--site-base", std::to_string(index), "--cluster",
                       "--cluster-size", std::to_string(w.servers),
                       "--cluster-push", "update"});
    for (std::size_t j = 0; j < w.servers; ++j) {
      if (j == index) continue;
      a.insert(a.end(), {"--peer", std::to_string(j) + ":127.0.0.1:" +
                                       std::to_string(ports[j])});
    }
  }
  return a;
}

/// Shuffled "every object once" list, written or read.
std::vector<PlannedOp> fill_ops(const Workload& w, Rng& rng, std::size_t k,
                                bool writes) {
  std::vector<PlannedOp> ops;
  for (std::uint32_t o = 0; o < w.objects; ++o) {
    if (writes && o % kClients != k) continue;
    PlannedOp op;
    op.object = o;
    op.write = writes;
    if (w.misroute_pct > 0 && rng.uniform_int(0, 99) < w.misroute_pct) {
      op.hop = static_cast<std::uint8_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(w.servers) - 1));
    }
    ops.push_back(op);
  }
  for (std::size_t i = ops.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(ops[i - 1], ops[j]);
  }
  return ops;
}

/// One loader's inputs: per-client op lists, the first preload[k] of which
/// run before the barrier.
struct Plan {
  std::vector<std::vector<PlannedOp>> ops =
      std::vector<std::vector<PlannedOp>>(kClients);
  std::vector<std::size_t> preload = std::vector<std::size_t>(kClients);

  void all_preload() {
    for (std::size_t k = 0; k < kClients; ++k) preload[k] = ops[k].size();
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& o : ops) n += o.size();
    return n;
  }
};

/// Member health: one read through every ordered member pair (sent to
/// member i, owned by member j), so every forward and push link has carried
/// traffic before the first write. Waiting for it covers a peer's first
/// reconnect backoff when its dial raced a listener.
Plan health_plan(const Workload& w) {
  cluster::HashRing ring;
  std::vector<SiteId> members;
  for (std::size_t s = 0; s < w.servers; ++s) {
    members.push_back(SiteId{static_cast<std::uint32_t>(s)});
  }
  ring.set_members(members);
  Plan plan;
  std::size_t probe = 0;
  for (std::size_t j = 0; j < w.servers; ++j) {
    std::uint32_t owned = 0;
    while (ring.owner_of(ObjectId{owned}).value != j) ++owned;
    for (std::size_t i = 0; i < w.servers; ++i) {
      if (i == j) continue;
      PlannedOp op;
      op.object = owned;
      op.hop = static_cast<std::uint8_t>((i + w.servers - j) % w.servers);
      plan.ops[probe++ % kClients].push_back(op);
    }
  }
  plan.all_preload();
  return plan;
}

/// The fixed-size log every write_wal set-up replays.
Plan wal_plan(const Workload& w, std::uint64_t seed,
              const ZipfDistribution& zipf) {
  Workload writes_only = w;
  writes_only.write_pct = 100;
  Plan plan;
  for (std::size_t k = 0; k < kClients; ++k) {
    Rng rng = Rng::stream(seed ^ 0x3a1, k);
    plan.ops[k] = plan_mix(writes_only, rng, zipf, w.wal_preload_writes / kClients);
  }
  plan.all_preload();
  return plan;
}

/// Fill writes, fill reads (every client caches every object) and warm ops;
/// with `timed`, then the timed ops, which depend on the seed only.
Plan main_plan(const Workload& w, const Options& opt, std::uint64_t seed,
               const ZipfDistribution& zipf, bool timed) {
  const auto timed_per_client = static_cast<std::size_t>(std::ceil(
      w.nominal_ops_per_s * opt.seconds / static_cast<double>(kClients)));
  Plan plan;
  for (std::size_t k = 0; k < kClients; ++k) {
    Rng rng = Rng::stream(seed ^ 0xf111, k);
    auto& p = plan.ops[k];
    for (const PlannedOp& op : fill_ops(w, rng, k, /*writes=*/!w.wal)) p.push_back(op);
    for (const PlannedOp& op : fill_ops(w, rng, k, /*writes=*/false)) p.push_back(op);
    Rng warm = Rng::stream(seed ^ 0xa77, k);
    for (const PlannedOp& op : plan_mix(w, warm, zipf, w.warm_ops_per_client)) {
      p.push_back(op);
    }
    plan.preload[k] = p.size();
    if (timed) {
      Rng mix = Rng::stream(opt.seed * 7919 + 17, k);
      for (const PlannedOp& op : plan_mix(w, mix, zipf, timed_per_client)) {
        p.push_back(op);
      }
    }
  }
  return plan;
}

/// The server processes of one set-up.
class Servers {
 public:
  Servers(const Workload& w, const Options& opt) : w_(w), opt_(opt) {
    if (w.wal) wal_base_ = opt.work_dir + "/wal";
    if (w.servers > 1) {
      // Members name each other's ports on their command lines.
      for (std::size_t s = 0; s < w.servers; ++s) {
        ports_.push_back(e2e::pick_free_port());
      }
    }
  }

  /// The WAL of server 0 (timedc-server appends ".<site>").
  std::string wal_path() const {
    return wal_base_.empty() ? std::string() : wal_base_ + ".0";
  }

  bool spawn() {
    const std::string err_log = opt_.work_dir + "/servers.err";
    for (std::size_t s = 0; s < w_.servers; ++s) {
      procs_.push_back(std::make_unique<e2e::ServerProcess>(
          opt_.server_bin, server_args(w_, opt_, s, ports_, wal_base_),
          err_log, 20000));
      if (!procs_.back()->ok()) {
        std::fprintf(stderr, "e2e-driver: server did not start (see %s)\n",
                     err_log.c_str());
        return false;
      }
    }
    return true;
  }

  std::int64_t peak_rss_kib() const {
    std::int64_t total = 0;
    for (const auto& p : procs_) total += e2e::process_peak_rss_kib(p->pid());
    return total;
  }

  void stop() { procs_.clear(); }

  const std::vector<std::unique_ptr<e2e::ServerProcess>>& procs() const {
    return procs_;
  }

 private:
  const Workload& w_;
  const Options& opt_;
  std::string wal_base_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::unique_ptr<e2e::ServerProcess>> procs_;
};

/// Runs one Loader over `plan` against `servers`, appending to `history`
/// and counting into `out`. Returns false when the preload did not finish.
bool run_loader(const Workload& w, const Options& opt, const Servers& servers,
                Plan plan, std::uint32_t first_site,
                std::vector<OpRecord>& history, TimedResult* timed,
                SetupOutcome& out, std::int64_t& ready_at_ns) {
  Loader::Config c;
  c.w = &w;
  for (const auto& p : servers.procs()) {
    c.ports.push_back(p->port());
    c.server_pids.push_back(p->pid());
  }
  c.wal_path = servers.wal_path();
  c.first_site = first_site;
  c.trace = opt.trace;
  c.timed_limit_ns =
      std::int64_t{std::max(3 * opt.seconds, opt.seconds + 20)} * 1'000'000'000;
  c.preload_limit_ns = std::int64_t{40} * 1'000'000'000;
  Loader loader(c, std::move(plan.ops), std::move(plan.preload), history,
                timed);
  const bool ok = loader.run();
  out.attempted += loader.issued_ops();
  out.abandoned += loader.abandoned_ops();
  ready_at_ns = loader.ready_at_ns();
  return ok;
}

/// write_wal: writes the fixed-size log once per run, through the client
/// stack (history sites 0..kClients-1), and stops the server. Every set-up
/// then starts a fresh server that replays it.
bool write_log(const Workload& w, const Options& opt,
               std::vector<OpRecord>& history, SetupOutcome& out) {
  Servers servers(w, opt);
  std::remove(servers.wal_path().c_str());
  const ZipfDistribution zipf(w.objects, w.zipf);
  history.reserve(w.wal_preload_writes);
  std::int64_t ready_at_ns = 0;
  return servers.spawn() &&
         run_loader(w, opt, servers, wal_plan(w, opt.seed, zipf), 0, history,
                    nullptr, out, ready_at_ns);
}

/// One set-up, from spawning the servers to the first timed op, and (with
/// `timed`) the timed phase on it. `log` is the history of the WAL the
/// servers replay (empty without one).
SetupOutcome run_setup(const Workload& w, const Options& opt, int setup,
                       const std::vector<OpRecord>& log, TimedResult* timed) {
  SetupOutcome out;
  // Inputs and buffers are made before the clock starts, so setup_s is
  // the system's set-up time and not the driver's.
  const ZipfDistribution zipf(w.objects, w.zipf);
  const std::uint64_t seed = opt.seed * 1000003 + static_cast<std::uint64_t>(setup);
  Plan health;
  if (w.servers > 1) health = health_plan(w);
  Plan main = main_plan(w, opt, seed, zipf, timed != nullptr);
  std::vector<OpRecord> history;
  history.reserve(log.size() + health.size() + main.size());
  history.insert(history.end(), log.begin(), log.end());
  std::uint32_t first_site = log.empty() ? 0 : kClients;
  Servers servers(w, opt);

  const std::int64_t t0 = mono_ns();
  std::int64_t mark = t0;
  auto lap = [&](const char* what, std::int64_t now) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%s %.4f", out.phases.empty() ? "" : ", ",
                  what, static_cast<double>(now - mark) / 1e9);
    out.phases += buf;
    mark = now;
  };
  bool ok = servers.spawn();
  if (ok && w.wal) {
    // A server lists its port only after replaying its log.
    out.replay_s = static_cast<double>(mono_ns() - t0) / 1e9;
    out.replay_records = log.size();
  }
  lap(w.wal ? "spawn+replay" : "spawn", mono_ns());
  std::int64_t ready_at_ns = 0;
  if (ok && w.servers > 1) {
    ok = run_loader(w, opt, servers, std::move(health), first_site, history,
                    nullptr, out, ready_at_ns);
    first_site += kClients;
    lap("member health", mono_ns());
  }
  ok = ok && run_loader(w, opt, servers, std::move(main), first_site, history,
                        timed, out, ready_at_ns);
  first_site += kClients;
  if (!ok) return out;
  out.setup_s = static_cast<double>(ready_at_ns - t0) / 1e9;
  lap("preload", ready_at_ns);
  out.server_rss_kib = servers.peak_rss_kib();
  servers.stop();
  out.verdict = check_history(history, first_site);
  out.ok = true;
  return out;
}

void append_number(std::string& s, double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  s.append(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_latency_line(const char* what, std::vector<std::int64_t> v) {
  if (v.empty()) {
    std::printf("# %s latency: no samples\n", what);
    return;
  }
  const double p50 = percentile(v, 0.50);
  const double p99 = percentile(v, 0.99);
  std::size_t beyond = 0;
  for (const std::int64_t x : v) beyond += static_cast<double>(x) > p99;
  std::printf("# %s latency: n=%zu p50=%.3fus p99=%.3fus (%zu samples beyond "
              "p99)\n",
              what, v.size(), p50 / 1e3, p99 / 1e3, beyond);
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e-driver --workload wide_read|write_wal|"
               "cluster_forward --seed N --seconds S --trace 0|1 "
               "--server-bin PATH --work-dir DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* v = argv[i + 1];
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atoi(v);
    } else if (arg == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else if (arg == "--server-bin") {
      opt.server_bin = v;
    } else if (arg == "--work-dir") {
      opt.work_dir = v;
    } else if (arg == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (opt.workload == cand.name) w = &cand;
  }
  if (w == nullptr || opt.seconds < 1 || opt.seconds > 60 ||
      opt.server_bin.empty() || opt.work_dir.empty() || argc % 2 == 0) {
    return usage();
  }
  ::signal(SIGPIPE, SIG_IGN);

  const std::size_t busy = 1 + w->servers;
  std::printf("# e2ebench workload=%s seed=%llu seconds=%d trace=%d\n",
              w->name, static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("# machine: %s\n", e2e::machine_fingerprint().c_str());
  std::printf("# busy threads: %zu (1 loader thread x %zu clients, %zu "
              "single-reactor server process%s); loopback only (127.0.0.1), "
              "no real network\n",
              busy, kClients, w->servers, w->servers > 1 ? "es" : "");
  std::fflush(stdout);

  std::uint64_t attempted = 0, late = 0, abandoned = 0;
  std::vector<OpRecord> log;
  if (w->wal) {
    SetupOutcome o;
    if (!write_log(*w, opt, log, o)) {
      std::fprintf(stderr, "e2e-driver: writing the WAL failed\n");
      return 1;
    }
    attempted += o.attempted;
    abandoned += o.abandoned;
    std::printf("# log: %zu writes through the client stack\n", log.size());
  }
  // Traced runs report no set-up time, so they set up once.
  const int setups = opt.trace ? 1 : kSetups;
  TimedResult timed;
  std::vector<double> setup_s;
  SetupOutcome last;
  bool thin_air = false;
  for (int s = 0; s < setups; ++s) {
    const bool is_last = s == setups - 1;
    SetupOutcome o = run_setup(*w, opt, s, log, is_last ? &timed : nullptr);
    if (!o.ok) {
      std::fprintf(stderr, "e2e-driver: set-up %d failed\n", s);
      return 1;
    }
    setup_s.push_back(o.setup_s);
    attempted += o.attempted;
    late += o.verdict.late;
    abandoned += o.abandoned;
    thin_air |= o.verdict.thin_air;
    std::printf("# set-up %d: %.4f s (%s); history %llu ops, %llu reads, %llu "
                "late at Delta=%lldus%s\n",
                s, o.setup_s, o.phases.c_str(),
                static_cast<unsigned long long>(o.verdict.ops),
                static_cast<unsigned long long>(o.verdict.reads),
                static_cast<unsigned long long>(o.verdict.late),
                static_cast<long long>(kDeltaUs),
                o.verdict.thin_air ? "; WRONG VALUE READ" : "");
    if (is_last) last = o;
  }

  const Snapshot& b = timed.before;
  const Snapshot& a = timed.after;
  const double wall_s = static_cast<double>(a.t_ns - b.t_ns) / 1e9;
  const auto ops = static_cast<double>(timed.completed);
  const std::uint64_t failed = late + abandoned + timed.unanswered;
  std::printf("# timed phase: %llu ops in %.3f s; steal ticks %lld; "
              "abandoned %llu, unanswered %llu, late reads %llu; "
              "ring updates %llu\n",
              static_cast<unsigned long long>(timed.completed), wall_s,
              static_cast<long long>(a.steal - b.steal),
              static_cast<unsigned long long>(timed.abandoned),
              static_cast<unsigned long long>(timed.unanswered),
              static_cast<unsigned long long>(late),
              static_cast<unsigned long long>(timed.ring_updates));
  print_latency_line("read", timed.read_ns);
  print_latency_line("write", timed.write_ns);

  std::vector<Metric> metrics;
  const double server_cpu_ns = static_cast<double>(a.server_cpu_ns - b.server_cpu_ns);
  if (!opt.trace) {
    metrics.push_back({"ops_per_s", ratio(ops, wall_s), "1/s"});
    metrics.push_back({"read_p50_us", percentile(timed.read_ns, 0.5) / 1e3, "us"});
    metrics.push_back({"write_p50_us", percentile(timed.write_ns, 0.5) / 1e3, "us"});
    metrics.push_back({"server_cpu_us_per_op", ratio(server_cpu_ns / 1e3, ops), "us"});
    metrics.push_back({"server_rss_mb",
                       static_cast<double>(last.server_rss_kib) / 1024.0, "MiB"});
    metrics.push_back({"setup_s", median(setup_s), "s"});
  } else {
    // protocol.client
    std::vector<std::int64_t> call, deliver, rtt;
    double root_ns = 0, covered_ns = 0;
    for (const e2e::OpSpan& s : timed.spans) {
      call.push_back(s.call_end - s.start);
      const std::int64_t root = std::max(s.end, s.call_end) - s.start;
      std::int64_t covered = s.call_end - s.start;
      if (s.sent && s.in_handler) {
        deliver.push_back(s.end - s.deliver_start);
        rtt.push_back(s.deliver_start - s.last_send_start);
        covered += std::max<std::int64_t>(
            0, s.deliver_start - std::max(s.last_send_start, s.call_end));
        covered += s.end - s.deliver_start;
      }
      root_ns += static_cast<double>(root);
      covered_ns += static_cast<double>(std::min(covered, root));
    }
    const CacheStats c = [&] {
      CacheStats d = a.cache;
      const CacheStats& o = b.cache;
      d.reads -= o.reads;
      d.cache_hits -= o.cache_hits;
      d.validations -= o.validations;
      return d;
    }();
    const auto untraced_ops = static_cast<double>(timed.mode_ops[0]);
    metrics.push_back({"client.call_p50_ns", percentile(call, 0.5), "ns"});
    metrics.push_back({"client.deliver_p50_ns", percentile(deliver, 0.5), "ns"});
    metrics.push_back({"client.cpu_us_per_op",
                       ratio(static_cast<double>(timed.mode_cpu_ns[0]) / 1e3,
                             untraced_ops),
                       "us"});
    metrics.push_back({"client.cached_entries_mean",
                       ratio(timed.cached_entries_sum,
                             static_cast<double>(timed.cached_entries_samples)),
                       "count"});
    metrics.push_back({"client.hit_ratio",
                       ratio(static_cast<double>(c.cache_hits),
                             static_cast<double>(c.reads)),
                       "ratio"});
    metrics.push_back({"client.validations_per_read",
                       ratio(static_cast<double>(c.validations),
                             static_cast<double>(c.reads)),
                       "ratio"});
    metrics.push_back({"client.allocs_per_op",
                       ratio(static_cast<double>(timed.mode_allocs[0]), untraced_ops),
                       "count"});
    // net
    const double frames_sent =
        static_cast<double>(a.net.frames_sent - b.net.frames_sent);
    const double frames_recv =
        static_cast<double>(a.net.frames_received - b.net.frames_received);
    const double flushes =
        static_cast<double>(a.net.batch_flushes - b.net.batch_flushes);
    const e2e::CodecTiming codec = e2e::time_codec(timed.codec_sample);
    metrics.push_back({"net.rtt_p50_us", percentile(rtt, 0.5) / 1e3, "us"});
    metrics.push_back({"net.frames_per_op", ratio(frames_sent + frames_recv, ops),
                       "count"});
    metrics.push_back({"net.bytes_per_op",
                       ratio(static_cast<double>(timed.client_bytes), ops), "B"});
    metrics.push_back({"net.client_frames_per_flush", ratio(frames_sent, flushes),
                       "count"});
    metrics.push_back({"wire.encode_ns", codec.encode_ns, "ns"});
    metrics.push_back({"wire.decode_ns", codec.decode_ns, "ns"});
    // protocol.server
    auto delta = [&](StatKey key) {
      return static_cast<double>(board_sum(a.boards, key) -
                                 board_sum(b.boards, key));
    };
    metrics.push_back({"server.busy_share",
                       ratio(server_cpu_ns,
                             wall_s * 1e9 * static_cast<double>(w->servers)),
                       "ratio"});
    metrics.push_back({"server.flush_syscalls_per_op",
                       ratio(delta(StatKey::kFlushSyscalls), ops), "count"});
    metrics.push_back({"server.frames_per_flush",
                       ratio(delta(StatKey::kFramesOut),
                             delta(StatKey::kBatchFlushes)),
                       "count"});
    metrics.push_back({"server.stage.apply_p50_us",
                       board_mean(a.boards, StatKey::kStageApplyP50Us), "us"});
    metrics.push_back({"server.stage.flush_p50_us",
                       board_mean(a.boards, StatKey::kStageFlushP50Us), "us"});
    // wal
    const auto writes = static_cast<double>(timed.writes_completed);
    metrics.push_back({"wal.bytes_per_write",
                       ratio(static_cast<double>(a.wal_bytes - b.wal_bytes), writes),
                       "B"});
    metrics.push_back({"wal.replay_s", last.replay_s, "s"});
    metrics.push_back({"wal.replay_records_per_s",
                       ratio(static_cast<double>(last.replay_records), last.replay_s),
                       "1/s"});
    // cluster
    double hop_extra_us = 0;
    if (!timed.misrouted_rtt_ns.empty() && !timed.owner_rtt_ns.empty()) {
      hop_extra_us = (percentile(timed.misrouted_rtt_ns, 0.5) -
                      percentile(timed.owner_rtt_ns, 0.5)) / 1e3;
    }
    metrics.push_back({"cluster.forwards_per_op",
                       ratio(delta(StatKey::kClusterForwardsOut), ops), "count"});
    metrics.push_back({"cluster.relayed_per_op",
                       ratio(delta(StatKey::kClusterRelayed), ops), "count"});
    metrics.push_back({"cluster.pushes_per_write",
                       ratio(delta(StatKey::kClusterPushes), writes), "count"});
    metrics.push_back({"cluster.hop_extra_p50_us", hop_extra_us, "us"});
    // bench
    const double traced_rate = ratio(static_cast<double>(timed.mode_ops[1]),
                                     static_cast<double>(timed.mode_ns[1]));
    const double untraced_rate = ratio(untraced_ops,
                                       static_cast<double>(timed.mode_ns[0]));
    metrics.push_back({"trace.overhead_share",
                       untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0,
                       "ratio"});
    metrics.push_back({"trace.unexplained_share",
                       root_ns > 0 ? 1.0 - covered_ns / root_ns : 0, "ratio"});
    const std::string trace_path = opt.trace_out.empty()
        ? opt.work_dir + "/trace-" + w->name + ".json" : opt.trace_out;
    if (e2e::write_perfetto(trace_path, timed.spans, kPerfettoOps)) {
      std::printf("# spans: %zu traced ops; first %zu written to %s\n",
                  timed.spans.size(), std::min(kPerfettoOps, timed.spans.size()),
                  trace_path.c_str());
    }
  }

  const bool correct = !thin_air;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": ";
    append_number(json, metrics[i].value);
    json += ", \"unit\": \"" + std::string(metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "e2e-driver: a read returned a value no write produced\n");
    return 1;
  }
  return 0;
}
