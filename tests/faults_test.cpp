// Fault injection and reliable RPC: the robustness claims.
//
// - The FaultInjector executes its plan deterministically: partitions cut
//   links both ways and heal, crash intervals silence a node, windows
//   drop/duplicate exactly per plan and seed.
// - A full experiment under 5% background loss COMPLETES (this used to
//   strand clients forever on a lost reply) — the retry layer makes every
//   operation finish or be explicitly abandoned.
// - Same seed + same FaultPlan = bit-identical ExperimentResult.
// - The acceptance scenario: >=5% drops, a healed partition, and one
//   mid-run crash/restart of each server — all operations complete,
//   admitted reads are never late (late_fraction == 0), faults show up
//   as retries/failovers instead.
// - One retry timer per client: RPCs answered in time arm far fewer
//   transport timers than there are RPCs, a fresh RPC whose deadline
//   precedes a retried one's still times out at its own deadline, and a
//   clock stepping back does not delay a retry.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/trace_io.hpp"
#include "protocol/experiment.hpp"
#include "protocol/server.hpp"
#include "protocol/timed_serial_cache.hpp"
#include "sim/faults.hpp"

namespace timedc {
namespace {

SimTime ms(std::int64_t n) { return SimTime::millis(n); }

TEST(FaultInjectorTest, PartitionCutsBothDirectionsAndHeals) {
  FaultPlan plan;
  Partition cut;
  cut.start = ms(10);
  cut.heal = ms(20);
  cut.side_a = {SiteId{0}, SiteId{1}};
  cut.side_b = {SiteId{2}};
  plan.partitions.push_back(cut);
  FaultInjector inj(plan, Rng(1));

  EXPECT_FALSE(inj.link_cut(SiteId{0}, SiteId{2}, ms(5)));   // before
  EXPECT_TRUE(inj.link_cut(SiteId{0}, SiteId{2}, ms(15)));   // during
  EXPECT_TRUE(inj.link_cut(SiteId{2}, SiteId{0}, ms(15)));   // both ways
  EXPECT_TRUE(inj.link_cut(SiteId{1}, SiteId{2}, ms(15)));
  EXPECT_FALSE(inj.link_cut(SiteId{0}, SiteId{1}, ms(15)));  // same side
  EXPECT_FALSE(inj.link_cut(SiteId{0}, SiteId{2}, ms(20)));  // healed
}

TEST(FaultInjectorTest, CrashIntervalSilencesNode) {
  FaultPlan plan;
  plan.crashes.push_back(ServerCrash{SiteId{3}, ms(10), ms(30)});
  FaultInjector inj(plan, Rng(1));

  EXPECT_FALSE(inj.node_down(SiteId{3}, ms(9)));
  EXPECT_TRUE(inj.node_down(SiteId{3}, ms(10)));
  EXPECT_TRUE(inj.node_down(SiteId{3}, ms(29)));
  EXPECT_FALSE(inj.node_down(SiteId{3}, ms(30)));  // restarted
  EXPECT_FALSE(inj.node_down(SiteId{4}, ms(15)));  // other nodes unaffected

  // Messages to or from a down node are dropped.
  EXPECT_TRUE(inj.on_send(SiteId{0}, SiteId{3}, ms(15)).drop);
  EXPECT_TRUE(inj.on_send(SiteId{3}, SiteId{0}, ms(15)).drop);
  EXPECT_FALSE(inj.on_send(SiteId{0}, SiteId{3}, ms(31)).drop);
  EXPECT_EQ(inj.stats().dropped_node_down, 2u);
}

TEST(FaultInjectorTest, DropWindowIsScopedAndCounted) {
  FaultPlan plan;
  DropWindow w;
  w.start = ms(1);
  w.end = ms(2);
  w.probability = 1.0;
  w.from = 0;
  w.to = 1;
  plan.drops.push_back(w);
  FaultInjector inj(plan, Rng(7));

  EXPECT_TRUE(inj.on_send(SiteId{0}, SiteId{1}, ms(1)).drop);
  EXPECT_FALSE(inj.on_send(SiteId{1}, SiteId{0}, ms(1)).drop);  // directional
  EXPECT_FALSE(inj.on_send(SiteId{0}, SiteId{1}, ms(2)).drop);  // window over
  EXPECT_EQ(inj.stats().dropped_by_window, 1u);
}

TEST(FaultInjectorTest, DecisionStreamIsDeterministic) {
  FaultPlan plan;
  DropWindow w;
  w.start = SimTime::zero();
  w.end = ms(100);
  w.probability = 0.5;
  plan.drops.push_back(w);
  DuplicateWindow d;
  d.start = SimTime::zero();
  d.end = ms(100);
  d.probability = 0.5;
  plan.duplications.push_back(d);

  FaultInjector a(plan, Rng(42));
  FaultInjector b(plan, Rng(42));
  for (int i = 0; i < 200; ++i) {
    const auto da = a.on_send(SiteId{0}, SiteId{1}, ms(i % 100));
    const auto db = b.on_send(SiteId{0}, SiteId{1}, ms(i % 100));
    ASSERT_EQ(da.drop, db.drop);
    ASSERT_EQ(da.duplicate, db.duplicate);
  }
  EXPECT_EQ(a.stats().dropped_by_window, b.stats().dropped_by_window);
  EXPECT_EQ(a.stats().duplicated, b.stats().duplicated);
}

ExperimentConfig lossy_config(ProtocolKind kind) {
  ExperimentConfig config;
  config.kind = kind;
  config.delta = ms(20);
  config.workload.num_clients = 4;
  config.workload.num_objects = 8;
  config.workload.write_ratio = 0.2;
  config.workload.mean_think_time = ms(4);
  config.workload.horizon = ms(500);
  config.seed = 5;
  config.drop_probability = 0.05;
  return config;
}

// Regression: a lost reply used to strand the client forever (the
// experiment's op-count assertion fired, or the run returned short).
// With the retry layer, 5% uniform loss completes every operation.
TEST(FaultExperimentTest, CompletesUnderBackgroundLoss) {
  for (const auto kind :
       {ProtocolKind::kTimedSerial, ProtocolKind::kTimedCausal}) {
    const auto r = run_experiment(lossy_config(kind));
    EXPECT_GT(r.operations, 100u) << to_cstring(kind);
    EXPECT_GT(r.network.messages_dropped, 0u) << to_cstring(kind);
    EXPECT_GT(r.cache.retries, 0u) << to_cstring(kind);
    // Loss never makes an admitted read late — expiry is local.
    EXPECT_EQ(r.late_fraction, 0.0) << to_cstring(kind);
  }
}

ExperimentConfig hostile_config(ProtocolKind kind) {
  ExperimentConfig config;
  config.kind = kind;
  config.delta = ms(25);
  config.workload.num_clients = 4;
  config.workload.num_objects = 8;
  config.workload.write_ratio = 0.25;
  config.workload.mean_think_time = ms(5);
  config.workload.horizon = SimTime::seconds(1);
  config.num_servers = 2;
  config.seed = 9;
  config.drop_probability = 0.05;
  // Clients are sites 0..3; servers are 4 and 5.
  Partition cut;
  cut.start = ms(200);
  cut.heal = ms(320);
  cut.side_a = {SiteId{0}, SiteId{1}};
  cut.side_b = {SiteId{4}, SiteId{5}};
  config.faults.partitions.push_back(cut);
  config.faults.crashes.push_back(ServerCrash{SiteId{4}, ms(400), ms(480)});
  config.faults.crashes.push_back(ServerCrash{SiteId{5}, ms(600), ms(680)});
  DuplicateWindow dup;
  dup.start = ms(750);
  dup.end = ms(850);
  dup.probability = 0.5;
  config.faults.duplications.push_back(dup);
  return config;
}

// The issue's acceptance scenario: >=5% drops, one mid-run crash/restart
// of each server, one healed partition. Every operation completes or is
// explicitly abandoned (run_experiment asserts completed == planned), and
// the lifetime caches report late_fraction == 0 for admitted reads.
TEST(FaultExperimentTest, AcceptanceScenarioSurvivesDropsCrashesPartition) {
  for (const auto kind :
       {ProtocolKind::kTimedSerial, ProtocolKind::kTimedCausal}) {
    const auto r = run_experiment(hostile_config(kind));
    EXPECT_GT(r.operations, 100u) << to_cstring(kind);
    EXPECT_EQ(r.faults.crashes, 2u) << to_cstring(kind);
    EXPECT_EQ(r.faults.restarts, 2u) << to_cstring(kind);
    EXPECT_EQ(r.server.crashes, 2u) << to_cstring(kind);
    EXPECT_EQ(r.server.restarts, 2u) << to_cstring(kind);
    EXPECT_GT(r.faults.dropped_by_partition + r.faults.dropped_node_down, 0u)
        << to_cstring(kind);
    EXPECT_GT(r.faults.duplicated, 0u) << to_cstring(kind);
    EXPECT_GT(r.cache.retries, 0u) << to_cstring(kind);
    // Duplicated replies were suppressed, duplicated writes deduped.
    EXPECT_GT(r.cache.duplicate_replies + r.server.duplicate_writes, 0u)
        << to_cstring(kind);
    // The robustness headline: no admitted read was ever late.
    EXPECT_EQ(r.late_fraction, 0.0) << to_cstring(kind);
  }
}

// Push-mode clients degrade gracefully across a server crash: the crash
// wipes the cacher set (soft state), but finite Delta forces the clients
// back to validate, which re-subscribes them.
TEST(FaultExperimentTest, PushClientsDegradeToPullAcrossCrash) {
  auto config = hostile_config(ProtocolKind::kTimedSerial);
  config.push = PushPolicy::kInvalidate;
  const auto r = run_experiment(config);
  EXPECT_GT(r.server.pushes, 0u);
  EXPECT_EQ(r.late_fraction, 0.0);
}

TEST(FaultExperimentTest, SameSeedSamePlanIsBitReproducible) {
  const auto a = run_experiment(hostile_config(ProtocolKind::kTimedSerial));
  const auto b = run_experiment(hostile_config(ProtocolKind::kTimedSerial));
  EXPECT_EQ(a.operations, b.operations);
  EXPECT_EQ(a.ops_abandoned, b.ops_abandoned);
  EXPECT_EQ(a.cache.retries, b.cache.retries);
  EXPECT_EQ(a.cache.failovers, b.cache.failovers);
  EXPECT_EQ(a.cache.duplicate_replies, b.cache.duplicate_replies);
  EXPECT_EQ(a.cache.cache_hits, b.cache.cache_hits);
  EXPECT_EQ(a.server.writes_applied, b.server.writes_applied);
  EXPECT_EQ(a.server.duplicate_writes, b.server.duplicate_writes);
  EXPECT_EQ(a.network.messages_sent, b.network.messages_sent);
  EXPECT_EQ(a.network.messages_dropped, b.network.messages_dropped);
  EXPECT_EQ(a.network.messages_duplicated, b.network.messages_duplicated);
  EXPECT_EQ(a.faults.dropped_by_partition, b.faults.dropped_by_partition);
  EXPECT_EQ(a.faults.dropped_node_down, b.faults.dropped_node_down);
  EXPECT_EQ(a.faults.duplicated, b.faults.duplicated);
  EXPECT_EQ(a.mean_staleness_us, b.mean_staleness_us);
  EXPECT_EQ(a.max_staleness, b.max_staleness);
  EXPECT_EQ(a.unavailable_fraction, b.unavailable_fraction);
  // The recorded executions are identical operation for operation.
  EXPECT_EQ(write_trace(a.history), write_trace(b.history));
}

// A server that crashes and never comes back: clients burn their retry
// budget, abandon explicitly, and the run still terminates — no client
// hangs. Abandoned ops are excluded from the recorded history.
TEST(FaultExperimentTest, PermanentCrashAbandonsInsteadOfHanging) {
  ExperimentConfig config;
  config.kind = ProtocolKind::kTimedSerial;
  config.delta = ms(20);
  config.workload.num_clients = 2;
  config.workload.num_objects = 4;
  config.workload.write_ratio = 0.2;
  config.workload.mean_think_time = ms(4);
  config.workload.horizon = ms(300);
  config.seed = 3;
  config.faults.crashes.push_back(
      ServerCrash{SiteId{2}, ms(100)});  // never restarts
  config.retry.max_attempts = 4;
  config.retry.base_timeout = ms(2);
  const auto r = run_experiment(config);
  EXPECT_GT(r.operations, 0u);
  EXPECT_GT(r.ops_abandoned, 0u);
  EXPECT_GT(r.unavailable_fraction, 0.0);
  // Every op either succeeded before the crash or was abandoned; the
  // recorded history holds only the former.
  EXPECT_LT(r.history.size(), r.operations);
  EXPECT_EQ(r.late_fraction, 0.0);
}

// Duplication alone (no loss): the network delivers some messages twice;
// clients suppress duplicate replies, the server dedups retransmitted
// writes, and the run's answers are unaffected.
TEST(FaultExperimentTest, DuplicationIsSuppressed) {
  ExperimentConfig config;
  config.kind = ProtocolKind::kTimedSerial;
  config.delta = ms(20);
  config.workload.num_clients = 3;
  config.workload.num_objects = 6;
  config.workload.mean_think_time = ms(4);
  config.workload.horizon = ms(400);
  config.seed = 13;
  DuplicateWindow dup;
  dup.start = SimTime::zero();
  dup.end = ms(400);
  dup.probability = 0.4;
  config.faults.duplications.push_back(dup);
  const auto r = run_experiment(config);
  EXPECT_GT(r.network.messages_duplicated, 0u);
  EXPECT_GT(r.cache.duplicate_replies, 0u);
  EXPECT_EQ(r.ops_abandoned, 0u);
  EXPECT_EQ(r.late_fraction, 0.0);
  EXPECT_GT(r.network.messages_delivered, r.network.messages_sent);
}

/// Decorates the sim Network for one client: counts run_after calls and
/// records (and can drop) the client's outgoing requests.
class ObservedTransport final : public Transport {
 public:
  explicit ObservedTransport(Network& inner) : inner_(inner) {}

  void register_site(SiteId self, MessageHandler handler) override {
    inner_.register_site(self, std::move(handler));
  }
  void send_message(SiteId from, SiteId to, Message m,
                    std::size_t bytes) override {
    sends.push_back(Send{inner_.now(), request_id(m)});
    if (drop_sends > 0) {
      --drop_sends;
      return;
    }
    inner_.send_message(from, to, std::move(m), bytes);
  }
  /// A wall clock that steps back by step_back_at_next_arm right after the
  /// next run_after; the sim's timers are unaffected, and timer_now() keeps
  /// the default, so the client's deadlines are read on this clock.
  SimTime now() const override { return inner_.now() - clock_back; }
  void run_after(SimTime delay, std::function<void()> fn) override {
    ++run_afters;
    clock_back += step_back_at_next_arm;
    step_back_at_next_arm = SimTime::zero();
    inner_.run_after(delay, std::move(fn));
  }
  SimTime latency_upper_bound() const override {
    return inner_.latency_upper_bound();
  }

  struct Send {
    SimTime at;
    std::uint64_t request_id;
  };
  std::vector<Send> sends;
  int drop_sends = 0;  // drop this many next requests
  SimTime step_back_at_next_arm = SimTime::zero();
  SimTime clock_back = SimTime::zero();
  int run_afters = 0;

 private:
  static std::uint64_t request_id(const Message& m) {
    if (const auto* f = std::get_if<FetchRequest>(&m)) return f->request_id;
    if (const auto* v = std::get_if<ValidateRequest>(&m)) return v->request_id;
    if (const auto* w = std::get_if<WriteRequest>(&m)) return w->request_id;
    return 0;
  }

  Network& inner_;
};

/// One server (site 0) on a 10us fixed-latency sim network and one TSC
/// client (site 1) whose traffic goes through an ObservedTransport.
struct RetryCell {
  explicit RetryCell(RetryPolicy policy) {
    net = std::make_unique<Network>(
        sim, 2, std::make_unique<FixedLatency>(SimTime::micros(10)),
        NetworkConfig{}, Rng(1));
    server = std::make_unique<ObjectServer>(*net, SiteId{0}, 2,
                                            PushPolicy::kNone, MessageSizes{});
    server->attach();
    observed = std::make_unique<ObservedTransport>(*net);
    client = std::make_unique<TimedSerialCache>(
        *observed, SiteId{1}, SiteId{0}, &clock, SimTime::infinity(),
        /*mark_old=*/true, MessageSizes{});
    client->configure_reliability(policy, {SiteId{0}}, 7);
    client->attach();
  }

  Simulator sim;
  PerfectClock clock;
  std::unique_ptr<Network> net;
  std::unique_ptr<ObjectServer> server;
  std::unique_ptr<ObservedTransport> observed;
  std::unique_ptr<TimedSerialCache> client;
};

TEST(RetryTimerTest, AnsweredRpcsArmFarFewerTimersThanRpcs) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_timeout = ms(1);
  RetryCell cell(policy);
  // Back-to-back misses on distinct objects: every read is one fetch RPC,
  // answered after ~20us, far inside its 1ms (+ jitter) timeout.
  constexpr int kRpcs = 400;
  int completed = 0;
  std::function<void()> next = [&] {
    if (completed == kRpcs) return;
    cell.client->read(ObjectId{static_cast<std::uint32_t>(completed)},
                      [&](Value, SimTime) {
                        ++completed;
                        next();
                      });
  };
  next();
  cell.sim.run_until();
  EXPECT_EQ(completed, kRpcs);
  EXPECT_EQ(cell.observed->sends.size(), static_cast<std::size_t>(kRpcs));
  EXPECT_EQ(cell.client->stats().retries, 0u);
  // Not one timer per RPC: 400 RPCs span ~8ms, the timer re-arms when it
  // fires with an RPC in flight (~1ms apart) or when jitter gives a fresh
  // RPC an earlier deadline than the pending one (a few times per period).
  EXPECT_GE(cell.observed->run_afters, 1);
  EXPECT_LE(cell.observed->run_afters, kRpcs / 10);
}

TEST(RetryTimerTest, FreshRpcTimesOutAtItsOwnEarlierDeadline) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_timeout = ms(1);
  policy.backoff = 8.0;  // the retried attempt's deadline is 8ms out
  policy.jitter = 0;     // exact deadlines
  RetryCell cell(policy);
  // RPC 1: the first send is lost; its retry (deadline +8ms) is answered.
  cell.observed->drop_sends = 1;
  SimTime first_done = SimTime::infinity();
  bool second_done = false;
  cell.client->read(ObjectId{1}, [&](Value, SimTime at) {
    first_done = at;
    // RPC 2, issued while RPC 1's backed-off timer is still pending: its
    // 1ms deadline is earlier, and its first send is lost too.
    cell.observed->drop_sends = 1;
    cell.client->read(ObjectId{2}, [&](Value, SimTime) { second_done = true; });
  });
  cell.sim.run_until();
  ASSERT_FALSE(first_done.is_infinite());
  EXPECT_TRUE(second_done);
  EXPECT_EQ(cell.client->stats().retries, 2u);
  const auto& sends = cell.observed->sends;
  ASSERT_EQ(sends.size(), 4u);
  EXPECT_EQ(sends[0].at, SimTime::zero());
  EXPECT_EQ(sends[1].at, ms(1));  // RPC 1 retried at its deadline
  EXPECT_EQ(sends[1].request_id, sends[0].request_id);
  EXPECT_EQ(sends[2].at, first_done);  // RPC 2's first (lost) send
  EXPECT_NE(sends[2].request_id, sends[0].request_id);
  // RPC 2 retried at its own deadline, not at RPC 1's pending 9ms timer.
  EXPECT_EQ(sends[3].request_id, sends[2].request_id);
  EXPECT_EQ(sends[3].at, first_done + ms(1));
  EXPECT_LT(sends[3].at, ms(9));
}

TEST(RetryTimerTest, RetryGoesOutOnTimeWhenNowStepsBack) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_timeout = ms(1);
  policy.jitter = 0;
  RetryCell cell(policy);
  // The first send is lost, and right after its timer is armed the
  // client's clock steps back 500us. The timer still fires 1ms after the
  // send; judging the deadline by that clock would see 500us to go and
  // retry 500us late.
  cell.observed->drop_sends = 1;
  cell.observed->step_back_at_next_arm = SimTime::micros(500);
  bool done = false;
  cell.client->read(ObjectId{1}, [&](Value, SimTime) { done = true; });
  cell.sim.run_until();
  EXPECT_TRUE(done);
  EXPECT_EQ(cell.client->stats().retries, 1u);
  const auto& sends = cell.observed->sends;
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[0].at, SimTime::zero());
  EXPECT_EQ(sends[1].at, ms(1));  // sim time: the retry is on time
}

}  // namespace
}  // namespace timedc
