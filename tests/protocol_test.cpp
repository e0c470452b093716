// Tests for the lifetime-based protocol family: unit-level rule behaviour,
// end-to-end experiment runs, the paper's qualitative cost claims
// (Section 5/6), and the protocol -> checker integration: small recorded
// runs must satisfy TSC / TCC under the appropriate Delta.
#include <gtest/gtest.h>

#include <memory>

#include "core/checkers.hpp"
#include "protocol/experiment.hpp"
#include "protocol/timed_causal_cache.hpp"
#include "protocol/timed_serial_cache.hpp"

namespace timedc {
namespace {

SimTime us(std::int64_t n) { return SimTime::micros(n); }
SimTime ms(std::int64_t n) { return SimTime::millis(n); }

/// A tiny fixture wiring one server and two serial-cache clients directly.
class SerialCacheFixture : public ::testing::Test {
 protected:
  void init(SimTime delta, bool mark_old = true,
            PushPolicy push = PushPolicy::kNone) {
    net_ = std::make_unique<Network>(sim_, 3,
                                     std::make_unique<FixedLatency>(us(10)),
                                     NetworkConfig{}, Rng(1));
    server_ = std::make_unique<ObjectServer>(sim_, *net_, SiteId{2}, 2, push,
                                             MessageSizes{});
    server_->attach();
    for (std::uint32_t c = 0; c < 2; ++c) {
      clients_.push_back(std::make_unique<TimedSerialCache>(
          sim_, *net_, SiteId{c}, SiteId{2}, &clock_, delta, mark_old,
          MessageSizes{}));
      clients_.back()->attach();
    }
  }

  Value read_now(int c, ObjectId obj) {
    Value got{-1};
    clients_[c]->read(obj, [&](Value v, SimTime) { got = v; });
    sim_.run_until();
    return got;
  }

  void write_now(int c, ObjectId obj, Value v) {
    clients_[c]->write(obj, v, [](SimTime) {});
    sim_.run_until();
  }

  Simulator sim_;
  PerfectClock clock_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<ObjectServer> server_;
  std::vector<std::unique_ptr<TimedSerialCache>> clients_;
};

TEST_F(SerialCacheFixture, ReadThroughAndCacheHit) {
  init(SimTime::infinity());
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});  // initial value
  EXPECT_EQ(clients_[0]->stats().cache_misses, 1u);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});  // now cached
  EXPECT_EQ(clients_[0]->stats().cache_hits, 1u);
}

TEST_F(SerialCacheFixture, WriteThroughVisibleToOthers) {
  init(SimTime::infinity());
  write_now(0, ObjectId{0}, Value{7});
  EXPECT_EQ(read_now(1, ObjectId{0}), Value{7});
  EXPECT_EQ(server_->stats().writes_applied, 1u);
}

TEST_F(SerialCacheFixture, OwnWriteServedFromCache) {
  init(SimTime::infinity());
  write_now(0, ObjectId{0}, Value{7});
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{7});
  EXPECT_EQ(clients_[0]->stats().cache_hits, 1u);
  EXPECT_EQ(clients_[0]->stats().cache_misses, 0u);
}

TEST_F(SerialCacheFixture, TscRule3ForcesRevalidationAfterDelta) {
  init(us(1000));
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  // Update from the other client; client 0's copy is now stale.
  write_now(1, ObjectId{0}, Value{5});
  // Within Delta the stale copy may still be served (that is the contract).
  // Wait out Delta: the next read must revalidate and see the new value.
  sim_.schedule_after(us(2000), [] {});
  sim_.run_until();
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{5});
  EXPECT_GE(clients_[0]->stats().validations, 1u);
}

TEST_F(SerialCacheFixture, ScDeltaInfinityNeverRevalidatesQuietObjects) {
  init(SimTime::infinity());
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  sim_.schedule_after(SimTime::seconds(100), [] {});
  sim_.run_until();
  // Even after an eternity, a cache hit: no rule 3 without Delta.
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  EXPECT_EQ(clients_[0]->stats().cache_hits, 1u);
  EXPECT_EQ(clients_[0]->stats().validations, 0u);
}

TEST_F(SerialCacheFixture, ValidationExtendsLifetime) {
  init(us(500), /*mark_old=*/true);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  sim_.schedule_after(us(1000), [] {});
  sim_.run_until();
  // No writes happened: validation returns "still valid" (a 304).
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  EXPECT_EQ(clients_[0]->stats().validations, 1u);
  EXPECT_EQ(clients_[0]->stats().validations_ok, 1u);
}

TEST_F(SerialCacheFixture, InvalidateModeDropsInsteadOfMarking) {
  init(us(500), /*mark_old=*/false);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  sim_.schedule_after(us(1000), [] {});
  sim_.run_until();
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  // The stale entry was dropped outright: a full miss, not a validation.
  EXPECT_EQ(clients_[0]->stats().invalidations, 1u);
  EXPECT_EQ(clients_[0]->stats().cache_misses, 2u);
  EXPECT_EQ(clients_[0]->stats().validations, 0u);
}

TEST_F(SerialCacheFixture, Rule1InstallRaisesContextAndEvicts) {
  init(SimTime::infinity(), /*mark_old=*/false);
  // Client 0 caches A (omega = fetch time).
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  // Much later, client 1 writes B; client 0 then fetches B whose alpha is
  // far beyond A's omega: rule 1 raises Context past A's lifetime.
  sim_.schedule_after(ms(10), [] {});
  sim_.run_until();
  write_now(1, ObjectId{1}, Value{9});
  EXPECT_EQ(read_now(0, ObjectId{1}), Value{9});
  EXPECT_EQ(clients_[0]->stats().invalidations, 1u);
  EXPECT_EQ(clients_[0]->cached_entries(), 1u);  // only B remains
}

TEST_F(SerialCacheFixture, PushInvalidationKeepsCacheCoherent) {
  init(SimTime::infinity(), true, PushPolicy::kInvalidate);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  write_now(1, ObjectId{0}, Value{3});
  // The server pushed an invalidation to client 0 (it was a cacher).
  EXPECT_EQ(clients_[0]->stats().push_invalidations, 1u);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{3});
}

TEST_F(SerialCacheFixture, PushUpdateRefreshesCache) {
  init(SimTime::infinity(), true, PushPolicy::kUpdate);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  write_now(1, ObjectId{0}, Value{3});
  EXPECT_EQ(clients_[0]->stats().push_updates, 1u);
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{3});
  EXPECT_EQ(clients_[0]->stats().cache_hits, 1u);  // served locally
}

// A long-running server must not grow per write: the write-arrival history
// exists only for the experiment harness's oracle, which opts in.
TEST_F(SerialCacheFixture, ServerKeepsNoWriteHistoryUnlessAsked) {
  init(SimTime::infinity());
  constexpr int kWrites = 50;
  for (int i = 1; i <= kWrites; ++i) {
    write_now(i % 2, ObjectId{static_cast<std::uint32_t>(i % 4)}, Value{i});
  }
  EXPECT_EQ(server_->stats().writes_applied, static_cast<std::uint64_t>(kWrites));
  EXPECT_TRUE(server_->write_history().empty());
  EXPECT_TRUE(server_->applied_writes(ObjectId{1}).empty());

  ServerConfig config;
  config.record_write_history = true;
  ObjectServer oracle(*net_, SiteId{2}, 2, PushPolicy::kNone, MessageSizes{},
                      {}, config);
  oracle.attach();  // replaces the fixture's server as site 2's handler
  for (int i = 1; i <= kWrites; ++i) {
    write_now(0, ObjectId{static_cast<std::uint32_t>(i % 4)}, Value{i});
  }
  std::size_t recorded = 0;
  for (const auto& [object, writes] : oracle.write_history()) {
    recorded += writes.size();
  }
  EXPECT_EQ(recorded, static_cast<std::size_t>(kWrites));
  EXPECT_EQ(oracle.applied_writes(ObjectId{1}).size(),
            static_cast<std::size_t>(kWrites / 4 + 1));
}

// --- Causal cache ----------------------------------------------------------

class CausalCacheFixture : public ::testing::Test {
 protected:
  void init(SimTime delta, bool mark_old = true) {
    net_ = std::make_unique<Network>(sim_, 3,
                                     std::make_unique<FixedLatency>(us(10)),
                                     NetworkConfig{}, Rng(2));
    server_ = std::make_unique<ObjectServer>(sim_, *net_, SiteId{2}, 2,
                                             PushPolicy::kNone, MessageSizes{});
    server_->attach();
    for (std::uint32_t c = 0; c < 2; ++c) {
      clients_.push_back(std::make_unique<TimedCausalCache>(
          sim_, *net_, SiteId{c}, SiteId{2}, &clock_, delta, mark_old,
          MessageSizes{}, 2));
      clients_.back()->attach();
    }
  }

  Value read_now(int c, ObjectId obj) {
    Value got{-1};
    clients_[c]->read(obj, [&](Value v, SimTime) { got = v; });
    sim_.run_until();
    return got;
  }

  void write_now(int c, ObjectId obj, Value v) {
    clients_[c]->write(obj, v, [](SimTime) {});
    sim_.run_until();
  }

  Simulator sim_;
  PerfectClock clock_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<ObjectServer> server_;
  std::vector<std::unique_ptr<TimedCausalCache>> clients_;
};

TEST_F(CausalCacheFixture, BasicReadWrite) {
  init(SimTime::infinity());
  write_now(0, ObjectId{0}, Value{4});
  EXPECT_EQ(read_now(1, ObjectId{0}), Value{4});
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{4});  // own write cached
}

TEST_F(CausalCacheFixture, CausalInvalidationOnDependentRead) {
  init(SimTime::infinity(), /*mark_old=*/false);
  // Client 0 caches X. Client 1 writes X' then Y. When client 0 reads Y it
  // learns a timestamp causally after X's overwrite... X's cached omega_l is
  // the server knowledge at fetch time, which precedes the new writes, so
  // the causal sweep must evict X (the paper's CNN / Dow Jones scenario).
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  write_now(1, ObjectId{0}, Value{5});
  write_now(1, ObjectId{1}, Value{6});
  EXPECT_EQ(read_now(0, ObjectId{1}), Value{6});
  EXPECT_GE(clients_[0]->stats().invalidations, 1u);
  // The re-read of X now fetches the new value: causality preserved.
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{5});
}

TEST_F(CausalCacheFixture, OwnWriteDemotedAfterRemoteKnowledgeButCheap) {
  // Deviation from [39] (see timed_causal_cache.hpp): a locally written
  // copy is NOT exempt from the causal sweep — learning remote information
  // demotes it to old — but the recovery is a cheap 304-style validation,
  // not a refetch, and the value survives.
  init(SimTime::infinity(), /*mark_old=*/true);
  write_now(0, ObjectId{0}, Value{4});
  write_now(1, ObjectId{1}, Value{5});
  EXPECT_EQ(read_now(0, ObjectId{1}), Value{5});  // raises client 0's context
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{4});
  EXPECT_GE(clients_[0]->stats().validations_ok, 1u);
}

TEST_F(CausalCacheFixture, OwnStaleCopyNotServedAfterCausalOverwrite) {
  // The hidden-write pattern the [39] exemption would admit: client 0
  // writes X; client 1 reads it, overwrites X (causally after), then writes
  // Y. Once client 0 reads Y it is causally after the overwrite and must
  // not keep serving its own stale X.
  init(SimTime::infinity(), /*mark_old=*/true);
  write_now(0, ObjectId{0}, Value{4});
  EXPECT_EQ(read_now(1, ObjectId{0}), Value{4});
  write_now(1, ObjectId{0}, Value{6});
  write_now(1, ObjectId{1}, Value{7});
  EXPECT_EQ(read_now(0, ObjectId{1}), Value{7});
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{6});  // not the stale own 4
}

TEST_F(CausalCacheFixture, BetaRuleForcesTimeliness) {
  init(ms(1));
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  write_now(1, ObjectId{0}, Value{5});
  sim_.schedule_after(ms(5), [] {});
  sim_.run_until();
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{5});
  EXPECT_GE(clients_[0]->stats().validations, 1u);
}

TEST_F(CausalCacheFixture, DeltaInfinityNeverBetaInvalidates) {
  init(SimTime::infinity());
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  sim_.schedule_after(SimTime::seconds(1000), [] {});
  sim_.run_until();
  EXPECT_EQ(read_now(0, ObjectId{0}), Value{0});
  EXPECT_EQ(clients_[0]->stats().cache_hits, 1u);
}

// --- End-to-end experiments ------------------------------------------------

ExperimentConfig small_config(ProtocolKind kind, SimTime delta,
                              std::uint64_t seed) {
  ExperimentConfig config;
  config.kind = kind;
  config.delta = delta;
  config.seed = seed;
  config.workload.num_clients = 3;
  config.workload.num_objects = 4;
  config.workload.write_ratio = 0.3;
  config.workload.mean_think_time = ms(5);
  config.workload.horizon = ms(120);
  config.min_latency = us(100);
  config.max_latency = us(400);
  return config;
}

TEST(ExperimentTest, RunsToCompletionAndRecordsHistory) {
  const auto result =
      run_experiment(small_config(ProtocolKind::kTimedSerial, ms(10), 3));
  EXPECT_GT(result.operations, 10u);
  EXPECT_EQ(result.history.size(), result.operations);
  EXPECT_FALSE(result.history.has_thin_air_read());
  EXPECT_GT(result.messages_per_op, 0.0);
}

TEST(ExperimentTest, DeterministicForSeed) {
  const auto a =
      run_experiment(small_config(ProtocolKind::kTimedCausal, ms(10), 7));
  const auto b =
      run_experiment(small_config(ProtocolKind::kTimedCausal, ms(10), 7));
  EXPECT_EQ(a.network.messages_sent, b.network.messages_sent);
  EXPECT_EQ(a.cache.cache_hits, b.cache.cache_hits);
  EXPECT_EQ(a.mean_staleness_us, b.mean_staleness_us);
}

TEST(ExperimentTest, MultiSeedReplicationMatchesSerialRuns) {
  // run_experiment_seeds fans seeds over the thread pool; each run must be
  // bit-identical to calling run_experiment with that seed serially.
  const auto config = small_config(ProtocolKind::kTimedSerial, ms(10), 0);
  const std::vector<std::uint64_t> seeds = {3, 14, 159, 2653};
  const auto parallel = run_experiment_seeds(config, seeds, 4);
  ASSERT_EQ(parallel.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    auto c = config;
    c.seed = seeds[i];
    const auto serial = run_experiment(c);
    EXPECT_EQ(parallel[i].network.messages_sent, serial.network.messages_sent);
    EXPECT_EQ(parallel[i].network.bytes_sent, serial.network.bytes_sent);
    EXPECT_EQ(parallel[i].cache.cache_hits, serial.cache.cache_hits);
    EXPECT_EQ(parallel[i].mean_staleness_us, serial.mean_staleness_us);
    EXPECT_EQ(parallel[i].history.to_string(), serial.history.to_string());
  }
}

TEST(ExperimentTest, TscStalenessBoundedByDeltaPlusSlack) {
  // The TSC protocol promise: a read never returns a value that has been
  // replaced for more than Delta (+ messaging slack: the value may be
  // overwritten while the reply is in flight, and the entry may be used
  // right at its freshness boundary).
  const SimTime delta = ms(5);
  auto config = small_config(ProtocolKind::kTimedSerial, delta, 11);
  config.workload.horizon = ms(300);
  const auto result = run_experiment(config);
  const SimTime slack = config.max_latency * 4;
  EXPECT_LE(result.max_staleness, delta + slack)
      << "staleness " << result.max_staleness.to_string();
}

TEST(ExperimentTest, SmallerDeltaReducesStaleness) {
  auto base = small_config(ProtocolKind::kTimedSerial, SimTime::infinity(), 13);
  base.workload.horizon = ms(400);
  base.workload.write_ratio = 0.4;
  auto timed = base;
  timed.delta = ms(2);
  const auto loose = run_experiment(base);
  const auto tight = run_experiment(timed);
  EXPECT_LE(tight.max_staleness, loose.max_staleness);
  EXPECT_LE(tight.mean_staleness_us, loose.mean_staleness_us + 1.0);
}

TEST(ExperimentTest, SmallerDeltaCostsMoreMessages) {
  auto base = small_config(ProtocolKind::kTimedSerial, SimTime::infinity(), 17);
  base.workload.horizon = ms(400);
  auto timed = base;
  timed.delta = ms(1);
  const auto loose = run_experiment(base);
  const auto tight = run_experiment(timed);
  EXPECT_GE(tight.messages_per_op, loose.messages_per_op);
  EXPECT_LE(tight.cache.hit_ratio(), loose.cache.hit_ratio() + 1e-9);
}

TEST(ExperimentTest, TscInvalidatesAtLeastAsMuchAsTcc) {
  // Section 5.3: "this implementation of TCC tends to invalidate more
  // objects than CC but less than TSC".
  const SimTime delta = ms(3);
  auto cfg_tsc = small_config(ProtocolKind::kTimedSerial, delta, 19);
  auto cfg_tcc = small_config(ProtocolKind::kTimedCausal, delta, 19);
  cfg_tsc.workload.horizon = cfg_tcc.workload.horizon = ms(400);
  const auto tsc = run_experiment(cfg_tsc);
  const auto tcc = run_experiment(cfg_tcc);
  const auto churn = [](const ExperimentResult& r) {
    return r.cache.invalidations + r.cache.marked_old;
  };
  EXPECT_GE(churn(tsc), churn(tcc));

  auto cfg_cc = small_config(ProtocolKind::kTimedCausal, SimTime::infinity(), 19);
  cfg_cc.workload.horizon = ms(400);
  const auto cc = run_experiment(cfg_cc);
  EXPECT_GE(churn(tcc), churn(cc));
}

// --- Protocol -> checker integration ---------------------------------------

class ProtocolCheckerIntegration
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolCheckerIntegration, SerialRunsReadOnTime) {
  // A short TSC run must produce a history whose reads are all on time at
  // Delta + messaging slack (Definition 1 with the protocol's real-time
  // budget). This ties the implementation back to the formal model.
  ExperimentConfig config =
      small_config(ProtocolKind::kTimedSerial, ms(4), GetParam());
  config.workload.horizon = ms(60);
  config.workload.mean_think_time = ms(4);
  const auto result = run_experiment(config);
  const SimTime slack = config.max_latency * 4;
  const auto timing =
      reads_on_time(result.history, TimedSpecPerfect{config.delta + slack});
  EXPECT_TRUE(timing.all_on_time) << "late reads: " << timing.late_reads.size();
}

TEST_P(ProtocolCheckerIntegration, CausalRunsPassCcFastChecks) {
  ExperimentConfig config =
      small_config(ProtocolKind::kTimedCausal, ms(4), GetParam());
  config.workload.horizon = ms(60);
  const auto result = run_experiment(config);
  const CausalOrder co = CausalOrder::build(result.history);
  EXPECT_TRUE(passes_cc_fast_checks(result.history, co));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolCheckerIntegration,
                         ::testing::Values(31, 32, 33, 34, 35));

}  // namespace
}  // namespace timedc
