#include "serve/shard_router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "serve/chaos_scenario.h"
#include "serve/rollout.h"
#include "serve/serve_config.h"
#include "serve/snapshot_registry.h"
#include "util/fault.h"
#include "util/trace.h"

namespace activedp {
namespace {

/// Shared trained fixture: two snapshots (A = baseline, B = candidate) on
/// disk and in memory, a request trace, and per-row offline digests — the
/// bitwise ground truth every router test compares served replies against.
class ShardRouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Result<ServeChaosFixture> fixture = BuildServeChaosFixture(
        testing::TempDir() + "/shard_router_test", "youtube", /*scale=*/0.1,
        /*seed=*/7, /*steps_a=*/12, /*steps_b=*/6, /*trace_size=*/48);
    ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
    fixture_ = new ServeChaosFixture(std::move(*fixture));
  }

  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }

  static ServeConfig FastConfig(int num_shards) {
    ServeConfigBuilder builder;
    builder.set_num_shards(num_shards)
        .set_virtual_nodes(64)
        .set_max_batch_size(16);
    Result<ServeConfig> config = builder.Build();
    EXPECT_TRUE(config.ok()) << config.status().ToString();
    return *config;
  }

  /// Two tenant names that route to the same shard of `router` — the
  /// isolation tests need a noisy and a quiet tenant colocated so shedding
  /// one provably cannot be a shard-level effect.
  static std::pair<std::string, std::string> ColocatedTenants(
      const ShardRouter& router) {
    const std::string first = "tenant-0";
    const int shard = router.ShardFor(first);
    for (int i = 1; i < 1000; ++i) {
      const std::string other = "tenant-" + std::to_string(i);
      if (router.ShardFor(other) == shard) return {first, other};
    }
    ADD_FAILURE() << "no colocated tenant found in 1000 candidates";
    return {first, first};
  }

  static ServeRequest TenantRequest(const std::string& tenant_id, int row) {
    ServeRequest request;
    request.tenant_id = tenant_id;
    request.example = fixture_->trace[row % fixture_->trace.size()];
    return request;
  }

  static ServeChaosFixture* fixture_;
};

ServeChaosFixture* ShardRouterTest::fixture_ = nullptr;

TEST(ShardRouterRoutingTest, RoutingIsAPureFunctionOfTenantAndTopology) {
  for (int i = 0; i < 200; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    const int shard = ShardRouter::ShardForKey(tenant, 4, 64);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    // Pure: the same (tenant, topology) always routes the same way.
    EXPECT_EQ(shard, ShardRouter::ShardForKey(tenant, 4, 64)) << tenant;
  }
  // Every shard takes a reasonable share of a uniform tenant population.
  std::vector<int> per_shard(4, 0);
  for (int i = 0; i < 400; ++i) {
    ++per_shard[ShardRouter::ShardForKey("tenant-" + std::to_string(i), 4,
                                         64)];
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(per_shard[s], 20) << "shard " << s << " nearly empty";
  }
}

TEST(ShardRouterRoutingTest, ShardCountChangeMovesBoundedKeys) {
  const int n = 1000;
  int moved = 0;
  for (int i = 0; i < n; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    if (ShardRouter::ShardForKey(tenant, 4, 64) !=
        ShardRouter::ShardForKey(tenant, 5, 64)) {
      ++moved;
    }
  }
  // Consistent hashing: growing 4 → 5 shards should move ~1/5 of tenants,
  // never a wholesale reshuffle (modulo hashing would move ~4/5).
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, n * 2 / 5) << "resharding moved " << moved << " of " << n;
}

TEST(ShardRouterRoutingTest, ServeConfigBuilderValidates) {
  EXPECT_TRUE(ServeConfigBuilder().Build().ok());

  ServeConfigBuilder bad_shards;
  bad_shards.set_num_shards(0);
  Result<ServeConfig> r1 = bad_shards.Build();
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r1.status().message().find("num_shards"), std::string::npos);

  ServeConfigBuilder bad_batch;
  bad_batch.set_max_batch_size(0);
  EXPECT_FALSE(bad_batch.Build().ok());

  ServeConfigBuilder bad_fraction;
  bad_fraction.set_canary_fraction(1.5);
  EXPECT_FALSE(bad_fraction.Build().ok());

  ServeConfigBuilder bad_samples;
  bad_samples.set_rollout_window(8).set_min_canary_samples(9);
  EXPECT_FALSE(bad_samples.Build().ok());

  ServeConfigBuilder bad_limits;
  TenantLimits limits;
  limits.max_in_flight = -1;
  bad_limits.set_default_tenant_limits(limits);
  EXPECT_FALSE(bad_limits.Build().ok());
}

TEST_F(ShardRouterTest, RoutesTenantsToTheirOwnSnapshots) {
  ShardRouter router(FastConfig(2));
  ASSERT_TRUE(router.AddTenant("alpha").ok());
  ASSERT_TRUE(router.AddTenant("beta").ok());
  // Registering twice is refused, not silently remapped.
  EXPECT_FALSE(router.AddTenant("alpha").ok());
  ASSERT_TRUE(router.SetTenantSnapshot("alpha", fixture_->snapshot_a).ok());
  ASSERT_TRUE(router.SetTenantSnapshot("beta", fixture_->snapshot_b).ok());

  // Tenant → shard placement agrees with the pure routing function.
  EXPECT_EQ(router.StatsFor("alpha")->shard, router.ShardFor("alpha"));

  for (int i = 0; i < 24; ++i) {
    const ServeReply via_alpha = router.Predict(TenantRequest("alpha", i));
    ASSERT_TRUE(via_alpha.ok()) << via_alpha.status.ToString();
    EXPECT_EQ(PredictionDigest(via_alpha.prediction), fixture_->digests_a[i])
        << "alpha row " << i;
    const ServeReply via_beta = router.Predict(TenantRequest("beta", i));
    ASSERT_TRUE(via_beta.ok()) << via_beta.status.ToString();
    EXPECT_EQ(PredictionDigest(via_beta.prediction), fixture_->digests_b[i])
        << "beta row " << i;
  }

  const ServeReply unknown = router.Predict(TenantRequest("nobody", 0));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status.code(), StatusCode::kNotFound);

  ServeRequest anonymous;
  anonymous.example = fixture_->trace[0];
  const ServeReply no_tenant = router.Predict(std::move(anonymous));
  ASSERT_FALSE(no_tenant.ok());
  EXPECT_EQ(no_tenant.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardRouterTest, OneTenantsOverloadNeverShedsAnother) {
  ShardRouter router(FastConfig(2));
  const auto [noisy, quiet] = ColocatedTenants(router);
  // Any warm EWMA exceeds this budget (the round-trip sample is floored
  // above zero), so after one served request every further noisy-tenant
  // admission sheds deterministically — the per-tenant analogue of the
  // service-level AdaptiveShedder test.
  TenantLimits tight;
  tight.max_queue_delay_ms = 0.0001;
  ASSERT_TRUE(router.AddTenant(noisy, tight).ok());
  ASSERT_TRUE(router.AddTenant(quiet).ok());
  ASSERT_TRUE(router.SetTenantSnapshot(noisy, fixture_->snapshot_a).ok());
  ASSERT_TRUE(router.SetTenantSnapshot(quiet, fixture_->snapshot_a).ok());

  // Warm the noisy tenant's EWMA.
  ASSERT_TRUE(router.Predict(TenantRequest(noisy, 0)).ok());

  int noisy_shed = 0;
  for (int i = 0; i < 16; ++i) {
    const ServeReply reply = router.Predict(TenantRequest(noisy, i));
    if (!reply.ok()) {
      EXPECT_EQ(reply.status.code(), StatusCode::kUnavailable);
      ASSERT_TRUE(reply.reject.has_value());
      EXPECT_EQ(reply.reject->reason, RejectReason::kOverloaded);
      EXPECT_GE(reply.reject->retry_after_ms, 1.0);
      ++noisy_shed;
    }
  }
  EXPECT_EQ(noisy_shed, 16) << "warm noisy tenant should shed every request";

  // The quiet tenant shares the shard and is completely untouched: zero
  // failed requests, bitwise-correct replies.
  for (int i = 0; i < 16; ++i) {
    const ServeReply reply = router.Predict(TenantRequest(quiet, i));
    ASSERT_TRUE(reply.ok()) << reply.status.ToString();
    EXPECT_EQ(PredictionDigest(reply.prediction), fixture_->digests_a[i]);
  }
  EXPECT_EQ(router.StatsFor(quiet)->shed, 0);
  EXPECT_EQ(router.StatsFor(noisy)->shed, 16);

  // priority >= 1 bypasses the tenant's adaptive shedder.
  ServeRequest urgent = TenantRequest(noisy, 0);
  urgent.priority = 1;
  EXPECT_TRUE(router.Predict(std::move(urgent)).ok());
}

TEST_F(ShardRouterTest, TenantQuotaRejectsWithStructuredInfo) {
  ServeConfig config = FastConfig(1);
  config.service.max_batch_size = 64;
  ShardRouter router(config);
  TenantLimits one;
  one.max_in_flight = 1;
  ASSERT_TRUE(router.AddTenant("capped", one).ok());
  ASSERT_TRUE(router.SetTenantSnapshot("capped", fixture_->snapshot_a).ok());

  // One latency-spiked batch (20ms) keeps the first request in flight while
  // the next ones arrive.
  FaultSpec spike;
  spike.kind = FaultKind::kLatencySpike;
  spike.max_fires = 1;
  FaultScope spike_scope("serve.predict", spike);

  std::future<ServeReply> first = router.PredictAsync(TenantRequest("capped", 0));
  const ServeReply second = router.Predict(TenantRequest("capped", 1));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status.code(), StatusCode::kUnavailable);
  ASSERT_TRUE(second.reject.has_value());
  EXPECT_EQ(second.reject->reason, RejectReason::kQuotaExceeded);
  EXPECT_EQ(second.reject->queue_depth, 1);
  // Quota is a hard limit: priority does not bypass it.
  ServeRequest urgent = TenantRequest("capped", 2);
  urgent.priority = 1;
  const ServeReply still_capped = router.Predict(std::move(urgent));
  ASSERT_FALSE(still_capped.ok());
  EXPECT_EQ(still_capped.reject->reason, RejectReason::kQuotaExceeded);

  EXPECT_TRUE(first.get().ok());
  // Quota freed: the tenant serves again.
  EXPECT_TRUE(router.Predict(TenantRequest("capped", 3)).ok());
}

TEST_F(ShardRouterTest, PerTenantRolloutNeverTouchesOtherTenants) {
  const std::string incident_root =
      testing::TempDir() + "/shard_router_incidents";
  std::filesystem::remove_all(incident_root);
  FlightRecorderOptions recorder;
  recorder.incident_dir = incident_root;
  FlightRecorder::Global().Enable(recorder);
  Tracer::Global().Enable();

  ShardRouter router(FastConfig(2));
  ASSERT_TRUE(router.AddTenant("promoting").ok());
  ASSERT_TRUE(router.AddTenant("rolling-back").ok());
  // Bystanders: a quiet tenant, and a noisy one whose warm EWMA sheds every
  // priority-0 request (as in OneTenantsOverloadNeverShedsAnother).
  TenantLimits tight;
  tight.max_queue_delay_ms = 0.0001;
  ASSERT_TRUE(router.AddTenant("quiet").ok());
  ASSERT_TRUE(router.AddTenant("noisy", tight).ok());
  ASSERT_TRUE(router.SetTenantSnapshot("quiet", fixture_->snapshot_a).ok());
  ASSERT_TRUE(router.SetTenantSnapshot("noisy", fixture_->snapshot_a).ok());
  ASSERT_TRUE(router.Predict(TenantRequest("noisy", 0)).ok());

  const auto make_registry = [&](const std::string& tag) {
    const std::string manifest =
        fixture_->dir + "/router_" + tag + ".manifest";
    std::remove(manifest.c_str());
    return SnapshotRegistry::Open(manifest);
  };
  Result<SnapshotRegistry> promoting_registry = make_registry("promoting");
  ASSERT_TRUE(promoting_registry.ok());
  Result<SnapshotRegistry> rollback_registry = make_registry("rollback");
  ASSERT_TRUE(rollback_registry.ok());

  const auto seed_registry = [&](SnapshotRegistry& registry) {
    const int64_t id_a =
        *registry.Register(fixture_->snapshot_a_path, -1, "baseline");
    EXPECT_TRUE(registry.Activate(id_a).ok());
    return *registry.Register(fixture_->snapshot_b_path, id_a, "candidate");
  };
  const int64_t promote_candidate = seed_registry(*promoting_registry);
  const int64_t rollback_candidate = seed_registry(*rollback_registry);
  ASSERT_TRUE(
      router.AttachTenantRegistry("promoting", &*promoting_registry).ok());
  ASSERT_TRUE(
      router.AttachTenantRegistry("rolling-back", &*rollback_registry).ok());

  RolloutOptions options;
  options.window = 32;
  options.canary_fraction = 0.3;
  options.min_canary_samples = 1;
  options.seed = 11;
  options.client_threads = 2;

  // Both bystanders get traffic from two clients while the rollouts run.
  std::atomic<bool> rollouts_done{false};
  std::atomic<int> quiet_wrong{0};
  std::atomic<int> noisy_not_shed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (int i = c; i == c || !rollouts_done.load(); i += 2) {
        const uint64_t want = fixture_->digests_a[i % fixture_->trace.size()];
        const ServeReply quiet = router.Predict(TenantRequest("quiet", i));
        if (!quiet.ok() || PredictionDigest(quiet.prediction) != want) {
          quiet_wrong.fetch_add(1);
        }
        const ServeReply noisy = router.Predict(TenantRequest("noisy", i));
        if (noisy.ok() || !noisy.reject.has_value() ||
            noisy.reject->reason != RejectReason::kOverloaded ||
            noisy.reject->retry_after_ms < 1.0) {
          noisy_not_shed.fetch_add(1);
        }
      }
    });
  }

  // Tenant "promoting": healthy candidate, full promote. Its registry
  // activates the candidate and only *its* snapshot swaps.
  Result<RolloutReport> promoted = RunTenantStagedRollout(
      router, "promoting", promote_candidate, fixture_->trace, options);

  // Tenant "rolling-back": the canary fault site makes its candidate look
  // unhealthy, forcing a deterministic rollback. Its registry condemns the
  // candidate and its serving snapshot stays on the baseline.
  Result<RolloutReport> rolled_back(Status::Internal("rollout never ran"));
  {
    FaultSpec spec;
    spec.kind = FaultKind::kError;
    FaultScope scope("rollout.canary", spec);
    rolled_back = RunTenantStagedRollout(router, "rolling-back",
                                         rollback_candidate, fixture_->trace,
                                         options);
    EXPECT_GT(scope.fire_count(), 0);
  }
  rollouts_done.store(true);
  for (std::thread& client : clients) client.join();

  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted->decision, RolloutDecision::kPromote)
      << promoted->Summary();
  EXPECT_EQ(promoting_registry->active_id(),
            std::optional<int64_t>(promote_candidate));
  ASSERT_TRUE(rolled_back.ok()) << rolled_back.status().ToString();
  EXPECT_EQ(rolled_back->decision, RolloutDecision::kRollback)
      << rolled_back->Summary();
  EXPECT_EQ(rollback_registry->Get(rollback_candidate)->status,
            SnapshotStatus::kFailed);
  EXPECT_NE(rollback_registry->active_id(),
            std::optional<int64_t>(rollback_candidate));

  EXPECT_EQ(quiet_wrong.load(), 0);
  EXPECT_EQ(router.StatsFor("quiet")->shed, 0);
  EXPECT_EQ(noisy_not_shed.load(), 0);
  EXPECT_GE(router.StatsFor("noisy")->shed, 2);
  // priority >= 1 bypasses the noisy tenant's shedder, bitwise correct.
  ServeRequest urgent = TenantRequest("noisy", 5);
  urgent.priority = 1;
  const ServeReply probe = router.Predict(std::move(urgent));
  ASSERT_TRUE(probe.ok()) << probe.status.ToString();
  EXPECT_EQ(PredictionDigest(probe.prediction), fixture_->digests_a[5]);

  // Cross-tenant digest gate: "promoting" serves the candidate bitwise,
  // "rolling-back" still serves the baseline bitwise — neither rollout
  // perturbed the other tenant.
  for (int i = 0; i < 24; ++i) {
    const ServeReply promoted_reply =
        router.Predict(TenantRequest("promoting", i));
    ASSERT_TRUE(promoted_reply.ok()) << promoted_reply.status.ToString();
    EXPECT_EQ(PredictionDigest(promoted_reply.prediction),
              fixture_->digests_b[i]);
    const ServeReply stable_reply =
        router.Predict(TenantRequest("rolling-back", i));
    ASSERT_TRUE(stable_reply.ok()) << stable_reply.status.ToString();
    EXPECT_EQ(PredictionDigest(stable_reply.prediction),
              fixture_->digests_a[i]);
  }
  EXPECT_TRUE(router.CheckHealth().ok());

  // Each decision is one tenant-tagged instant, and the rollback is the only
  // incident: one verified dump.
  const RunTrace trace = Tracer::Global().Collect();
  Tracer::Global().Disable();
  FlightRecorder::Global().Disable();
  std::vector<std::string> promotes;
  std::vector<std::string> rollbacks;
  for (const TraceEventRecord& event : trace.events) {
    if (event.category != "serve.rollout") continue;
    if (event.name == "promote") promotes.push_back(event.detail);
    if (event.name == "rollback") rollbacks.push_back(event.detail);
  }
  ASSERT_EQ(promotes.size(), 1u);
  EXPECT_NE(promotes[0].find("tenant=promoting "), std::string::npos);
  ASSERT_EQ(rollbacks.size(), 1u);
  EXPECT_NE(rollbacks[0].find("tenant=rolling-back "), std::string::npos);
  const IncidentCheck incidents = CheckIncidentDumps(
      incident_root, IncidentPolicy::kExactlyOne, "rollout.rollback");
  EXPECT_TRUE(incidents.failures.empty())
      << ::testing::PrintToString(incidents.failures);
}

TEST_F(ShardRouterTest, ShutdownRejectsWithStructuredReason) {
  ShardRouter router(FastConfig(1));
  ASSERT_TRUE(router.AddTenant("alpha").ok());
  ASSERT_TRUE(router.SetTenantSnapshot("alpha", fixture_->snapshot_a).ok());
  ASSERT_TRUE(router.Predict(TenantRequest("alpha", 0)).ok());
  EXPECT_TRUE(router.CheckHealth().ok());

  router.Shutdown();
  EXPECT_FALSE(router.CheckHealth().ok());
  const ServeReply late = router.Predict(TenantRequest("alpha", 1));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
  ASSERT_TRUE(late.reject.has_value());
  EXPECT_EQ(late.reject->reason, RejectReason::kShutdown);
}

}  // namespace
}  // namespace activedp
