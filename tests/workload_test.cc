// Tests for src/workload: social graph, traffic patterns, driver.

#include <memory>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "gtest/gtest.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "workload/driver.h"
#include "workload/social_graph.h"
#include "workload/traffic.h"

namespace scads {
namespace {

// ------------------------------------------------------------ SocialGraph --

TEST(SocialGraphTest, DeterministicForSeed) {
  SocialGraphConfig config;
  config.user_count = 500;
  SocialGraph a = SocialGraph::Generate(config, 9);
  SocialGraph b = SocialGraph::Generate(config, 9);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.Friends(7), b.Friends(7));
  SocialGraph c = SocialGraph::Generate(config, 10);
  EXPECT_NE(a.Edges(), c.Edges());
}

TEST(SocialGraphTest, EdgesAreSymmetricAndUnique) {
  SocialGraphConfig config;
  config.user_count = 300;
  SocialGraph graph = SocialGraph::Generate(config, 3);
  for (const auto& [a, b] : graph.Edges()) {
    EXPECT_LT(a, b);
    EXPECT_TRUE(graph.AreFriends(a, b));
    EXPECT_TRUE(graph.AreFriends(b, a));
  }
  int64_t degree_sum = 0;
  for (int64_t u = 0; u < graph.user_count(); ++u) degree_sum += graph.Degree(u);
  EXPECT_EQ(degree_sum, 2 * graph.edge_count());
}

TEST(SocialGraphTest, CapIsRespected) {
  SocialGraphConfig config;
  config.user_count = 400;
  config.mean_degree = 50;
  config.friend_cap = 20;  // tight cap
  SocialGraph graph = SocialGraph::Generate(config, 5);
  EXPECT_LE(graph.max_degree(), 20);
}

TEST(SocialGraphTest, MeanDegreeRoughlyAsConfigured) {
  SocialGraphConfig config;
  config.user_count = 2000;
  config.mean_degree = 16;
  SocialGraph graph = SocialGraph::Generate(config, 7);
  double mean = 2.0 * static_cast<double>(graph.edge_count()) /
                static_cast<double>(graph.user_count());
  EXPECT_GT(mean, 6.0);
  EXPECT_LT(mean, 40.0);
}

TEST(SocialGraphTest, AddFriendshipRejectsDuplicatesSelfAndOverCap) {
  SocialGraphConfig config;
  config.user_count = 10;
  config.mean_degree = 0;  // start with no generated edges
  SocialGraph graph = SocialGraph::Generate(config, 1);
  EXPECT_TRUE(graph.AddFriendship(1, 2, 2));
  EXPECT_FALSE(graph.AddFriendship(1, 2, 2));  // duplicate
  EXPECT_FALSE(graph.AddFriendship(3, 3, 2));  // self
  EXPECT_TRUE(graph.AddFriendship(1, 4, 2));
  EXPECT_FALSE(graph.AddFriendship(1, 5, 2));  // over cap
}

// ----------------------------------------------------------------- Traffic --

TEST(TrafficTest, ConstantIsConstant) {
  TrafficPattern p = ConstantTraffic(500);
  EXPECT_DOUBLE_EQ(p(0), 500);
  EXPECT_DOUBLE_EQ(p(3 * kDay), 500);
}

TEST(TrafficTest, DiurnalPeaksMidPeriod) {
  TrafficPattern p = DiurnalTraffic(1000, 400);
  EXPECT_NEAR(p(0), 600, 1);            // trough at midnight
  EXPECT_NEAR(p(kDay / 2), 1400, 1);    // peak at noon
  EXPECT_NEAR(p(kDay), 600, 1);         // periodic
  // Never negative even with amplitude > base.
  TrafficPattern extreme = DiurnalTraffic(100, 500);
  EXPECT_GE(extreme(0), 0);
}

TEST(TrafficTest, SpikeMultipliesInsideWindow) {
  TrafficPattern p = SpikeTraffic(ConstantTraffic(100), 10 * kHour, 2 * kHour, 5.0, kHour);
  EXPECT_NEAR(p(5 * kHour), 100, 1e-9);       // before
  EXPECT_NEAR(p(11 * kHour), 500, 1e-9);      // inside
  EXPECT_NEAR(p(20 * kHour), 100, 1e-9);      // after
  // Ramps are monotone.
  EXPECT_GT(p(9 * kHour + 30 * kMinute), p(9 * kHour + 10 * kMinute));
  EXPECT_LT(p(12 * kHour + 50 * kMinute), p(12 * kHour + 10 * kMinute));
}

TEST(TrafficTest, ViralGrowthIsMonotoneSCurve) {
  TrafficPattern p = ViralGrowthTraffic(50, 10000, 36 * kHour, 6 * kHour);
  EXPECT_LT(p(0), 300);          // starts near the floor
  EXPECT_NEAR(p(36 * kHour), (50 + 10000) / 2.0, 50);  // midpoint
  EXPECT_GT(p(72 * kHour), 9500);                      // saturates near peak
  double last = 0;
  for (Time t = 0; t <= 72 * kHour; t += kHour) {
    EXPECT_GE(p(t), last);
    last = p(t);
  }
}

TEST(TrafficTest, SumAddsParts) {
  TrafficPattern p = SumTraffic({ConstantTraffic(100), ConstantTraffic(50)});
  EXPECT_DOUBLE_EQ(p(123), 150);
}

// ------------------------------------------------------------------ Driver --

struct DriverHarness {
  EventLoop loop;
  SimNetwork network;
  ClusterState cluster;
  std::vector<std::unique_ptr<StorageNode>> nodes;

  DriverHarness(int node_count) : network(&loop, 2) {
    std::vector<NodeId> ids;
    for (int i = 0; i < node_count; ++i) {
      auto node = std::make_unique<StorageNode>(i, &loop, &network, &cluster, NodeConfig{},
                                                40 + static_cast<uint64_t>(i));
      EXPECT_TRUE(cluster.AddNode(i, node.get()).ok());
      nodes.push_back(std::move(node));
      ids.push_back(i);
    }
    auto map = PartitionMap::Create({}, ids, 1);
    EXPECT_TRUE(map.ok());
    cluster.set_partitions(std::move(map).value());
  }
};

TEST(DriverTest, InjectsBackgroundLoadProportionalToRate) {
  DriverHarness h(4);
  DriverConfig config;
  config.sample_rate = 0;  // background only
  WorkloadDriver driver(&h.loop, &h.cluster, ConstantTraffic(10000), config, 1);
  driver.Start();
  h.loop.RunFor(10 * kSecond);
  driver.Stop();
  int64_t busy_total = 0;
  for (const auto& node : h.nodes) busy_total += node->stats().busy_micros;
  // 10k req/s * 10s * 140us ~ 14e6 us of demand (plus replication factor 1).
  EXPECT_GT(busy_total, 10'000'000);
  EXPECT_LT(busy_total, 20'000'000);
  EXPECT_EQ(driver.samples_issued(), 0);
  EXPECT_GT(driver.logical_requests(), 90'000);
}

TEST(DriverTest, SampledOpsAreIssued) {
  DriverHarness h(2);
  DriverConfig config;
  config.sample_rate = 10;
  WorkloadDriver driver(&h.loop, &h.cluster, ConstantTraffic(1000), config, 3);
  int issued = 0;
  driver.AddOp(WorkloadOp{"noop", 1.0, [&](Rng*) { ++issued; }});
  driver.Start();
  h.loop.RunFor(20 * kSecond);
  driver.Stop();
  h.loop.RunFor(2 * kSecond);  // flush probes jittered past the stop time
  // ~10/s for 20s.
  EXPECT_NEAR(issued, 200, 80);
  EXPECT_EQ(driver.samples_issued(), issued);
}

TEST(DriverTest, SampleRateCappedByLogicalRate) {
  DriverHarness h(1);
  DriverConfig config;
  config.sample_rate = 1000;  // higher than the logical rate
  WorkloadDriver driver(&h.loop, &h.cluster, ConstantTraffic(5), config, 3);
  int issued = 0;
  driver.AddOp(WorkloadOp{"noop", 1.0, [&](Rng*) { ++issued; }});
  driver.Start();
  h.loop.RunFor(20 * kSecond);
  // Logical rate is 5/s: samples must not exceed it (in expectation).
  EXPECT_LT(issued, 200);
}

TEST(DriverTest, OverloadShedsAndSlowsProbes) {
  DriverHarness h(1);
  DriverConfig config;
  config.sample_rate = 0;
  // One node with 140us/request capacity ~ 7k req/s; offer 40k (rho ~ 5.6).
  WorkloadDriver driver(&h.loop, &h.cluster, ConstantTraffic(40000), config, 9);
  driver.Start();
  h.loop.RunFor(5 * kSecond);
  // Probes through the real path now mostly shed (overload fraction).
  int served = 0, shed = 0;
  for (int i = 0; i < 200; ++i) {
    h.nodes[0]->HandleGet("k", RequestPriority::kNormal, [&](PointReadReply reply) {
      if (reply.result.status().code() == StatusCode::kResourceExhausted) {
        ++shed;
      } else {
        ++served;
      }
    });
    h.loop.RunFor(100 * kMillisecond);
  }
  EXPECT_GT(shed, served);  // ~82% shed expected at rho 5.6
}

TEST(DriverTest, ModerateLoadRaisesProbeLatency) {
  DriverHarness h(1);
  DriverConfig config;
  config.sample_rate = 0;
  // rho ~ 0.84: probes should wait several service times on average.
  WorkloadDriver driver(&h.loop, &h.cluster, ConstantTraffic(6000), config, 9);
  driver.Start();
  h.loop.RunFor(5 * kSecond);
  LogHistogram latencies;
  for (int i = 0; i < 300; ++i) {
    Time start = h.loop.Now();
    bool done = false;
    h.nodes[0]->HandleGet("k", RequestPriority::kNormal, [&](PointReadReply) { done = true; });
    for (int step = 0; step < 1000 && !done; ++step) {
      if (!h.loop.RunOne()) h.loop.RunFor(100);
    }
    if (done) latencies.Record(h.loop.Now() - start);
    h.loop.RunFor(10 * kMillisecond);
  }
  // Mean sojourn ~ service * (1 + rho/(1-rho)) ~ 120us * 6.2 ~ 750us.
  EXPECT_GT(latencies.mean(), 300.0);
  EXPECT_LT(latencies.mean(), 20000.0);
}

TEST(DriverTest, WeightsBiasOpSelection) {
  DriverHarness h(1);
  DriverConfig config;
  config.sample_rate = 200;
  WorkloadDriver driver(&h.loop, &h.cluster, ConstantTraffic(10000), config, 11);
  int heavy = 0, light = 0;
  driver.AddOp(WorkloadOp{"heavy", 9.0, [&](Rng*) { ++heavy; }});
  driver.AddOp(WorkloadOp{"light", 1.0, [&](Rng*) { ++light; }});
  driver.Start();
  h.loop.RunFor(30 * kSecond);
  ASSERT_GT(heavy + light, 1000);
  double heavy_fraction = static_cast<double>(heavy) / (heavy + light);
  EXPECT_NEAR(heavy_fraction, 0.9, 0.05);
}

}  // namespace
}  // namespace scads
