// Unit + integration tests for src/cluster: partition map, cluster state,
// node queueing model, router request paths, replication streams,
// rebalancing.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "cluster/rebalancer.h"
#include "cluster/router.h"
#include "gtest/gtest.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace scads {
namespace {

// ------------------------------------------------------------- Partition --

TEST(PartitionMapTest, CreateCoversKeySpace) {
  auto map = PartitionMap::Create({"g", "p"}, {0, 1, 2}, 2);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->size(), 3u);
  EXPECT_EQ(map->ForKey("apple").start, "");
  EXPECT_EQ(map->ForKey("grape").start, "g");
  EXPECT_EQ(map->ForKey("zebra").start, "p");
  EXPECT_EQ(map->ForKey("g").start, "g");  // boundary is inclusive on right
}

TEST(PartitionMapTest, ReplicasRoundRobin) {
  auto map = PartitionMap::Create({"m"}, {10, 20, 30}, 2);
  ASSERT_TRUE(map.ok());
  const auto& parts = map->partitions();
  EXPECT_EQ(parts[0].replicas, (std::vector<NodeId>{10, 20}));
  EXPECT_EQ(parts[1].replicas, (std::vector<NodeId>{20, 30}));
}

TEST(PartitionMapTest, ReplicationFactorCappedAtNodeCount) {
  auto map = PartitionMap::Create({}, {5}, 3);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->partitions()[0].replicas.size(), 1u);
  EXPECT_EQ(map->replication_factor(), 1);
}

TEST(PartitionMapTest, CreateRejectsBadInput) {
  EXPECT_FALSE(PartitionMap::Create({}, {}, 1).ok());
  EXPECT_FALSE(PartitionMap::Create({"b", "a"}, {0}, 1).ok());
  EXPECT_FALSE(PartitionMap::Create({""}, {0}, 1).ok());
  EXPECT_FALSE(PartitionMap::Create({}, {0}, 0).ok());
}

TEST(PartitionMapTest, CreateUniformSplitsByteSpace) {
  auto map = PartitionMap::CreateUniform(16, {0, 1, 2, 3}, 2);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->size(), 16u);
  // A low key and a high key land in different partitions.
  EXPECT_NE(map->ForKey(std::string(1, '\x01')).id, map->ForKey(std::string(1, '\xfe')).id);
}

TEST(PartitionMapTest, SplitCreatesNewRange) {
  auto map = PartitionMap::Create({}, {0, 1}, 2);
  ASSERT_TRUE(map.ok());
  auto new_id = map->Split("m");
  ASSERT_TRUE(new_id.ok());
  EXPECT_EQ(map->size(), 2u);
  EXPECT_EQ(map->ForKey("a").end, "m");
  EXPECT_EQ(map->ForKey("z").start, "m");
  EXPECT_EQ(map->ForKey("z").id, *new_id);
  // Replica sets inherited.
  EXPECT_EQ(map->ForKey("a").replicas, map->ForKey("z").replicas);
  // Splitting at an existing boundary fails.
  EXPECT_EQ(map->Split("m").status().code(), StatusCode::kAlreadyExists);
}

TEST(PartitionMapTest, MergeWithRightRequiresMatchingReplicas) {
  auto map = PartitionMap::Create({}, {0, 1}, 2);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Split("m").ok());
  PartitionId left = map->ForKey("a").id;
  ASSERT_TRUE(map->MergeWithRight(left).ok());
  EXPECT_EQ(map->size(), 1u);
  EXPECT_EQ(map->ForKey("z").end, "");

  ASSERT_TRUE(map->Split("m").ok());
  PartitionId right = map->ForKey("z").id;
  ASSERT_TRUE(map->SetReplicas(right, {1}).ok());
  EXPECT_EQ(map->MergeWithRight(map->ForKey("a").id).code(), StatusCode::kFailedPrecondition);
}

TEST(PartitionMapTest, PartitionsOnNode) {
  auto map = PartitionMap::Create({"m"}, {10, 20}, 2);
  ASSERT_TRUE(map.ok());
  // p0: {10,20}, p1: {20,10}
  EXPECT_EQ(map->PartitionsOnNode(10).size(), 2u);
  EXPECT_EQ(map->PartitionsOnNode(10, /*primary_only=*/true).size(), 1u);
  EXPECT_EQ(map->PartitionsOnNode(99).size(), 0u);
}

// ----------------------------------------------------------- ClusterState --

TEST(ClusterStateTest, AddRemoveAliveness) {
  ClusterState cluster;
  EXPECT_TRUE(cluster.AddNode(1, nullptr).ok());
  EXPECT_EQ(cluster.AddNode(1, nullptr).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(cluster.IsAlive(1));
  cluster.SetNodeAlive(1, false);
  EXPECT_FALSE(cluster.IsAlive(1));
  EXPECT_EQ(cluster.AliveNodes().size(), 0u);
  cluster.SetNodeAlive(1, true);
  EXPECT_EQ(cluster.AliveNodes().size(), 1u);
  EXPECT_TRUE(cluster.RemoveNode(1).ok());
  EXPECT_EQ(cluster.RemoveNode(1).code(), StatusCode::kNotFound);
  EXPECT_FALSE(cluster.IsAlive(1));
}

// --------------------------------------------------------- Test harness --

constexpr NodeId kClient = 1000;

// A small in-process cluster: N nodes, one partition map, one router.
struct TestCluster {
  EventLoop loop;
  SimNetwork network;
  ClusterState cluster;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::unique_ptr<Router> router;

  TestCluster(int node_count, int replication_factor,
              NodeConfig node_config = NodeConfig{}, RouterConfig router_config = RouterConfig{},
              NetworkConfig net_config = NetworkConfig{})
      : network(&loop, 7, net_config) {
    std::vector<NodeId> ids;
    for (int i = 0; i < node_count; ++i) {
      auto node = std::make_unique<StorageNode>(i, &loop, &network, &cluster, node_config,
                                                1000 + static_cast<uint64_t>(i));
      EXPECT_TRUE(cluster.AddNode(i, node.get()).ok());
      node->Start();
      nodes.push_back(std::move(node));
      ids.push_back(i);
    }
    auto map = PartitionMap::Create({}, ids, replication_factor);
    EXPECT_TRUE(map.ok());
    cluster.set_partitions(std::move(map).value());
    router = std::make_unique<Router>(kClient, &loop, &network, &cluster, router_config, 99);
  }

  // Synchronous wrappers: issue, run the loop until the callback fires.
  Status PutSync(const std::string& key, const std::string& value,
                 AckMode ack = AckMode::kPrimary) {
    Status out = InternalError("callback never ran");
    bool done = false;
    router->Put(key, value, ack, RequestOptions{}, [&](Status s) {
      out = std::move(s);
      done = true;
    });
    for (int i = 0; i < 1000000 && !done; ++i) {
      if (!loop.RunOne()) loop.RunFor(kMillisecond);
    }
    EXPECT_TRUE(done);
    return out;
  }

  Result<Record> GetSync(const std::string& key, bool pin_primary = false) {
    Result<Record> out(InternalError("callback never ran"));
    bool done = false;
    RequestOptions options;
    if (pin_primary) options.read_mode = ReadMode::kPrimaryOnly;
    router->Get(key, options, [&](Result<Record> r) {
      out = std::move(r);
      done = true;
    });
    for (int i = 0; i < 1000000 && !done; ++i) {
      if (!loop.RunOne()) loop.RunFor(kMillisecond);
    }
    EXPECT_TRUE(done);
    return out;
  }
};

// ---------------------------------------------------------------- Router --

TEST(RouterTest, PutThenGetRoundTrip) {
  TestCluster tc(3, 2);
  ASSERT_TRUE(tc.PutSync("user:1", "alice").ok());
  tc.loop.RunFor(kSecond);  // let replication settle
  auto got = tc.GetSync("user:1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "alice");
}

TEST(RouterTest, GetMissingKeyIsNotFound) {
  TestCluster tc(2, 1);
  auto got = tc.GetSync("ghost");
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  // NotFound counts as an answered read.
  EXPECT_EQ(tc.router->window().reads_ok, 1);
  EXPECT_EQ(tc.router->window().reads_failed, 0);
}

TEST(RouterTest, WritesGoToPrimaryOnly) {
  TestCluster tc(3, 3);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  // Immediately after the ack (before async replication), only the primary
  // is guaranteed to have it.
  StorageNode* primary = tc.cluster.GetNode(p.primary());
  EXPECT_TRUE(primary->engine()->Get("k").ok());
}

TEST(RouterTest, AsyncReplicationReachesAllReplicas) {
  TestCluster tc(3, 3);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  tc.loop.RunFor(kSecond);
  for (const auto& node : tc.nodes) {
    EXPECT_TRUE(node->engine()->Get("k").ok()) << "node " << node->id();
  }
}

TEST(RouterTest, QuorumAckWaitsForSecondary) {
  TestCluster tc(3, 3);
  Status status = tc.PutSync("k", "v", AckMode::kQuorum);
  ASSERT_TRUE(status.ok());
  // Quorum of 3 = 2: at ack time, at least 2 replicas must have the write.
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  int holders = 0;
  for (NodeId replica : p.replicas) {
    if (tc.cluster.GetNode(replica)->engine()->Get("k").ok()) ++holders;
  }
  EXPECT_GE(holders, 2);
}

TEST(RouterTest, AllAckReachesEveryReplica) {
  TestCluster tc(3, 3);
  ASSERT_TRUE(tc.PutSync("k", "v", AckMode::kAll).ok());
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  for (NodeId replica : p.replicas) {
    EXPECT_TRUE(tc.cluster.GetNode(replica)->engine()->Get("k").ok());
  }
}

TEST(RouterTest, WriteTimesOutWhenPrimaryDown) {
  TestCluster tc(2, 2);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  tc.network.SetPartitionGroup(p.primary(), 42);  // isolate primary
  Status status = tc.PutSync("k", "v");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(tc.router->window().writes_failed, 1);
}

TEST(RouterTest, ReadFailsOverToSecondaryWhenPrimaryDown) {
  TestCluster tc(2, 2);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  tc.loop.RunFor(kSecond);  // replicate
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  tc.network.SetPartitionGroup(p.primary(), 42);
  RouterConfig* cfg = tc.router->mutable_config();
  cfg->read_target = ReadTarget::kPrimary;  // force first attempt at primary
  cfg->read_retries = 1;
  auto got = tc.GetSync("k", /*pin_primary=*/false);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v");
}

TEST(RouterTest, PinnedPrimaryReadFailsWhenPrimaryDown) {
  TestCluster tc(2, 2);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  tc.loop.RunFor(kSecond);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  tc.network.SetPartitionGroup(p.primary(), 42);
  auto got = tc.GetSync("k", /*pin_primary=*/true);
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
}

TEST(RouterTest, LastWriteWinsAcrossOverwrites) {
  TestCluster tc(3, 3);
  ASSERT_TRUE(tc.PutSync("k", "v1").ok());
  tc.loop.RunFor(100 * kMillisecond);
  ASSERT_TRUE(tc.PutSync("k", "v2").ok());
  tc.loop.RunFor(kSecond);
  for (const auto& node : tc.nodes) {
    auto got = node->engine()->Get("k");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->value, "v2") << "node " << node->id();
  }
}

TEST(RouterTest, ScanWithinPartition) {
  TestCluster tc(2, 1);
  ASSERT_TRUE(tc.PutSync("row:a", "1").ok());
  ASSERT_TRUE(tc.PutSync("row:b", "2").ok());
  ASSERT_TRUE(tc.PutSync("row:c", "3").ok());
  tc.loop.RunFor(kSecond);
  Result<std::vector<Record>> rows(InternalError("pending"));
  bool done = false;
  tc.router->Scan("row:a", "row:c", 0, RequestOptions{}, [&](Result<std::vector<Record>> r) {
    rows = std::move(r);
    done = true;
  });
  tc.loop.RunFor(kSecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].key, "row:a");
  EXPECT_EQ((*rows)[1].key, "row:b");
}

TEST(RouterTest, ConditionalPutEnforcesVersionCheck) {
  TestCluster tc(2, 2);
  // Create: expect-absent succeeds once.
  Status created = InternalError("pending");
  tc.router->ConditionalPut("cas", "v1", std::nullopt, AckMode::kPrimary, RequestOptions{},
                            [&](Status s) { created = std::move(s); });
  tc.loop.RunFor(kSecond);
  ASSERT_TRUE(created.ok());

  // Second expect-absent aborts.
  Status conflict = InternalError("pending");
  tc.router->ConditionalPut("cas", "v2", std::nullopt, AckMode::kPrimary, RequestOptions{},
                            [&](Status s) { conflict = std::move(s); });
  tc.loop.RunFor(kSecond);
  EXPECT_EQ(conflict.code(), StatusCode::kAborted);

  // Read-modify-write with the right version succeeds.
  auto current = tc.GetSync("cas", /*pin_primary=*/true);
  ASSERT_TRUE(current.ok());
  Status updated = InternalError("pending");
  tc.router->ConditionalPut("cas", "v2", current->version, AckMode::kPrimary, RequestOptions{},
                            [&](Status s) { updated = std::move(s); });
  tc.loop.RunFor(kSecond);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(tc.GetSync("cas", true)->value, "v2");

  // Stale version now aborts.
  Status stale = InternalError("pending");
  tc.router->ConditionalPut("cas", "v3", current->version, AckMode::kPrimary, RequestOptions{},
                            [&](Status s) { stale = std::move(s); });
  tc.loop.RunFor(kSecond);
  EXPECT_EQ(stale.code(), StatusCode::kAborted);
}

TEST(RouterTest, DeletePropagates) {
  TestCluster tc(3, 3);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  tc.loop.RunFor(kSecond);
  Status deleted = InternalError("pending");
  tc.router->Delete("k", AckMode::kPrimary, RequestOptions{}, [&](Status s) { deleted = std::move(s); });
  tc.loop.RunFor(kSecond);
  ASSERT_TRUE(deleted.ok());
  for (const auto& node : tc.nodes) {
    EXPECT_EQ(node->engine()->Get("k").status().code(), StatusCode::kNotFound);
  }
}

// --------------------------------------------- per-op failure contract --
//
// Every Router op against a dead target: the status it surfaces, exactly-
// once callback delivery, per-logical-op window accounting, and which ops
// feed the circuit breaker. Each case runs on a fresh one-node cluster whose
// only node ignores every request, so every attempt ends in its timeout.

enum class RouterOp { kGet, kMultiGet, kScan, kPut, kMultiWrite, kConditionalPut };

struct FailureContractCase {
  const char* name;
  RouterOp op;
  bool read;
  /// Logical ops one call carries (the batched ops issue two keys).
  int64_t logical_ops;
  /// The kUnavailable message at the full request_timeout.
  const char* timeout_message;
  /// Do this op's timeouts count against the target's breaker?
  bool feeds_breaker;
};

const FailureContractCase kFailureContractCases[] = {
    {"Get", RouterOp::kGet, true, 1, "all replicas unreachable", true},
    {"MultiGet", RouterOp::kMultiGet, true, 2, "all replicas unreachable", true},
    {"Scan", RouterOp::kScan, true, 1, "scan timeout", false},
    {"Put", RouterOp::kPut, false, 1, "write timeout", false},
    {"MultiWrite", RouterOp::kMultiWrite, false, 2, "write timeout", false},
    {"ConditionalPut", RouterOp::kConditionalPut, false, 1, "write timeout", false},
};

struct OpOutcome {
  int calls = 0;
  std::vector<Status> statuses;  ///< One per logical op, from the last call.
};

/// Issues one `op` call and pumps the loop until its callback has fired.
/// The returned outcome keeps counting callbacks as the loop runs on.
std::shared_ptr<OpOutcome> RunOp(TestCluster& tc, RouterOp op, RequestOptions options) {
  auto outcome = std::make_shared<OpOutcome>();
  auto done = [outcome](std::vector<Status> statuses) {
    ++outcome->calls;
    outcome->statuses = std::move(statuses);
  };
  Router* router = tc.router.get();
  switch (op) {
    case RouterOp::kGet:
      router->Get("a", options, [done](Result<Record> r) { done({r.status()}); });
      break;
    case RouterOp::kMultiGet:
      router->MultiGet({"a", "b"}, options, [done](std::vector<Result<Record>> results) {
        std::vector<Status> statuses;
        for (const Result<Record>& r : results) statuses.push_back(r.status());
        done(std::move(statuses));
      });
      break;
    case RouterOp::kScan:
      router->Scan("a", "z", 0, options,
                   [done](Result<std::vector<Record>> r) { done({r.status()}); });
      break;
    case RouterOp::kPut:
      router->Put("a", "v", AckMode::kPrimary, options, [done](Status s) { done({s}); });
      break;
    case RouterOp::kMultiWrite: {
      std::vector<Router::WriteOp> ops(2);
      ops[0].key = "a";
      ops[0].value = "v";
      ops[1].key = "b";
      ops[1].value = "w";
      router->MultiWrite(std::move(ops), AckMode::kPrimary, options,
                         [done](std::vector<Status> statuses) { done(std::move(statuses)); });
      break;
    }
    case RouterOp::kConditionalPut:
      router->ConditionalPut("a", "v", std::nullopt, AckMode::kPrimary, options,
                             [done](Status s) { done({s}); });
      break;
  }
  for (int i = 0; i < 1000000 && outcome->calls == 0; ++i) {
    if (!tc.loop.RunOne()) tc.loop.RunFor(kMillisecond);
  }
  EXPECT_EQ(outcome->calls, 1);
  return outcome;
}

class FailureContractTest : public testing::TestWithParam<FailureContractCase> {
 protected:
  FailureContractTest() : tc_(1, 1) { tc_.nodes[0]->set_alive(false); }

  int64_t Failed() const {
    const RouterWindow& w = tc_.router->window();
    return GetParam().read ? w.reads_failed : w.writes_failed;
  }
  int64_t Ok() const {
    const RouterWindow& w = tc_.router->window();
    return GetParam().read ? w.reads_ok : w.writes_ok;
  }

  TestCluster tc_;
};

TEST_P(FailureContractTest, FullTimeoutIsUnavailable) {
  const FailureContractCase& c = GetParam();
  auto outcome = RunOp(tc_, c.op, RequestOptions{});
  ASSERT_EQ(outcome->statuses.size(), static_cast<size_t>(c.logical_ops));
  for (const Status& status : outcome->statuses) {
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.message();
    EXPECT_EQ(status.message(), c.timeout_message);
  }
  EXPECT_EQ(Failed(), c.logical_ops);
  EXPECT_EQ(Ok(), 0);
  EXPECT_EQ(tc_.router->window().deadline_exceeded, 0);
  // No late second delivery once the timeout chain has fully drained.
  tc_.loop.RunFor(4 * tc_.router->config().request_timeout);
  EXPECT_EQ(outcome->calls, 1);
}

TEST_P(FailureContractTest, BudgetBelowTimeoutIsDeadlineExceeded) {
  const FailureContractCase& c = GetParam();
  RequestOptions options;
  options.deadline = tc_.router->config().request_timeout / 2;
  auto outcome = RunOp(tc_, c.op, options);
  ASSERT_EQ(outcome->statuses.size(), static_cast<size_t>(c.logical_ops));
  for (const Status& status : outcome->statuses) {
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.message();
  }
  EXPECT_EQ(Failed(), c.logical_ops);
  EXPECT_EQ(tc_.router->window().deadline_exceeded, c.logical_ops);
  tc_.loop.RunFor(4 * tc_.router->config().request_timeout);
  EXPECT_EQ(outcome->calls, 1);
}

TEST_P(FailureContractTest, OnlyReadTimeoutsOpenTheBreaker) {
  const FailureContractCase& c = GetParam();
  const int threshold = tc_.router->breaker()->config().failure_threshold;
  for (int i = 0; i < threshold; ++i) RunOp(tc_, c.op, RequestOptions{});
  EXPECT_EQ(Failed(), threshold * c.logical_ops);
  // Checked at the instant the last timeout fired, inside the open backoff.
  EXPECT_EQ(tc_.router->breaker()->Healthy(0), !c.feeds_breaker);
}

INSTANTIATE_TEST_SUITE_P(RouterOps, FailureContractTest,
                         testing::ValuesIn(kFailureContractCases),
                         [](const testing::TestParamInfo<FailureContractCase>& info) {
                           return std::string(info.param.name);
                         });

// ------------------------------------------------------------ Node model --

TEST(NodeModelTest, LatencyGrowsWithQueueDepth) {
  TestCluster tc(1, 1);
  StorageNode* node = tc.nodes[0].get();
  // Saturate: submit a burst far above per-request service time.
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    node->HandleGet("k", RequestPriority::kNormal, [&](PointReadReply) { ++completed; });
  }
  // Queue delay should now be ~100 * service_time.
  EXPECT_GE(node->queue_delay(), 99 * node->config().get_service_time);
  tc.loop.RunFor(kSecond);
  EXPECT_EQ(completed, 100);
  // p99 sojourn near the tail of the burst, far above a single service time.
  EXPECT_GT(node->sojourn_histogram().ValueAtQuantile(0.99),
            50 * node->config().get_service_time);
}

TEST(NodeModelTest, OverloadShedsRequests) {
  NodeConfig config;
  config.max_queue_delay = 10 * config.get_service_time;
  TestCluster tc(1, 1, config);
  StorageNode* node = tc.nodes[0].get();
  int shed = 0, served = 0;
  for (int i = 0; i < 1000; ++i) {
    node->HandleGet("k", RequestPriority::kNormal, [&](PointReadReply reply) {
      if (reply.result.status().code() == StatusCode::kResourceExhausted) {
        ++shed;
      } else {
        ++served;
      }
    });
  }
  tc.loop.RunFor(kSecond);
  EXPECT_GT(shed, 0);
  EXPECT_GT(served, 0);
  EXPECT_EQ(shed + served, 1000);
  EXPECT_EQ(node->stats().ops_shed, shed);
}

TEST(NodeModelTest, DeadNodeIgnoresRequests) {
  TestCluster tc(1, 1);
  StorageNode* node = tc.nodes[0].get();
  node->set_alive(false);
  bool called = false;
  node->HandleGet("k", RequestPriority::kNormal, [&](PointReadReply) { called = true; });
  tc.loop.RunFor(kSecond);
  EXPECT_FALSE(called);
}

// ------------------------------------------------------ Node serve contract --
//
// Every client handler follows one protocol: admit, serve once the modelled
// sojourn has elapsed, reply once. Each case drives one handler directly on
// a one-node cluster and checks the reply count, the shape of a shed reply,
// and the node's counters.

enum class NodeOp { kGet, kMultiGet, kScan, kWrite, kMultiWrite, kConditionalPut };

struct NodeServeCase {
  const char* name;
  NodeOp op;
  /// Items one call carries: keys of a MultiGet, records of a MultiWrite.
  /// A shed reply has one status per item; a served call completes this
  /// many ops.
  int64_t items;
};

const NodeServeCase kNodeServeCases[] = {
    {"Get", NodeOp::kGet, 1},
    {"MultiGet", NodeOp::kMultiGet, 3},
    {"Scan", NodeOp::kScan, 1},
    {"Write", NodeOp::kWrite, 1},
    {"MultiWrite", NodeOp::kMultiWrite, 2},
    {"ConditionalPut", NodeOp::kConditionalPut, 1},
};

struct ServeOutcome {
  int calls = 0;
  std::vector<Status> statuses;  ///< One per item, from the last reply.
  std::vector<Time> as_of;       ///< MultiGet only.

  void Take(const Status& s) { statuses = {s}; }
  void Take(const std::vector<Status>& s) { statuses = s; }
  void Take(const Result<Record>& r) { statuses = {r.status()}; }
  void Take(const Result<std::vector<Record>>& r) { statuses = {r.status()}; }
  void Take(const PointReadReply& reply) { Take(reply.result); }
  void Take(const MultiGetReply& reply) {
    statuses.clear();
    for (const Result<Record>& r : reply.results) statuses.push_back(r.status());
    as_of = reply.as_of;
  }
};

/// Calls `op`'s handler on `node` once; the outcome counts its replies.
std::shared_ptr<ServeOutcome> CallHandler(TestCluster& tc, StorageNode* node, NodeOp op,
                                          RequestPriority priority) {
  auto outcome = std::make_shared<ServeOutcome>();
  auto reply = [outcome](auto r) {
    ++outcome->calls;
    outcome->Take(r);
  };
  const PartitionId pid = tc.cluster.partitions()->ForKey("a").id;
  WalRecord put;
  put.key = "a";
  put.value = "v";
  put.version = Version{tc.loop.Now() + 1, kClient};
  switch (op) {
    case NodeOp::kGet:
      node->HandleGet("a", priority, reply);
      break;
    case NodeOp::kMultiGet:
      node->HandleMultiGet({"a", "b", "c"}, priority, reply);
      break;
    case NodeOp::kScan:
      node->HandleScan("a", "z", 0, priority, reply);
      break;
    case NodeOp::kWrite:
      node->HandleWrite(pid, put, AckMode::kPrimary, priority, reply);
      break;
    case NodeOp::kMultiWrite: {
      WalRecord second = put;
      second.key = "b";
      node->HandleMultiWrite({MultiWriteItem{pid, put}, MultiWriteItem{pid, second}},
                             AckMode::kPrimary, priority, reply);
      break;
    }
    case NodeOp::kConditionalPut:
      node->HandleConditionalPut(pid, "a", "v", std::nullopt, put.version, AckMode::kPrimary,
                                 priority, reply);
      break;
  }
  return outcome;
}

class NodeServeContractTest : public testing::TestWithParam<NodeServeCase> {
 protected:
  NodeServeContractTest() : tc_(1, 1), node_(tc_.nodes[0].get()) {}

  TestCluster tc_;
  StorageNode* node_;
};

TEST_P(NodeServeContractTest, IdleNodeRepliesOnceAndCountsItsItems) {
  const NodeServeCase& c = GetParam();
  auto outcome = CallHandler(tc_, node_, c.op, RequestPriority::kNormal);
  tc_.loop.RunFor(kSecond);
  EXPECT_EQ(outcome->calls, 1);
  EXPECT_EQ(node_->stats().ops_completed, c.items);
}

TEST_P(NodeServeContractTest, SaturatedNodeShedsLowPriorityInItsOwnShape) {
  const NodeServeCase& c = GetParam();
  node_->SetBackgroundLoad(1.0, 0);
  auto outcome = CallHandler(tc_, node_, c.op, RequestPriority::kLow);
  tc_.loop.RunFor(kSecond);
  EXPECT_EQ(outcome->calls, 1);
  ASSERT_EQ(outcome->statuses.size(),
            static_cast<size_t>(c.op == NodeOp::kMultiGet || c.op == NodeOp::kMultiWrite
                                    ? c.items
                                    : 1));
  for (const Status& status : outcome->statuses) {
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status.message();
  }
  if (c.op == NodeOp::kMultiGet) {
    EXPECT_EQ(outcome->as_of, std::vector<Time>(static_cast<size_t>(c.items), 0));
  }
  EXPECT_EQ(node_->stats().shed_by_priority[static_cast<int>(RequestPriority::kLow)], 1);
  EXPECT_EQ(node_->stats().ops_completed, 0);
}

TEST_P(NodeServeContractTest, DeadNodeNeverReplies) {
  node_->set_alive(false);
  auto outcome = CallHandler(tc_, node_, GetParam().op, RequestPriority::kNormal);
  tc_.loop.RunFor(kSecond);
  EXPECT_EQ(outcome->calls, 0);
}

TEST_P(NodeServeContractTest, NodeKilledDuringServiceNeverReplies) {
  auto outcome = CallHandler(tc_, node_, GetParam().op, RequestPriority::kNormal);
  // Admitted (the simulator always posts the modelled service), not served.
  EXPECT_EQ(node_->stats().admitted_by_priority[static_cast<int>(RequestPriority::kNormal)], 1);
  node_->set_alive(false);
  tc_.loop.RunFor(kSecond);
  EXPECT_EQ(outcome->calls, 0);
  EXPECT_EQ(node_->stats().ops_completed, 0);
}

INSTANTIATE_TEST_SUITE_P(ClientHandlers, NodeServeContractTest,
                         testing::ValuesIn(kNodeServeCases),
                         [](const testing::TestParamInfo<NodeServeCase>& info) {
                           return std::string(info.param.name);
                         });

// A point read carries the serving replica's watermark as of the reply: a
// primary is current ("now"), a secondary its replicated_through.
TEST(NodeServeContractTest, GetReplyCarriesServeTimeWatermark) {
  TestCluster tc(2, 2);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  tc.loop.RunFor(2 * kSecond);  // heartbeats give the secondary a watermark
  for (NodeId id : p.replicas) {
    StorageNode* node = tc.cluster.GetNode(id);
    Time as_of = -1;
    Time replied_at = -1;
    Time watermark = -1;
    node->HandleGet("k", RequestPriority::kNormal, [&](PointReadReply reply) {
      as_of = reply.as_of;
      replied_at = tc.loop.Now();
      watermark = node->replicated_through(p.id);
    });
    tc.loop.RunFor(kSecond);
    EXPECT_GT(as_of, 0) << "node " << id;
    EXPECT_EQ(as_of, id == p.primary() ? replied_at : watermark) << "node " << id;
  }
}

// ------------------------------------------------------------ Replication --

TEST(ReplicationTest, WatermarkAdvancesOnSecondaries) {
  TestCluster tc(2, 2);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  NodeId secondary_id = p.replicas[1];
  StorageNode* secondary = tc.cluster.GetNode(secondary_id);
  PartitionId pid = p.id;
  EXPECT_EQ(secondary->replicated_through(pid), 0);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  tc.loop.RunFor(2 * kSecond);
  EXPECT_GT(secondary->replicated_through(pid), 0);
}

TEST(ReplicationTest, HeartbeatAdvancesWatermarkWithoutWrites) {
  TestCluster tc(2, 2);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  StorageNode* secondary = tc.cluster.GetNode(p.replicas[1]);
  tc.loop.RunFor(5 * kSecond);
  Time w1 = secondary->replicated_through(p.id);
  EXPECT_GT(w1, 0);
  tc.loop.RunFor(5 * kSecond);
  EXPECT_GT(secondary->replicated_through(p.id), w1);
}

TEST(ReplicationTest, PrimaryReportsNowAsWatermark) {
  TestCluster tc(2, 2);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  StorageNode* primary = tc.cluster.GetNode(p.primary());
  tc.loop.RunFor(kSecond);
  EXPECT_EQ(primary->replicated_through(p.id), tc.loop.Now());
}

TEST(ReplicationTest, PartitionHealsAndCatchesUp) {
  TestCluster tc(2, 2);
  const PartitionInfo& p = tc.cluster.partitions()->ForKey("k");
  NodeId secondary_id = p.replicas[1];
  // Cut the secondary off, write, confirm it lags.
  tc.network.SetPartitionGroup(secondary_id, 9);
  ASSERT_TRUE(tc.PutSync("k", "v").ok());
  tc.loop.RunFor(2 * kSecond);
  StorageNode* secondary = tc.cluster.GetNode(secondary_id);
  EXPECT_FALSE(secondary->engine()->Get("k").ok());
  // Heal; retransmission must deliver the write.
  tc.network.Heal();
  tc.loop.RunFor(5 * kSecond);
  EXPECT_TRUE(secondary->engine()->Get("k").ok());
  StorageNode* primary = tc.cluster.GetNode(p.primary());
  EXPECT_GT(primary->stats().retransmits, 0);
}

TEST(ReplicationTest, ManyWritesAllConverge) {
  TestCluster tc(3, 3);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tc.PutSync("key:" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  tc.loop.RunFor(5 * kSecond);
  for (const auto& node : tc.nodes) {
    EXPECT_EQ(node->engine()->live_count(), 50u) << "node " << node->id();
  }
}

// ------------------------------------------------------------- Rebalancer --

TEST(RebalancerTest, MoveReplicaTransfersDataAndOwnership) {
  TestCluster tc(3, 1);
  // All keys to one partition map with 3 nodes; partition 0 primary = node 0.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tc.PutSync("k" + std::to_string(i), "v").ok());
  }
  tc.loop.RunFor(kSecond);
  Rebalancer rebalancer(&tc.loop, &tc.network, &tc.cluster);
  const PartitionInfo& p = tc.cluster.partitions()->partitions()[0];
  NodeId old_primary = p.primary();
  NodeId target = (old_primary + 1) % 3;
  // The single-replica partition moves entirely.
  Status moved = InternalError("pending");
  rebalancer.MoveReplica(p.id, old_primary, target, [&](Status s) { moved = std::move(s); });
  EXPECT_TRUE(rebalancer.IsMoving(p.id));
  tc.loop.RunFor(10 * kSecond);
  ASSERT_TRUE(moved.ok());
  EXPECT_FALSE(rebalancer.IsMoving(p.id));
  const PartitionInfo* after = tc.cluster.partitions()->Get(p.id);
  EXPECT_EQ(after->primary(), target);
  // Target must hold the data.
  StorageNode* new_primary = tc.cluster.GetNode(target);
  size_t live_on_target = new_primary->engine()->live_count();
  EXPECT_GE(live_on_target, 200u * 9 / 10);
  EXPECT_GT(rebalancer.records_streamed(), 0);
  // Reads still work after the move.
  auto got = tc.GetSync("k0");
  ASSERT_TRUE(got.ok());
}

TEST(RebalancerTest, MovePreconditionsChecked) {
  TestCluster tc(3, 2);
  Rebalancer rebalancer(&tc.loop, &tc.network, &tc.cluster);
  const PartitionInfo& p = tc.cluster.partitions()->partitions()[0];
  Status status = InternalError("pending");
  rebalancer.MoveReplica(999, 0, 1, [&](Status s) { status = std::move(s); });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  // to already a replica
  rebalancer.MoveReplica(p.id, p.replicas[0], p.replicas[1],
                         [&](Status s) { status = std::move(s); });
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(RebalancerTest, WritesDuringMoveAreNotLost) {
  TestCluster tc(2, 1);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tc.PutSync("pre" + std::to_string(i), "v").ok());
  }
  Rebalancer rebalancer(&tc.loop, &tc.network, &tc.cluster);
  const PartitionInfo& p = tc.cluster.partitions()->partitions()[0];
  NodeId source = p.primary();
  NodeId target = source == 0 ? 1 : 0;
  Status moved = InternalError("pending");
  rebalancer.MoveReplica(p.id, source, target, [&](Status s) { moved = std::move(s); });
  // Write while the stream is in flight.
  ASSERT_TRUE(tc.PutSync("during_move", "fresh").ok());
  tc.loop.RunFor(20 * kSecond);
  ASSERT_TRUE(moved.ok());
  auto got = tc.GetSync("during_move");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "fresh");
}

TEST(RebalancerTest, DrainNodeEmptiesIt) {
  TestCluster tc(3, 1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tc.PutSync("k" + std::to_string(i), "v").ok());
  }
  tc.loop.RunFor(kSecond);
  Rebalancer rebalancer(&tc.loop, &tc.network, &tc.cluster);
  Status drained = InternalError("pending");
  rebalancer.DrainNode(0, {1, 2}, [&](Status s) { drained = std::move(s); });
  tc.loop.RunFor(30 * kSecond);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(tc.cluster.partitions()->PartitionsOnNode(0).size(), 0u);
  // All data still reachable.
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(tc.GetSync("k" + std::to_string(i)).ok()) << i;
  }
}

// Parameterized: convergence must hold across replication factors.
class ConvergenceTest : public testing::TestWithParam<int> {};

TEST_P(ConvergenceTest, AllReplicasConvergeAfterMixedWorkload) {
  int rf = GetParam();
  TestCluster tc(4, rf);
  for (int i = 0; i < 30; ++i) {
    std::string key = "k" + std::to_string(i % 10);
    if (i % 7 == 3) {
      Status st = InternalError("pending");
      tc.router->Delete(key, AckMode::kPrimary, RequestOptions{}, [&](Status s) { st = std::move(s); });
      tc.loop.RunFor(kSecond);
      ASSERT_TRUE(st.ok());
    } else {
      ASSERT_TRUE(tc.PutSync(key, "v" + std::to_string(i)).ok());
    }
  }
  tc.loop.RunFor(10 * kSecond);
  // Every replica of each partition agrees with the primary.
  for (const auto& p : tc.cluster.partitions()->partitions()) {
    StorageNode* primary = tc.cluster.GetNode(p.primary());
    auto truth = primary->engine()->ScanRaw("", "", 0);
    for (NodeId replica : p.replicas) {
      if (replica == p.primary()) continue;
      StorageNode* node = tc.cluster.GetNode(replica);
      for (const Record& row : truth) {
        if (!p.Contains(row.key)) continue;
        auto copy = node->engine()->GetRaw(row.key);
        ASSERT_TRUE(copy.has_value()) << "rf=" << rf << " key=" << row.key;
        EXPECT_EQ(copy->version, row.version);
        EXPECT_EQ(copy->tombstone, row.tombstone);
        EXPECT_EQ(copy->value, row.value);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ReplicationFactors, ConvergenceTest, testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace scads
