// scads_perfbench: real-CPU closed-loop benchmark of the SCADS data plane.
//
// Builds 8 StorageNodes, one Router per client thread and (on the point
// workloads) one shared CacheDirectory on a 2-worker ThreadedRuntime, with
// every modelled delay set to 0 (all NodeConfig service times and the
// cache's hit_service_time), so every measured microsecond is real CPU or
// a real thread handoff. Two client threads run closed loops through the
// public ScadsClient surface (GetSync / PutSync / MultiGetSync): SCADS
// callers are app-server threads that block on each reply, so a closed
// loop at a fixed client count is the honest load model. 2 clients plus 2
// workers fit a 4-core machine without oversubscription.
//
// Usage:
//   scads_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <csv path>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics: it measures an untraced half-window (counters, and the tracing
// overhead baseline), then rebuilds the deployment on a TracingBackend and
// measures a traced half-window (span-derived timings), then replays the
// workload's tapes single-threaded against CacheDirectory::LookupPoint and a
// StorageEngine copy. Every result is checked; any wrong result makes the
// run exit 1. The last stdout line is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache_directory.h"
#include "cluster/cluster_state.h"
#include "cluster/node.h"
#include "cluster/partition.h"
#include "cluster/router.h"
#include "common/metrics.h"
#include "common/request_options.h"
#include "common/rng.h"
#include "core/scads_client.h"
#include "runtime/threaded_runtime.h"
#include "storage/engine.h"
#include "tracing_backend.h"

namespace scads::perfbench {
namespace {

constexpr int kNodes = 8;
constexpr int kPartitions = 64;
constexpr int kKeys = 100000;
constexpr size_t kValueBytes = 100;
constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kFeedFanout = 20;
constexpr size_t kCacheBytes = size_t{2} << 20;  // ~6x below the ~12 MB of records
constexpr size_t kPreloadBatch = 512;
constexpr int kSetupRepeats = 5;
/// The measured window is cut into this many slices and each end-to-end
/// figure is taken from its per-slice values at the better decile (see
/// Summarize).
constexpr int kSlices = 30;
constexpr int64_t kWarmupNs = 1'000'000'000;
constexpr size_t kTapeOps = size_t{1} << 19;

// NodeIds: storage nodes are 0..kNodes-1; client routers and helpers sit
// above them.
constexpr NodeId kClientBase = 100;
constexpr NodeId kLoaderId = 90;
constexpr NodeId kCheckerId = 91;
constexpr NodeId kProbeId = 92;

struct Workload {
  const char* name;
  int replication;
  int read_percent;
  double zipf_theta;  ///< 0 = uniform keys.
  bool feed;          ///< Reads are kFeedFanout-key MultiGets.
  AckMode write_ack;
  bool cache;
};

// Why each exists: point_uniform is the hop-dominated point path with a
// cache that mostly misses (the bypass workload for cache changes);
// point_zipf_cached serves most reads from the shared cache and its writes
// invalidate hot entries (the bypass for engine changes); feed_rf3 is
// bounded fan-out timelines with quorum-acked posts beside them (router
// sub-batching, node/engine MultiGet, replication streams and acks).
constexpr Workload kWorkloads[] = {
    {"point_uniform", 1, 90, 0.0, false, AckMode::kPrimary, true},
    {"point_zipf_cached", 1, 95, 0.99, false, AckMode::kPrimary, true},
    {"feed_rf3", 3, 80, 0.0, true, AckMode::kQuorum, false},
};

// ------------------------------------------------------------------ inputs

std::string KeyFor(uint32_t id) {
  // 2-byte spread prefix stripes keys across the uniform partition map.
  uint32_t h = id * 2654435761u;
  std::string key;
  key.push_back(static_cast<char>(h >> 24));
  key.push_back(static_cast<char>(h >> 16));
  return key + "/k" + std::to_string(id);
}

// Value layout: "k<6-digit key id>w<writer digit>s<12-digit sequence>"
// padded to kValueBytes. Writer 0 is the preload (sequence 0); writer c+1
// is client c, which writes only keys with id % kClients == c, so every
// key has exactly one writer and one last-acked value.
constexpr size_t kValueHeader = 1 + 6 + 1 + 1 + 1 + 12;

std::string EncodeValue(uint32_t key, int writer, uint64_t seq) {
  char head[kValueHeader + 1];
  std::snprintf(head, sizeof(head), "k%06uw%ds%012" PRIu64, key, writer, seq);
  std::string value(head, kValueHeader);
  value.resize(kValueBytes, '.');
  return value;
}

struct DecodedValue {
  uint32_t key = 0;
  int writer = -1;
  uint64_t seq = 0;
};

bool DecodeValue(const std::string& value, DecodedValue* out) {
  if (value.size() != kValueBytes || value[0] != 'k' || value[7] != 'w' || value[9] != 's') {
    return false;
  }
  auto digits = [&](size_t pos, size_t n, uint64_t* v) {
    *v = 0;
    for (size_t i = pos; i < pos + n; ++i) {
      if (value[i] < '0' || value[i] > '9') return false;
      *v = *v * 10 + static_cast<uint64_t>(value[i] - '0');
    }
    return true;
  };
  uint64_t key = 0, writer = 0;
  if (!digits(1, 6, &key) || !digits(8, 1, &writer) || !digits(10, 12, &out->seq)) return false;
  out->key = static_cast<uint32_t>(key);
  out->writer = static_cast<int>(writer);
  return true;
}

/// One client's pre-generated operations. Op i reads or writes
/// keys[begin, begin + count).
struct Op {
  uint32_t begin = 0;
  uint16_t count = 0;
  bool write = false;
};
struct Tape {
  std::vector<Op> ops;
  std::vector<uint32_t> keys;
};

Tape MakeTape(const Workload& w, uint64_t seed, int client) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL * (client + 1));
  auto draw = [&]() -> uint32_t {
    return static_cast<uint32_t>(w.zipf_theta > 0 ? rng.Zipf(kKeys, w.zipf_theta)
                                                   : rng.Uniform(kKeys));
  };
  Tape tape;
  tape.ops.reserve(kTapeOps);
  for (size_t i = 0; i < kTapeOps; ++i) {
    Op op;
    op.begin = static_cast<uint32_t>(tape.keys.size());
    op.write = static_cast<int>(rng.Uniform(100)) >= w.read_percent;
    if (op.write) {
      // Move the drawn key into this client's residue class (kKeys is a
      // multiple of kClients, so the result stays in range).
      uint32_t key = draw();
      tape.keys.push_back(key - key % kClients + static_cast<uint32_t>(client));
      op.count = 1;
    } else {
      op.count = w.feed ? kFeedFanout : 1;
      for (int k = 0; k < op.count; ++k) tape.keys.push_back(draw());
    }
    tape.ops.push_back(op);
  }
  return tape;
}

// --------------------------------------------------------------- helpers

/// Fixed-size log-linear latency histogram (128 sub-buckets per power of
/// two: under 0.8% relative error). Fixed memory keeps the benchmark's own
/// footprint out of rss_peak_mb and allocation out of the client loop.
class LatencyHistogram {
 public:
  void Record(int64_t ns) {
    ++counts_[Index(static_cast<uint64_t>(std::max<int64_t>(0, ns)))];
    ++total_;
  }
  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  int64_t count() const { return total_; }
  /// Nearest-rank quantile, as the midpoint of its bucket.
  double Quantile(double q) const {
    if (total_ == 0) return 0;
    int64_t rank = std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * total_)));
    int64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        int shift = i < 2 * kSub ? 0 : static_cast<int>(i / kSub) - 1;
        double low = static_cast<double>((i - static_cast<size_t>(shift) * kSub) << shift);
        return low + static_cast<double>((uint64_t{1} << shift) - 1) / 2.0;
      }
    }
    return 0;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static size_t Index(uint64_t v) {
    int msb = 63 - __builtin_clzll(v | 1);
    int shift = std::max(0, msb - kSubBits);
    return static_cast<size_t>(shift) * kSub + static_cast<size_t>(v >> shift);
  }
  std::vector<uint32_t> counts_ = std::vector<uint32_t>(64 * kSub, 0);
  int64_t total_ = 0;
};

/// Quantile q of `v` with linear interpolation between order statistics
/// (q = 0.5 is the median).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Usage {
  double cpu_us = 0;
  int64_t vcsw = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.vcsw = ru.ru_nvcsw;
  return u;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "scads_perfbench: %s\n", why.c_str());
  std::exit(1);
}

// ------------------------------------------------------------ deployment

/// Per-client write ledger: the last acked and the last attempted sequence
/// per owned key (a failed write may or may not have applied).
struct ClientState {
  std::vector<uint64_t> last_acked = std::vector<uint64_t>(kKeys, 0);
  std::vector<uint64_t> last_attempted = std::vector<uint64_t>(kKeys, 0);
  std::atomic<uint64_t> issued{0};  ///< Highest sequence handed out.
};

struct Deployment {
  explicit Deployment(const Workload& w, bool traced)
      : workload(w), runtime(ThreadedRuntime::Options{kWorkers}) {
    ExecutionBackend* backend = &runtime;
    if (traced) {
      tracer = std::make_unique<TracingBackend>(&runtime);
      backend = tracer.get();
    }
    NodeConfig config;
    config.get_service_time = 0;
    config.put_service_time = 0;
    config.scan_service_base = 0;
    config.scan_service_per_row = 0;
    config.replicate_service_per_record = 0;
    config.multiget_service_per_key = 0;
    config.multiwrite_service_per_record = 0;
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < kNodes; ++i) {
      runtime.RegisterDestination(i);
      auto node = std::make_unique<StorageNode>(i, backend, backend, &cluster, config,
                                                1000 + static_cast<uint64_t>(i));
      if (!cluster.AddNode(i, node.get()).ok()) Die("AddNode failed");
      node->Start();
      nodes.push_back(std::move(node));
      ids.push_back(i);
    }
    auto map = PartitionMap::CreateUniform(kPartitions, ids, w.replication);
    if (!map.ok()) Die("CreateUniform failed");
    cluster.set_partitions(std::move(map).value());

    if (w.cache) {
      CacheConfig cache_config;
      cache_config.enabled = true;
      cache_config.capacity_bytes = kCacheBytes;
      cache_config.write_mode = CacheWriteMode::kInvalidate;
      cache_config.cache_scan_results = false;
      cache_config.hit_service_time = 0;
      cache = std::make_unique<CacheDirectory>(cache_config, /*staleness_bound=*/0,
                                               &cache_metrics);
    }
    for (int c = 0; c < kClients; ++c) {
      routers.push_back(std::make_unique<Router>(kClientBase + c, backend, backend, &cluster,
                                                 RouterConfig{},
                                                 500 + static_cast<uint64_t>(c)));
      if (cache != nullptr) routers.back()->set_cache(cache.get());
      clients.push_back(std::make_unique<ClientState>());
    }
    loader = std::make_unique<Router>(kLoaderId, backend, backend, &cluster, RouterConfig{}, 17);
    checker = std::make_unique<Router>(kCheckerId, backend, backend, &cluster, RouterConfig{}, 19);
  }

  ~Deployment() { runtime.Shutdown(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Writes every key's preload value through Router::MultiWrite batches,
  /// acked by every replica.
  void Preload() {
    for (uint32_t first = 0; first < static_cast<uint32_t>(kKeys); first += kPreloadBatch) {
      std::vector<Router::WriteOp> ops;
      for (uint32_t k = first; k < std::min<uint32_t>(kKeys, first + kPreloadBatch); ++k) {
        Router::WriteOp op;
        op.key = KeyFor(k);
        op.value = EncodeValue(k, 0, 0);
        ops.push_back(std::move(op));
      }
      std::promise<std::vector<Status>> done;
      auto future = done.get_future();
      loader->MultiWrite(std::move(ops), AckMode::kAll, RequestOptions{},
                         [&done](std::vector<Status> statuses) {
                           done.set_value(std::move(statuses));
                         });
      for (const Status& s : future.get()) {
        if (!s.ok()) Die("preload write failed: " + std::string(s.message()));
      }
    }
  }

  /// Runs `fn(node)` on the node's owner worker (serialized with its
  /// handlers, so engine and stats reads are race-free) and returns the
  /// result.
  template <typename Fn>
  auto OnNode(NodeId id, Fn fn) -> decltype(fn(static_cast<StorageNode*>(nullptr))) {
    using R = decltype(fn(static_cast<StorageNode*>(nullptr)));
    std::promise<R> result;
    auto future = result.get_future();
    runtime.Send(kProbeId, id, [&] { result.set_value(fn(nodes[id].get())); });
    return future.get();
  }

  const Workload& workload;
  ThreadedRuntime runtime;
  std::unique_ptr<TracingBackend> tracer;
  ClusterState cluster;
  MetricRegistry cache_metrics;
  std::unique_ptr<CacheDirectory> cache;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::vector<std::unique_ptr<Router>> routers;
  std::vector<std::unique_ptr<ClientState>> clients;
  std::unique_ptr<Router> loader;
  std::unique_ptr<Router> checker;
};

// ---------------------------------------------------------------- window

/// One traced operation, as seen by its client thread.
struct OpTrace {
  uint64_t request = 0;
  int64_t start_ns = 0;    ///< Before the *Sync call.
  int64_t handoff_ns = 0;  ///< Last runtime handoff on the caller thread.
  int64_t resume_ns = 0;   ///< After the *Sync call returned.
};

struct Slice {
  LatencyHistogram read_ns;
  LatencyHistogram write_ns;
  double cpu_us = 0;
};

struct WindowResult {
  std::vector<Slice> slices = std::vector<Slice>(kSlices);
  double slice_s = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;  ///< Inside the window.
  int64_t ops = 0;
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t vcsw = 0;         ///< Voluntary context switches over the window.
  double rss_peak_mb = 0;   ///< Peak RSS at the start of the window.
  int64_t tasks = 0;        ///< ThreadedRuntime::tasks_executed delta.
  int64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0, cache_invalidations = 0;
  int64_t router_failed = 0, router_deadline_exceeded = 0;
  NodeStats node_delta;     ///< Summed over nodes.
  std::vector<OpTrace> traces;
};

NodeStats SumNodeStats(Deployment& dep) {
  NodeStats sum;
  for (NodeId i = 0; i < kNodes; ++i) {
    NodeStats s = dep.OnNode(i, [](StorageNode* n) { return n->stats(); });
    sum.ops_shed += s.ops_shed;
    sum.records_replicated_out += s.records_replicated_out;
    sum.retransmits += s.retransmits;
    for (int p = 0; p < 3; ++p) sum.admitted_by_priority[p] += s.admitted_by_priority[p];
  }
  return sum;
}

bool ValuePlausible(const Deployment& dep, uint32_t key, const std::string& value) {
  DecodedValue d;
  if (!DecodeValue(value, &d) || d.key != key) return false;
  if (d.writer == 0) return d.seq == 0;
  int owner = static_cast<int>(key % kClients);
  return d.writer == owner + 1 &&
         d.seq <= dep.clients[owner]->issued.load(std::memory_order_acquire);
}

/// Runs both clients' closed loops: kWarmupNs unrecorded, then `window_ns`
/// recorded. Wrong results anywhere (warm-up included) are added to
/// `*wrong_total`.
WindowResult RunWindow(Deployment& dep, const std::vector<Tape>& tapes, int64_t window_ns,
                       int64_t* wrong_total) {
  const Workload& w = dep.workload;
  const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    k.reserve(kKeys);
    for (uint32_t i = 0; i < static_cast<uint32_t>(kKeys); ++i) k.push_back(KeyFor(i));
    return k;
  }();
  const int64_t slice_ns = window_ns / kSlices;
  std::atomic<int64_t> window_begin{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> next_request{1};
  std::atomic<int64_t> wrong_all{0};
  std::vector<WindowResult> per_client(kClients);

  auto client_loop = [&](int c) {
    ScadsClient client(dep.routers[c].get());
    ClientState& state = *dep.clients[c];
    const Tape& tape = tapes[c];
    WindowResult& out = per_client[c];
    if (dep.tracer != nullptr) out.traces.reserve(size_t{1} << 20);
    std::vector<std::string> feed_keys;
    size_t cursor = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Op& op = tape.ops[cursor];
      cursor = (cursor + 1) % tape.ops.size();
      const uint32_t* op_keys = tape.keys.data() + op.begin;
      int64_t begin = window_begin.load(std::memory_order_acquire);
      int64_t t0 = NowNs();
      bool in_window = begin != 0 && t0 >= begin && t0 < begin + window_ns;
      uint64_t request = 0;
      if (dep.tracer != nullptr && in_window) {
        request = next_request.fetch_add(1, std::memory_order_relaxed);
        TracingBackend::SetCurrentRequest(request);
      }
      bool failed = false;
      int64_t wrong = 0;
      if (op.write) {
        uint32_t key = op_keys[0];
        uint64_t seq = state.issued.fetch_add(1, std::memory_order_acq_rel) + 1;
        state.last_attempted[key] = seq;
        Status s = client.PutSync(keys[key], EncodeValue(key, c + 1, seq), w.write_ack);
        if (s.ok()) {
          state.last_acked[key] = seq;
        } else {
          failed = true;
        }
      } else if (w.feed) {
        feed_keys.clear();
        for (int k = 0; k < op.count; ++k) feed_keys.push_back(keys[op_keys[k]]);
        std::vector<Result<Record>> results = client.MultiGetSync(feed_keys);
        if (results.size() != feed_keys.size()) {
          wrong = 1;
        } else {
          for (int k = 0; k < op.count; ++k) {
            if (results[k].ok()) {
              if (!ValuePlausible(dep, op_keys[k], results[k]->value)) wrong = 1;
            } else if (IsNotFound(results[k].status())) {
              wrong = 1;  // every key was preloaded
            } else {
              failed = true;
            }
          }
        }
      } else {
        Result<Record> r = client.GetSync(keys[op_keys[0]]);
        if (r.ok()) {
          if (!ValuePlausible(dep, op_keys[0], r->value)) wrong = 1;
        } else if (IsNotFound(r.status())) {
          wrong = 1;
        } else {
          failed = true;
        }
      }
      int64_t t1 = NowNs();
      if (request != 0) {
        out.traces.push_back(OpTrace{request, t0, TracingBackend::LastHandoffNs(), t1});
        TracingBackend::SetCurrentRequest(0);
      }
      if (wrong != 0) wrong_all.fetch_add(1, std::memory_order_relaxed);
      if (!in_window || t1 >= begin + window_ns) continue;
      ++out.attempted;
      if (wrong != 0) {
        ++out.wrong;
      } else if (failed) {
        ++out.failed;
      } else {
        Slice& slice = out.slices[std::min<int64_t>(kSlices - 1, (t1 - begin) / slice_ns)];
        (op.write ? slice.write_ns : slice.read_ns).Record(t1 - t0);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  std::this_thread::sleep_for(std::chrono::nanoseconds(kWarmupNs));

  auto cache_counter = [&](const char* name) { return dep.cache_metrics.CounterValue(name); };
  for (auto& router : dep.routers) router->TakeWindow();
  WindowResult result;
  NodeStats nodes_before = SumNodeStats(dep);
  int64_t hits0 = cache_counter("cache.point.hits"), misses0 = cache_counter("cache.point.misses");
  int64_t evict0 = cache_counter("cache.point.evictions");
  int64_t inval0 = cache_counter("cache.point.invalidations");
  int64_t tasks0 = dep.runtime.tasks_executed();
  // Peak RSS once the deployment is built, preloaded and warm. Taken here
  // rather than at exit because an engine's arena never reclaims an
  // overwritten value, so memory then grows with the number of writes the
  // window managed, i.e. with throughput; engine.mem_bytes_per_user_byte
  // reports that growth.
  result.rss_peak_mb = PeakRssMb();
  if (dep.tracer != nullptr) dep.tracer->set_recording(true);
  Usage start_usage = ProcessUsage();
  int64_t begin = NowNs();
  window_begin.store(begin, std::memory_order_release);
  Usage prev = start_usage;
  for (int s = 0; s < kSlices; ++s) {
    auto until = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(begin + (s + 1) * slice_ns));
    std::this_thread::sleep_until(until);
    Usage now = ProcessUsage();
    result.slices[s].cpu_us = now.cpu_us - prev.cpu_us;
    prev = now;
  }
  if (dep.tracer != nullptr) dep.tracer->set_recording(false);
  result.vcsw = prev.vcsw - start_usage.vcsw;
  result.tasks = dep.runtime.tasks_executed() - tasks0;
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  result.cache_hits = cache_counter("cache.point.hits") - hits0;
  result.cache_misses = cache_counter("cache.point.misses") - misses0;
  result.cache_evictions = cache_counter("cache.point.evictions") - evict0;
  result.cache_invalidations = cache_counter("cache.point.invalidations") - inval0;
  for (auto& router : dep.routers) {
    RouterWindow rw = router->TakeWindow();
    result.router_failed += rw.reads_failed + rw.writes_failed;
    result.router_deadline_exceeded += rw.deadline_exceeded;
  }
  NodeStats nodes_after = SumNodeStats(dep);
  result.node_delta.ops_shed = nodes_after.ops_shed - nodes_before.ops_shed;
  result.node_delta.records_replicated_out =
      nodes_after.records_replicated_out - nodes_before.records_replicated_out;
  result.node_delta.retransmits = nodes_after.retransmits - nodes_before.retransmits;
  for (int p = 0; p < 3; ++p) {
    result.node_delta.admitted_by_priority[p] =
        nodes_after.admitted_by_priority[p] - nodes_before.admitted_by_priority[p];
  }

  result.slice_s = static_cast<double>(slice_ns) / 1e9;
  for (WindowResult& c : per_client) {
    result.attempted += c.attempted;
    result.failed += c.failed;
    result.wrong += c.wrong;
    for (int s = 0; s < kSlices; ++s) {
      auto& dst = result.slices[s];
      dst.read_ns.Merge(c.slices[s].read_ns);
      dst.write_ns.Merge(c.slices[s].write_ns);
    }
    result.traces.insert(result.traces.end(), c.traces.begin(), c.traces.end());
  }
  for (const Slice& s : result.slices) {
    result.reads += s.read_ns.count();
    result.writes += s.write_ns.count();
  }
  result.ops = result.reads + result.writes;
  *wrong_total += wrong_all.load();
  return result;
}

/// Headline figures of one window. On a shared virtual machine the
/// hypervisor takes vCPUs away for milliseconds at a time (steal reaches
/// 20% for seconds), and while it does every cross-thread handoff waits
/// for a descheduled vCPU: a slice's throughput can drop 3x and its p99
/// grow 10x for reasons outside the program. Each figure is therefore the
/// better decile of its per-slice values (the 90th percentile of slice
/// throughput, the 10th percentile of slice latencies and CPU cost: about
/// the third best of 30 slices), which tracks the program's own speed as
/// long as a tenth of the window runs undisturbed. A slower program is
/// slower in every slice, so it still moves these figures.
struct EndToEnd {
  double ops_per_s = 0, read_p50_us = 0, read_p99_us = 0, write_p50_us = 0, write_p99_us = 0;
  double cpu_us_per_op = 0;
};

EndToEnd Summarize(WindowResult& r) {
  std::vector<double> ops, rp50, rp99, wp50, wp99, cpu;
  for (Slice& s : r.slices) {
    double n = static_cast<double>(s.read_ns.count() + s.write_ns.count());
    ops.push_back(n / r.slice_s);
    cpu.push_back(Ratio(s.cpu_us, n));
    rp50.push_back(s.read_ns.Quantile(0.50) / 1e3);
    rp99.push_back(s.read_ns.Quantile(0.99) / 1e3);
    wp50.push_back(s.write_ns.Quantile(0.50) / 1e3);
    wp99.push_back(s.write_ns.Quantile(0.99) / 1e3);
  }
  std::printf("per-slice [ops/s read_p50 read_p99 write_p50 write_p99 cpu/op]:");
  for (size_t i = 0; i < ops.size(); ++i) {
    std::printf(" [%.0f %.2f %.2f %.2f %.2f %.2f]", ops[i], rp50[i], rp99[i], wp50[i], wp99[i],
                cpu[i]);
  }
  std::printf("\n");
  EndToEnd e;
  e.ops_per_s = Quantile(ops, 0.9);
  e.read_p50_us = Quantile(rp50, 0.1);
  e.read_p99_us = Quantile(rp99, 0.1);
  e.write_p50_us = Quantile(wp50, 0.1);
  e.write_p99_us = Quantile(wp99, 0.1);
  e.cpu_us_per_op = Quantile(cpu, 0.1);
  return e;
}

// ----------------------------------------------------------------- checks

/// After quiesce: every key reads back (primary-pinned, past any cache)
/// exactly its last acked value, or the preload value if never written; a
/// key whose last write failed may also hold that unacked value. With
/// replication, every replica's engine must converge to the primary's value
/// once the streams drain.
bool FinalCheck(Deployment& dep, std::string* why) {
  ScadsClient checker(dep.checker.get());
  std::vector<std::string> values(kKeys);
  constexpr uint32_t kChunk = 250;
  for (uint32_t first = 0; first < static_cast<uint32_t>(kKeys); first += kChunk) {
    std::vector<std::string> chunk;
    for (uint32_t k = first; k < first + kChunk; ++k) chunk.push_back(KeyFor(k));
    std::vector<Result<Record>> results =
        checker.MultiGetSync(chunk, RequestOptions::PrimaryOnly());
    if (results.size() != chunk.size()) {
      *why = "final read returned a wrong-sized batch";
      return false;
    }
    for (uint32_t i = 0; i < kChunk; ++i) {
      uint32_t k = first + i;
      if (!results[i].ok()) {
        *why = "final read of key " + std::to_string(k) + " failed: " +
               std::string(results[i].status().message());
        return false;
      }
      DecodedValue d;
      const ClientState& owner = *dep.clients[k % kClients];
      bool ok = DecodeValue(results[i]->value, &d) && d.key == k;
      if (ok) {
        uint64_t acked = owner.last_acked[k], attempted = owner.last_attempted[k];
        if (d.writer == 0) {
          ok = d.seq == 0 && acked == 0;
        } else {
          ok = d.writer == static_cast<int>(k % kClients) + 1 && d.seq >= acked &&
               d.seq <= attempted && (d.seq == acked || acked < attempted);
        }
      }
      if (!ok) {
        *why = "key " + std::to_string(k) + " reads back a value that is not its last acked write";
        return false;
      }
      values[k] = results[i]->value;
    }
  }
  if (dep.workload.replication == 1) return true;
  for (int attempt = 0; attempt < 200; ++attempt) {
    int64_t mismatches = 0;
    for (NodeId n = 0; n < kNodes; ++n) {
      mismatches += dep.OnNode(n, [&](StorageNode* node) {
        int64_t bad = 0;
        for (uint32_t k = 0; k < static_cast<uint32_t>(kKeys); ++k) {
          std::string key = KeyFor(k);
          const auto& replicas = dep.cluster.partitions()->ForKey(key).replicas;
          if (std::find(replicas.begin(), replicas.end(), n) == replicas.end()) continue;
          Result<Record> r = node->engine()->Get(key);
          if (!r.ok() || r->value != values[k]) ++bad;
        }
        return bad;
      });
    }
    if (mismatches == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  *why = "replicas did not converge to the primaries' values";
  return false;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ traced

/// Per-layer figures derived from the traced window's spans.
void AddSpanMetrics(const WindowResult& r, const TracingBackend& tracer,
                    const std::string& trace_out, std::vector<Metric>* out) {
  std::vector<Span> spans = tracer.Spans();
  auto is_node = [](NodeId site) { return site >= 0 && site < kNodes; };
  auto is_client = [](NodeId site) { return site >= kClientBase && site < kClientBase + kClients; };

  uint64_t max_request = 0;
  for (const OpTrace& t : r.traces) max_request = std::max(max_request, t.request);
  // Per traced request: when its completing closure (response delivery at
  // the client router, or a hop the caller thread armed) last ended.
  std::vector<int64_t> completion_end(max_request + 1, 0);
  LatencyHistogram to_node_wait, to_client_wait, complete, timer_late;
  std::unordered_map<uint64_t, int64_t> node_handler;  // (request, node) -> ns
  node_handler.reserve(spans.size());
  int64_t timer_spans = 0;
  for (const Span& s : spans) {
    bool client_side = s.kind == Span::kMessage ? is_client(s.site)
                                                : s.site == TracingBackend::kOffWorker;
    if (s.kind == Span::kMessage) {
      (is_node(s.site) ? to_node_wait : to_client_wait).Record(s.start_ns - s.queued_ns);
      if (is_client(s.site)) complete.Record(s.end_ns - s.start_ns);
    } else {
      ++timer_spans;
      timer_late.Record(s.start_ns - s.queued_ns);
    }
    if (s.request != 0 && s.request <= max_request) {
      if (client_side) {
        completion_end[s.request] = std::max(completion_end[s.request], s.end_ns);
      }
      if (is_node(s.site)) {
        node_handler[s.request * 16 + static_cast<uint64_t>(s.site)] += s.end_ns - s.start_ns;
      }
    }
  }
  LatencyHistogram wake, entry, handler;
  for (const OpTrace& t : r.traces) {
    if (t.handoff_ns >= t.start_ns) entry.Record(t.handoff_ns - t.start_ns);
    int64_t done = completion_end[t.request];
    if (done != 0 && done <= t.resume_ns) wake.Record(t.resume_ns - done);
  }
  for (const auto& [k, ns] : node_handler) handler.Record(ns);

  double ops = static_cast<double>(std::max<int64_t>(1, r.ops));
  auto us = [](const LatencyHistogram& h, double q) { return h.Quantile(q) / 1e3; };
  out->push_back({"client.wake_us_p50", us(wake, 0.5), "us"});
  out->push_back({"client.wake_us_p99", us(wake, 0.99), "us"});
  out->push_back({"router.entry_us_p50", us(entry, 0.5), "us"});
  out->push_back({"router.complete_us_p50", us(complete, 0.5), "us"});
  out->push_back({"fabric.to_node_wait_us_p50", us(to_node_wait, 0.5), "us"});
  out->push_back({"fabric.to_node_wait_us_p99", us(to_node_wait, 0.99), "us"});
  out->push_back({"fabric.to_client_wait_us_p50", us(to_client_wait, 0.5), "us"});
  out->push_back({"fabric.to_client_wait_us_p99", us(to_client_wait, 0.99), "us"});
  out->push_back({"fabric.msgs_per_op", static_cast<double>(tracer.messages()) / ops, "count"});
  out->push_back({"timer.late_us_p50", us(timer_late, 0.5), "us"});
  out->push_back({"timer.late_us_p99", us(timer_late, 0.99), "us"});
  out->push_back({"timer.hops_per_op", static_cast<double>(timer_spans) / ops, "count"});
  out->push_back({"node.handler_us_p50", us(handler, 0.5), "us"});
  std::printf("trace: %zu spans (%" PRId64 " dropped), %zu traced ops, %" PRId64 " wake samples\n",
              spans.size(), tracer.dropped(), r.traces.size(), wake.count());

  if (!trace_out.empty()) {
    // The first spans, for inspection; the figures above use all of them.
    std::ofstream csv(trace_out);
    csv << "request,kind,site,queued_ns,start_ns,end_ns\n";
    size_t n = std::min<size_t>(spans.size(), 100000);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      csv << s.request << ',' << (s.kind == Span::kMessage ? "msg" : "timer") << ',' << s.site
          << ',' << s.queued_ns << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
}

/// Times `fn(i)` for i in [0, n) in groups of kBatch calls and returns the
/// median per-call nanoseconds over the groups (one clock read per group
/// keeps clock cost out of sub-microsecond calls).
template <typename Fn>
double ReplayNs(size_t n, Fn fn) {
  constexpr size_t kBatch = 64;
  std::vector<double> per_call;
  for (size_t i = 0; i + kBatch <= n; i += kBatch) {
    int64_t t0 = NowNs();
    for (size_t j = i; j < i + kBatch; ++j) fn(j);
    per_call.push_back(static_cast<double>(NowNs() - t0) / kBatch);
  }
  return Quantile(per_call, 0.5);
}

/// CacheDirectory::LookupPoint over client 0's read keys, after quiesce.
double CacheLookupNs(Deployment& dep, const Tape& tape) {
  if (dep.cache == nullptr) return 0;
  std::vector<std::string> keys;
  for (const Op& op : tape.ops) {
    if (op.write) continue;
    for (int k = 0; k < op.count && keys.size() < 200000; ++k) {
      keys.push_back(KeyFor(tape.keys[op.begin + k]));
    }
  }
  Record out;
  RequestOptions options;
  Time now = dep.runtime.Now();
  return ReplayNs(keys.size(), [&](size_t i) { dep.cache->LookupPoint(keys[i], now, options, &out); });
}

/// EngineInterface replay on a StorageEngine loaded like node 0: its share
/// of the preload, then the tape's gets, puts and per-op MultiGets
/// restricted to the keys node 0 holds.
void AddEngineMetrics(const Workload& w, const Tape& tape, std::vector<Metric>* out) {
  std::vector<NodeId> ids;
  for (NodeId i = 0; i < kNodes; ++i) ids.push_back(i);
  auto map = PartitionMap::CreateUniform(kPartitions, ids, w.replication);
  if (!map.ok()) Die("CreateUniform failed");
  std::vector<bool> on_node0(kKeys, false);
  for (uint32_t k = 0; k < static_cast<uint32_t>(kKeys); ++k) {
    const auto& replicas = map->ForKey(KeyFor(k)).replicas;
    on_node0[k] = std::find(replicas.begin(), replicas.end(), 0) != replicas.end();
  }
  EngineOptions options;
  options.seed = 1000;
  StorageEngine engine(options);
  Time ts = 1;
  for (uint32_t k = 0; k < static_cast<uint32_t>(kKeys); ++k) {
    if (on_node0[k]) (void)engine.Put(KeyFor(k), EncodeValue(k, 0, 0), Version{ts++, kLoaderId});
  }
  std::vector<std::string> gets, puts;
  std::vector<std::vector<std::string>> batches;
  for (const Op& op : tape.ops) {
    std::vector<std::string> mine;
    for (int k = 0; k < op.count; ++k) {
      uint32_t key = tape.keys[op.begin + k];
      if (on_node0[key]) mine.push_back(KeyFor(key));
    }
    if (mine.empty()) continue;
    if (op.write) {
      puts.push_back(mine[0]);
    } else {
      gets.insert(gets.end(), mine.begin(), mine.end());
      batches.push_back(std::move(mine));
    }
  }
  if (gets.size() > 100000) gets.resize(100000);
  if (puts.size() > 50000) puts.resize(50000);
  if (batches.size() > 20000) batches.resize(20000);
  std::string value = EncodeValue(0, 1, 1);
  double get_ns = ReplayNs(gets.size(), [&](size_t i) { (void)engine.Get(gets[i]); });
  double put_ns =
      ReplayNs(puts.size(), [&](size_t i) { (void)engine.Put(puts[i], value, Version{ts++, 100}); });
  std::vector<double> per_key;
  for (const auto& batch : batches) {
    int64_t t0 = NowNs();
    auto results = engine.MultiGet(batch);
    per_key.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(results.size()));
  }
  out->push_back({"engine.get_ns", get_ns, "ns"});
  out->push_back({"engine.put_ns", put_ns, "ns"});
  out->push_back({"engine.multiget_ns_per_key", Quantile(per_key, 0.5), "ns"});
}

/// Engine bytes in memory per byte of user records (key + value, counted
/// once per replica), read on each node's own worker after the run.
double MemBytesPerUserByte(Deployment& dep) {
  double mem = 0;
  for (NodeId n = 0; n < kNodes; ++n) {
    mem += static_cast<double>(
        dep.OnNode(n, [](StorageNode* node) { return node->engine()->memory_usage(); }));
  }
  double user = 0;
  for (uint32_t k = 0; k < static_cast<uint32_t>(kKeys); ++k) {
    user += static_cast<double>(KeyFor(k).size() + kValueBytes);
  }
  return mem / (user * dep.workload.replication);
}

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) Die("flags take one value each");
  if (!(a.seconds >= 1 && a.seconds <= 600)) Die("--seconds must be in [1, 600]");
  return a;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) Die("unknown --workload '" + args.workload + "'");

  std::vector<Tape> tapes;
  for (int c = 0; c < kClients; ++c) tapes.push_back(MakeTape(*w, args.seed, c));
  std::printf("workload %s: seed %" PRIu64 ", %d clients, %d workers, %d nodes, rf=%d, %d keys\n",
              w->name, args.seed, kClients, kWorkers, kNodes, w->replication, kKeys);

  int64_t wrong_total = 0;
  std::string why;
  std::vector<Metric> metrics;
  int64_t attempted = 0, failed = 0;
  bool correct = true;

  auto check = [&](Deployment& dep) {
    if (!FinalCheck(dep, &why)) {
      std::fprintf(stderr, "correctness check failed: %s\n", why.c_str());
      correct = false;
    }
  };

  if (!args.trace) {
    // The first set-up is the deployment the window runs on; the others are
    // built and torn down after it, only for the setup_s median, so the
    // window starts from one clean deployment (and rss_peak_mb sees one).
    std::vector<double> setup;
    int64_t t0 = NowNs();
    auto dep = std::make_unique<Deployment>(*w, /*traced=*/false);
    dep->Preload();
    setup.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    WindowResult r = RunWindow(*dep, tapes, static_cast<int64_t>(args.seconds * 1e9), &wrong_total);
    check(*dep);
    dep.reset();
    for (int i = 1; i < kSetupRepeats; ++i) {
      t0 = NowNs();
      Deployment extra(*w, /*traced=*/false);
      extra.Preload();
      setup.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    EndToEnd e = Summarize(r);
    attempted = r.attempted;
    failed = r.failed + r.wrong;
    std::printf("samples: %" PRId64 " reads, %" PRId64 " writes over %d slices of %.2f s; "
                "%" PRId64 " failed + %" PRId64 " wrong of %" PRId64 " attempted\n",
                r.reads, r.writes, kSlices, r.slice_s, r.failed, r.wrong, r.attempted);
    std::printf("%-36s %16.6f %s\n", "error_rate",
                Ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio");
    // The p99s are printed but not part of the bounded end-to-end set:
    // hypervisor steal dominates them (see README.md), so the traced run
    // reports them, unbounded, as per-layer figures.
    std::printf("%-36s %16.4f %s\n", "read_p99_us", e.read_p99_us, "us");
    std::printf("%-36s %16.4f %s\n", "write_p99_us", e.write_p99_us, "us");
    metrics = {
        {"ops_per_s", e.ops_per_s, "ops/s"},
        {"read_p50_us", e.read_p50_us, "us"},
        {"write_p50_us", e.write_p50_us, "us"},
        {"cpu_us_per_op", e.cpu_us_per_op, "us"},
        {"rss_peak_mb", r.rss_peak_mb, "MB"},
        {"setup_s", Quantile(setup, 0.5), "s"},
    };
  } else {
    const int64_t half_ns = static_cast<int64_t>(args.seconds * 1e9 / 2);
    EndToEnd plain;
    {
      Deployment dep(*w, /*traced=*/false);
      dep.Preload();
      WindowResult r = RunWindow(dep, tapes, half_ns, &wrong_total);
      check(dep);
      plain = Summarize(r);
      attempted += r.attempted;
      failed += r.failed + r.wrong;
      double ops = static_cast<double>(std::max<int64_t>(1, r.ops));
      double lookups = static_cast<double>(r.cache_hits + r.cache_misses);
      int64_t admitted = r.node_delta.admitted_by_priority[0] +
                         r.node_delta.admitted_by_priority[1] +
                         r.node_delta.admitted_by_priority[2];
      std::printf("cache: %.0f lookups (hit_rate base), %" PRId64 " writes\n", lookups, r.writes);
      metrics = {
          {"read_p99_us", plain.read_p99_us, "us"},
          {"write_p99_us", plain.write_p99_us, "us"},
          {"router.failed", static_cast<double>(r.router_failed), "count"},
          {"router.deadline_exceeded", static_cast<double>(r.router_deadline_exceeded), "count"},
          {"cache.lookups", lookups, "count"},
          {"cache.hit_rate", Ratio(static_cast<double>(r.cache_hits), lookups), "ratio"},
          {"cache.evictions_per_op", static_cast<double>(r.cache_evictions) / ops, "ratio"},
          {"cache.invalidations_per_write",
           Ratio(static_cast<double>(r.cache_invalidations), static_cast<double>(r.writes)),
           "ratio"},
          {"cache.lookup_ns_p50", CacheLookupNs(dep, tapes[0]), "ns"},
          {"runtime.tasks_per_op", static_cast<double>(r.tasks) / ops, "count"},
          {"proc.vcsw_per_op", static_cast<double>(r.vcsw) / ops, "count"},
          {"node.shed_rate",
           Ratio(static_cast<double>(r.node_delta.ops_shed),
                 static_cast<double>(r.node_delta.ops_shed + admitted)),
           "ratio"},
          {"node.replicated_records_per_write",
           Ratio(static_cast<double>(r.node_delta.records_replicated_out),
                 static_cast<double>(r.writes)),
           "count"},
          {"node.retransmits", static_cast<double>(r.node_delta.retransmits), "count"},
          {"engine.mem_bytes_per_user_byte", MemBytesPerUserByte(dep), "ratio"},
      };
    }
    {
      Deployment dep(*w, /*traced=*/true);
      dep.Preload();
      WindowResult r = RunWindow(dep, tapes, half_ns, &wrong_total);
      check(dep);
      EndToEnd traced = Summarize(r);
      attempted += r.attempted;
      failed += r.failed + r.wrong;
      dep.runtime.Shutdown();  // no closure may record while spans are read
      AddSpanMetrics(r, *dep.tracer, args.trace_out, &metrics);
      metrics.push_back({"trace.untraced_read_p50_us", plain.read_p50_us, "us"});
      metrics.push_back({"trace.traced_read_p50_us", traced.read_p50_us, "us"});
      metrics.push_back({"trace.untraced_ops_per_s", plain.ops_per_s, "ops/s"});
      metrics.push_back({"trace.traced_ops_per_s", traced.ops_per_s, "ops/s"});
    }
    AddEngineMetrics(*w, tapes[0], &metrics);
  }

  if (wrong_total > 0) {
    std::fprintf(stderr, "%" PRId64 " reads returned a wrong result\n", wrong_total);
    correct = false;
  }
  PrintResult(correct, std::max<int64_t>(1, attempted), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace scads::perfbench

int main(int argc, char** argv) { return scads::perfbench::Main(argc, argv); }
