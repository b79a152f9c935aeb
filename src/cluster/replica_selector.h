// ReplicaSelector: the pluggable read-routing policy layer.
//
// All read-side target selection lives here, extracted from the Router's
// dispatch code so policies can change without touching it. The selector
// answers two questions the data plane asks on every read:
//
//   * which replica should serve this read first (ChooseReadReplica /
//     Pick), and
//   * in what order should the remaining replicas be tried when that one
//     fails (ReadCandidates).
//
// Pin rules are policy-independent and resolved here, before any policy
// runs: ReadMode::kPrimaryOnly (and a deployment configured primary-only
// via ReadTarget::kPrimary, unless the request explicitly asks
// kAnyReplica) always yields the primary, and a single-replica partition
// has no choice to make. Only genuinely load-spreadable reads reach the
// policy's Pick — those are the picks the RouterWindow counters report.
//
// Policies:
//   * UniformSelector — uniformly random replica (the pre-policy behavior,
//     kept for A/B benches);
//   * PowerOfTwoSelector — the default: samples two distinct replicas and
//     picks the one with lower ClusterState::NodeLoad pressure. The
//     classic result: sampling two and taking the less-loaded drops the
//     maximum queue length exponentially versus uniform random, at two
//     load-signal reads per pick and no global coordination. Ties keep
//     the first sample, so an idle fleet behaves exactly like uniform.
//
// Future policies (zone/locality-aware, deadline-aware) subclass
// ReplicaSelector and drop in via Router::set_selector without touching
// dispatch code.

#ifndef SCADS_CLUSTER_REPLICA_SELECTOR_H_
#define SCADS_CLUSTER_REPLICA_SELECTOR_H_

#include <memory>
#include <string_view>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/partition.h"
#include "common/request_options.h"
#include "common/rng.h"
#include "common/types.h"

namespace scads {

class CircuitBreaker;

/// Where point reads go when the request itself does not pin a target.
enum class ReadTarget {
  kPrimary,        ///< Always the partition primary (freshest).
  kAnyReplica,     ///< Policy-chosen replica (spreads load; may be stale).
};

/// Which selection policy a Router builds at construction.
enum class SelectorKind {
  kUniform,     ///< Uniformly random replica (pre-policy behavior).
  kPowerOfTwo,  ///< Two samples, lower NodeLoad pressure wins (default).
};

/// Selection-policy tunables (part of RouterConfig).
struct SelectorConfig {
  SelectorKind kind = SelectorKind::kPowerOfTwo;
};

/// One pick's outcome.
struct ReplicaPick {
  NodeId node = kInvalidNode;
  /// True when the load-spreading policy chose (false for pin rules and
  /// single-replica partitions) — the picks the window counters count.
  bool policy = false;
  /// True when load steered the policy away from its first sample (always
  /// false for UniformSelector).
  bool steered = false;
};

/// The read-routing policy interface. Subclasses implement Pick (the
/// load-spreading choice); the base class owns the policy-independent pin
/// rules and the retry-candidate ordering so every policy honors
/// ReadMode/priority semantics identically.
class ReplicaSelector {
 public:
  virtual ~ReplicaSelector() = default;

  virtual std::string_view name() const = 0;

  /// Picks one node from `replicas` (non-empty) for a load-spreading read.
  /// Policy-only: callers resolve pin rules first (or go through
  /// ChooseReadReplica, which does).
  virtual ReplicaPick Pick(const std::vector<NodeId>& replicas) = 0;

  /// The first serving target for a read of `partition` under `options`:
  /// pin rules first (kPrimaryOnly; deployment kPrimary unless the request
  /// explicitly asks kAnyReplica; single replica), then the policy's Pick.
  ReplicaPick ChooseReadReplica(const PartitionInfo& partition, const RequestOptions& options,
                                ReadTarget deployment_target);

  /// The ordered replica candidates a read may try: the chosen first
  /// target, then (for unpinned reads) up to `read_retries` alternates —
  /// none for kLow-priority requests, which shed instead of retrying.
  /// Candidates are deduplicated and thereby capped at the partition's
  /// distinct replica count, so a mis-sized read_retries (or a replica
  /// listed twice) can never produce duplicate retries against the same
  /// dead node. Load-aware policies additionally order the alternates
  /// most-promising-first (see OrderAlternates). `pick`, when non-null,
  /// reports the first target's pick outcome for counter accounting.
  std::vector<NodeId> ReadCandidates(const PartitionInfo& partition,
                                     const RequestOptions& options,
                                     ReadTarget deployment_target, int read_retries,
                                     ReplicaPick* pick = nullptr);

  /// Attaches the owning Router's circuit breaker. Unpinned candidate lists
  /// are then ordered healthy-first (stable within each class), so a read
  /// tries nodes the breaker would admit before nodes it would refuse. The
  /// policy's own pick/alternate order is preserved within each class;
  /// with every breaker closed (the healthy fleet) ordering is unchanged.
  void set_breaker(CircuitBreaker* breaker) { breaker_ = breaker; }

 protected:
  /// Hook: reorders the retry alternates (everything after the first
  /// candidate). Default keeps replica-set order; load-aware policies sort
  /// by ascending pressure so a failed first attempt retries on the
  /// least-loaded alternate next.
  virtual void OrderAlternates(std::vector<NodeId>* /*alternates*/) {}

 private:
  CircuitBreaker* breaker_ = nullptr;
};

/// Uniformly random replica — the pre-policy Router behavior, kept as the
/// A/B baseline.
class UniformSelector : public ReplicaSelector {
 public:
  explicit UniformSelector(uint64_t seed) : rng_(seed) {}
  std::string_view name() const override { return "uniform"; }
  ReplicaPick Pick(const std::vector<NodeId>& replicas) override;

 private:
  Rng rng_;
};

/// Power-of-two-choices: samples two distinct replicas and serves from the
/// one whose exported load signal collapses to lower pressure. Reads the
/// same ClusterState::NodeLoad signal adaptive batch sizing uses, so the
/// two mechanisms steer consistently.
class PowerOfTwoSelector : public ReplicaSelector {
 public:
  PowerOfTwoSelector(const ClusterState* cluster, SelectorConfig config, uint64_t seed)
      : cluster_(cluster), config_(config), rng_(seed) {}
  std::string_view name() const override { return "p2c"; }
  ReplicaPick Pick(const std::vector<NodeId>& replicas) override;

 protected:
  void OrderAlternates(std::vector<NodeId>* alternates) override;

 private:
  double PressureOf(NodeId node) const;

  const ClusterState* cluster_;
  SelectorConfig config_;
  Rng rng_;
};

/// Builds the configured selector (Router construction; benches build both
/// kinds directly for A/B runs).
std::unique_ptr<ReplicaSelector> MakeSelector(const SelectorConfig& config,
                                              const ClusterState* cluster, uint64_t seed);

}  // namespace scads

#endif  // SCADS_CLUSTER_REPLICA_SELECTOR_H_
