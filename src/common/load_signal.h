// NodeLoadSignal: a storage node's exported load, as the data plane sees it.
//
// StorageNode maintains the signal (explicit queue backlog, a smoothed
// recent-sojourn estimate, the declared background utilization, and a
// windowed shed fraction) and ClusterState re-exports it per NodeId, so the
// Router can size sub-batches — and the Director can read overload — from
// one shared vocabulary without reaching into node internals.

#ifndef SCADS_COMMON_LOAD_SIGNAL_H_
#define SCADS_COMMON_LOAD_SIGNAL_H_

#include <algorithm>

#include "common/types.h"

namespace scads {

/// The load that reads as full pressure (1.0) in NodeLoadSignal::Pressure:
/// this much explicit backlog (or IO debt), or this much smoothed sojourn.
/// Batch sizing, replica steering, drain and repair targeting all share
/// them, so "pressure 1.0" means the same thing to every consumer.
inline constexpr Duration kPressureBacklogRef = 200 * kMillisecond;
inline constexpr Duration kPressureSojournRef = 20 * kMillisecond;

/// One node's current load, snapshotted at read time.
struct NodeLoadSignal {
  /// Explicit queue backlog: microseconds of admitted-but-unserved work.
  Duration queue_delay = 0;
  /// Exponentially-smoothed recent sojourn (queue wait + service) of
  /// admitted requests. Captures the queueing delay that background
  /// utilization induces, which queue_delay alone cannot see.
  Duration ewma_sojourn = 0;
  /// Declared background (unsampled) utilization, fraction of capacity.
  double utilization = 0;
  /// Exponentially-smoothed fraction of recent admissions that shed.
  double shed_fraction = 0;
  /// Pending asynchronous engine IO debt, microseconds (a paged engine's
  /// dirty pages awaiting write-back). Zero for RAM-only engines.
  Duration io_backlog = 0;
  /// Failure-detector suspicion: 0 = heartbeats fresh, >= 1.0 = silent
  /// past the timeout multiple (presumed dead). Attached by
  /// ClusterState::NodeLoad; liveness, not load — deliberately NOT folded
  /// into Pressure() (the breaker and selector consult it directly).
  double suspicion = 0;

  /// Collapses the signal into a scalar pressure in [0, 1]: the worst of
  /// the normalized backlog (backlog_ref ≙ 1.0), the normalized smoothed
  /// sojourn (sojourn_ref ≙ 1.0), the declared utilization, and the shed
  /// fraction. Several imperfect views of "how busy" are combined by max
  /// because any one of them saturating means batches to this node already
  /// pay the overload price.
  double Pressure(Duration backlog_ref = kPressureBacklogRef,
                  Duration sojourn_ref = kPressureSojournRef) const {
    double pressure = std::max(utilization, shed_fraction);
    if (backlog_ref > 0) {
      pressure = std::max(pressure, static_cast<double>(queue_delay) /
                                        static_cast<double>(backlog_ref));
      // IO debt normalizes against the same reference: a node drowning in
      // write-back is as poor a batch target as one with a long CPU queue.
      pressure = std::max(pressure, static_cast<double>(io_backlog) /
                                        static_cast<double>(backlog_ref));
    }
    if (sojourn_ref > 0) {
      pressure = std::max(pressure, static_cast<double>(ewma_sojourn) /
                                        static_cast<double>(sojourn_ref));
    }
    return std::clamp(pressure, 0.0, 1.0);
  }
};

}  // namespace scads

#endif  // SCADS_COMMON_LOAD_SIGNAL_H_
