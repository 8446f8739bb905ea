// ACR framework configuration.
#pragma once

#include "ckpt/group.h"
#include "ckpt/redundancy.h"
#include "ckpt/tier.h"
#include "failure/adaptive_interval.h"
#include "pup/checker.h"

namespace acr {

/// Recovery schemes of §2.3 / Fig. 5. HardOnly is the Fig. 5(a) mode: no
/// periodic checkpoints, recovery via an immediate checkpoint of the
/// healthy replica (no SDC protection at all).
enum class ResilienceScheme { HardOnly, Strong, Medium, Weak };

const char* resilience_scheme_name(ResilienceScheme s);

/// How checkpoints are compared across replicas (§4.2).
enum class SdcDetection {
  FullCompare,  ///< ship the full checkpoint to the buddy, compare streams
  Checksum,     ///< ship an 8-byte position-dependent Fletcher-64 digest
};

const char* sdc_detection_name(SdcDetection d);

/// What to do when a hard failure finds the spare pool empty.
enum class DegradeMode {
  Abort,   ///< historical behavior: the job fails on pool exhaustion
  Shrink,  ///< shrink-to-survive: double the dead role up onto a survivor
};

const char* degrade_mode_name(DegradeMode m);

struct AcrConfig {
  ResilienceScheme scheme = ResilienceScheme::Strong;
  SdcDetection detection = SdcDetection::FullCompare;

  /// Checkpoint-redundancy scheme (ckpt layer). Partner is the paper's
  /// buddy copy; Local keeps no remote copy (hard failures degrade to a
  /// scratch restart); Rs keeps Reed–Solomon parity across groups of
  /// `xor_group_size` nodes within each replica (rs_parity = 1 is RAID-5
  /// XOR parity, the driver's --ckpt-scheme=xor). Rs requires the Strong
  /// resilience scheme (its rebuild path replaces the buddy transfer of
  /// Fig. 4a); Local is incompatible with Medium/Weak, whose recovery is
  /// DEFINED by cross-replica checkpoint shipping. See
  /// validate_redundancy_config().
  ckpt::Scheme redundancy = ckpt::Scheme::Partner;
  /// Parity group width under Rs (the name predates rs): >= 2, groups
  /// never span replicas. A remainder group of one node is merged into the
  /// preceding group (ckpt::GroupMap).
  int xor_group_size = 4;
  /// Parity blocks per stripe under Rs: any `rs_parity` dead members of a
  /// group are rebuilt bitwise from the survivors (Reed–Solomon over
  /// GF(256), ckpt/rs.h). Must be in [1, group size); group size + parity
  /// must fit the 256-element field label space.
  int rs_parity = 2;

  /// Fixed checkpoint period, seconds (used when !adaptive). HardOnly
  /// takes no periodic checkpoints.
  double checkpoint_interval = 10.0;

  /// Adapt the period to the observed failure rate (§2.2, Fig. 12).
  bool adaptive = false;
  failure::AdaptiveIntervalConfig adaptive_config;

  /// Buddy heartbeat period and the silence threshold after which the
  /// buddy is declared dead (§6.1's no-response fail-stop detection).
  double heartbeat_period = 0.05;
  double heartbeat_timeout = 0.25;

  /// Semi-blocking checkpointing (§4.2's "asynchronous checkpointing"
  /// future work, after Ni et al., Cluster'12): tasks resume as soon as
  /// their local checkpoint is serialized, overlapping the inter-replica
  /// transfer and comparison with application execution. Detection is
  /// unchanged — a mismatch still rolls both replicas back to the last
  /// verified checkpoint — but the forward path no longer stalls for the
  /// transfer/compare phases.
  bool semi_blocking = false;

  /// Run one final cross-replica comparison checkpoint after both replicas
  /// finish, before declaring the job successful. Without it, corruption
  /// striking in the tail (after the last periodic checkpoint) would go
  /// out the door unverified. Ignored in HardOnly mode.
  bool verify_at_completion = true;

  /// Spare-pool exhaustion policy. Abort preserves the pre-burst behavior
  /// bit-for-bit; Shrink doubles the dead role up onto a surviving node of
  /// the same replica (degraded redundancy) and un-doubles when a repaired
  /// spare returns. Un-doubling is automatic only under the Strong scheme,
  /// whose buddy/rs recovery restores the relieved role without a
  /// single-replica recovery checkpoint.
  DegradeMode degrade = DegradeMode::Abort;

  /// Stream comparison tolerances (FullCompare mode).
  pup::CheckerConfig checker;

  /// Durable L2 tier behind the in-memory redundancy schemes (tier.h).
  /// Disabled (bandwidth == 0) by default; when enabled, committed epochs
  /// trickle to the simulated burst buffer asynchronously and the recovery
  /// ladder gains an L2-fetch rung between L1 rebuild and scratch restart.
  ckpt::TierConfig tier;

  /// Halt-control surface: at this virtual time the manager stops starting
  /// new checkpoints, drains the newest verified epoch to L2, and the run
  /// ends with RunSummary::drained set. 0 = never. Requires the tier.
  double halt_after = 0.0;

  /// Checkpoint codec pipeline (ckpt/codec.h): incremental (dirty-chunk)
  /// delta shipping and/or per-chunk LZ compression of the buddy transfer,
  /// rs parity exchange, and L2 flushes. Both stages default OFF, which
  /// keeps every data-plane byte identical to the pre-codec protocol.
  ckpt::CodecConfig codec;
};

/// Check redundancy-scheme coherence: returns nullptr when valid, else a
/// human-readable reason (shared by the driver's CLI validation and the
/// Manager's construction-time ACR_REQUIREs).
const char* validate_redundancy_config(const AcrConfig& config,
                                       int nodes_per_replica);

/// Parity-group membership of a replica's node indices: groups of
/// `xor_group_size` under rs, disabled (empty) under local and partner.
ckpt::GroupMap parity_groups(const AcrConfig& config, int nodes_per_replica);

/// Check durable-tier coherence: returns nullptr when valid, else a
/// human-readable reason (shared by the driver's CLI validation and the
/// Manager's construction-time ACR_REQUIREs).
const char* validate_tier_config(const AcrConfig& config);

}  // namespace acr
