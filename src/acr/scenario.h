// Scenario — one ACR job, described once.
//
// A Scenario is everything a run depends on: the mini-app and its size,
// the protocol (AcrConfig) and machine (ClusterConfig) configurations, the
// fault, burst and predictor plans, scripted faults, the seed and the
// virtual-time cap. acr_driver parses its flags into one; the benches,
// soaks, sweeps and examples build one in code. run(Scenario) is the job
// runner behind all of them:
//
//   acr::Scenario s;
//   s.app = my_jacobi_config;                 // sizes the cluster
//   s.acr.scheme = acr::ResilienceScheme::Strong;
//   s.faults.arrivals = ...;                  // optional fault plan
//   acr::JobResult r = acr::run(s);           // r.summary, r.digest
//
// examples/quickstart.cpp walks through the raw AcrRuntime API instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "acr/runtime.h"
#include "apps/hpccg.h"
#include "apps/jacobi3d.h"
#include "apps/leanmd.h"
#include "apps/minilulesh.h"
#include "apps/minimd.h"

namespace acr {

/// The five mini-apps, in acr_driver's --app order.
using AppConfig = std::variant<apps::Jacobi3DConfig, apps::HpccgConfig,
                               apps::MiniLuleshConfig, apps::LeanMdConfig,
                               apps::MiniMdConfig>;

struct Scenario {
  AppConfig app;
  AcrConfig acr;
  /// Spares, latencies, network faults and the seed (`cluster.seed`).
  /// nodes_per_replica is not read: the app's nodes_needed() sizes the
  /// cluster (cluster_config()).
  rt::ClusterConfig cluster;
  /// Failure predictor; armed before the fault plan, whose scheduling
  /// decides the warnings.
  std::optional<PredictorConfig> predictor;
  /// Random faults; off while `faults.arrivals` is null.
  FaultPlan faults;
  /// Correlated bursts; off unless `bursts.enabled()`.
  failure::BurstConfig bursts;
  /// Faults landed at their own times (AcrRuntime::inject).
  std::vector<failure::Fault> scripted;
  double max_virtual_time = 600.0;

  int nodes_per_replica() const;
  /// `cluster` with nodes_per_replica taken from the app.
  rt::ClusterConfig cluster_config() const;
};

/// A finished job.
struct JobResult {
  std::unique_ptr<AcrRuntime> runtime;
  RunSummary summary;
  /// Engine events dispatched when run() returned, before the settle.
  std::size_t events = 0;
  /// verified_digest() after the settle; 0 unless the job completed.
  std::uint64_t digest = 0;
};

/// Builds the runtime, sets it up and arms the plans: predictor, fault
/// plan, bursts, then the scripted faults. For callers that act between
/// setup() and run(); finish() then runs it.
std::unique_ptr<AcrRuntime> start(const Scenario& scenario);

/// Runs a started job until it ends or passes `max_virtual_time`. A job
/// that completed is then settled — the engine runs until every role holds
/// the manager's last committed epoch, for at most 0.05 s of virtual time —
/// and its verified answer digested.
JobResult finish(std::unique_ptr<AcrRuntime> runtime,
                 double max_virtual_time);

/// start() then finish() at the scenario's virtual-time cap.
JobResult run(const Scenario& scenario);

/// Fletcher-64 over the newest verified image of every node index, taken
/// from whichever replica holds the higher epoch: the job's answer,
/// compared bit-for-bit across runs. Live state is not the answer: a node
/// killed between the final pack and its commit keeps a stale copy while
/// its buddy holds the verified one, and a flip may land after the pack.
std::uint64_t verified_digest(AcrRuntime& runtime);

/// What acr_driver's command line asks for.
struct DriverFlags {
  Scenario scenario;
  bool trace = false;  ///< print the protocol event trace
};

/// Parses acr_driver's flags: the driver's flag table, its validation and
/// its five app geometries live here and nowhere else. On --help, an
/// unknown flag or an unparsable value, CliParser prints the usage on
/// stderr and `*error` stays empty; on a rejected value `*error` is the one
/// line to print, "error: --<flag>=<value> ...". Either way nullopt.
std::optional<DriverFlags> parse_driver_flags(int argc,
                                              const char* const* argv,
                                              std::string* error);

/// The flag spellings of a scenario's app, scheme and detection mode.
const char* app_flag_name(const AppConfig& app);
const char* scheme_flag_name(ResilienceScheme scheme);
const char* detection_flag_name(SdcDetection detection);

}  // namespace acr
