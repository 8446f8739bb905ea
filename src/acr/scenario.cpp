#include "acr/scenario.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "checksum/fletcher.h"
#include "common/cli.h"
#include "failure/distributions.h"

namespace acr {

int Scenario::nodes_per_replica() const {
  return std::visit([](const auto& a) { return a.nodes_needed(); }, app);
}

rt::ClusterConfig Scenario::cluster_config() const {
  rt::ClusterConfig cc = cluster;
  cc.nodes_per_replica = nodes_per_replica();
  return cc;
}

std::unique_ptr<AcrRuntime> start(const Scenario& scenario) {
  auto runtime =
      std::make_unique<AcrRuntime>(scenario.acr, scenario.cluster_config());
  runtime->set_task_factory(
      std::visit([](const auto& a) { return a.factory(); }, scenario.app));
  runtime->setup();
  if (scenario.predictor) runtime->set_predictor(*scenario.predictor);
  if (scenario.faults.arrivals) runtime->set_fault_plan(scenario.faults);
  if (scenario.bursts.enabled()) runtime->set_burst_plan(scenario.bursts);
  for (const failure::Fault& f : scenario.scripted) runtime->inject(f);
  return runtime;
}

namespace {

bool committed_everywhere(AcrRuntime& runtime) {
  std::uint64_t epoch = runtime.manager().verified_epoch();
  for (int r = 0; r < 2; ++r)
    for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i)
      if (runtime.agent_at(r, i).verified_epoch() != epoch) return false;
  return true;
}

/// The job completes when the manager commits the final epoch; the commit
/// still has to reach the agents before their verified images are the
/// answer.
void settle(AcrRuntime& runtime) {
  constexpr double kMaxSettle = 0.05;
  constexpr double kStep = 1e-4;
  double t = runtime.engine().now();
  double until = t + kMaxSettle;
  while (t < until && !committed_everywhere(runtime)) {
    t = std::min(until, t + kStep);
    runtime.engine().run_until(t);
  }
}

}  // namespace

JobResult finish(std::unique_ptr<AcrRuntime> runtime,
                 double max_virtual_time) {
  JobResult out;
  out.summary = runtime->run(max_virtual_time);
  out.events = runtime->engine().events_processed();
  if (out.summary.complete) {
    settle(*runtime);
    out.digest = verified_digest(*runtime);
  }
  out.runtime = std::move(runtime);
  return out;
}

JobResult run(const Scenario& scenario) {
  return finish(start(scenario), scenario.max_virtual_time);
}

std::uint64_t verified_digest(AcrRuntime& runtime) {
  checksum::Fletcher64 f;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i) {
    NodeAgent& a = runtime.agent_at(0, i);
    NodeAgent& b = runtime.agent_at(1, i);
    f.append((a.verified_epoch() >= b.verified_epoch() ? a : b)
                 .verified_image());
  }
  return f.digest();
}

// ---------------------------------------------------------------------------
// acr_driver's flags.
// ---------------------------------------------------------------------------

namespace {

template <typename T>
struct Named {
  const char* name;
  T value;
};

constexpr const char* kApps[] = {"jacobi", "hpccg", "lulesh", "leanmd",
                                 "minimd"};
constexpr Named<ResilienceScheme> kSchemes[] = {
    {"strong", ResilienceScheme::Strong},
    {"medium", ResilienceScheme::Medium},
    {"weak", ResilienceScheme::Weak},
    {"hardonly", ResilienceScheme::HardOnly}};
constexpr Named<SdcDetection> kDetections[] = {
    {"full", SdcDetection::FullCompare},
    {"checksum", SdcDetection::Checksum}};

template <typename T, std::size_t N>
std::vector<std::string> names(const Named<T> (&table)[N]) {
  std::vector<std::string> out;
  for (const Named<T>& n : table) out.push_back(n.name);
  return out;
}

template <typename T, std::size_t N>
T value_of(const Named<T> (&table)[N], const std::string& name) {
  for (const Named<T>& n : table)
    if (name == n.name) return n.value;
  return table[0].value;  // CliParser admits only the table's names
}

template <typename T, std::size_t N>
const char* name_of(const Named<T> (&table)[N], T value) {
  for (const Named<T>& n : table)
    if (n.value == value) return n.name;
  return "?";
}

[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// The driver's job geometry per app: each puts `nodes` nodes in a replica.
AppConfig driver_app(const std::string& app, int nodes, std::uint64_t iters) {
  if (app == "jacobi") {
    apps::Jacobi3DConfig cfg;
    cfg.tasks_x = cfg.tasks_y = 2;
    cfg.tasks_z = nodes;  // 2 tasks per node, slabs along z
    cfg.block_x = cfg.block_y = cfg.block_z = 4;
    cfg.slots_per_node = 4;
    cfg.iterations = iters;
    cfg.seconds_per_point = 1e-5;
    return cfg;
  }
  if (app == "hpccg") {
    apps::HpccgConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 6;
    cfg.num_tasks = nodes;  // must be a power of two
    cfg.iterations = iters;
    cfg.seconds_per_flop = 1e-7;
    return cfg;
  }
  if (app == "lulesh") {
    apps::MiniLuleshConfig cfg;
    cfg.ex = cfg.ey = cfg.ez = 5;
    cfg.num_tasks = nodes;  // must be a power of two
    cfg.iterations = iters;
    cfg.seconds_per_element = 2e-5;
    return cfg;
  }
  if (app == "leanmd") {
    apps::LeanMdConfig cfg;
    cfg.atoms_per_task = 32;
    cfg.num_tasks = 2 * nodes;
    cfg.slots_per_node = 2;
    cfg.iterations = iters;
    cfg.seconds_per_pair = 1e-5;
    return cfg;
  }
  apps::MiniMdConfig cfg;
  cfg.atoms_per_task = 32;
  cfg.num_tasks = nodes;
  cfg.iterations = iters;
  cfg.seconds_per_pair = 1e-5;
  return cfg;
}

}  // namespace

const char* app_flag_name(const AppConfig& app) { return kApps[app.index()]; }

const char* scheme_flag_name(ResilienceScheme scheme) {
  return name_of(kSchemes, scheme);
}

const char* detection_flag_name(SdcDetection detection) {
  return name_of(kDetections, detection);
}

std::optional<DriverFlags> parse_driver_flags(int argc,
                                              const char* const* argv,
                                              std::string* error) {
  error->clear();
  DriverFlags out;
  Scenario& s = out.scenario;
  AcrConfig& ac = s.acr;
  rt::ClusterConfig& cc = s.cluster;
  failure::NetFaultConfig& net = cc.net_faults;
  failure::BurstConfig& burst = s.bursts;
  // The driver's defaults, where they differ from the configs' own.
  ac.checkpoint_interval = 0.004;
  cc.spare_nodes = 4;
  cc.seed = 1;
  s.faults.sdc_fraction = 0.3;
  // Flags read only here, to pick or size something.
  std::string app = "jacobi";
  std::string scheme = "strong";
  std::string detection = "full";
  std::string ckpt_scheme = "partner";
  std::string ckpt_delta = "off";
  std::string ckpt_compress = "none";
  std::string degrade = "abort";
  int xor_group_size = -1;  // sentinel: unset; defaults to 4 under xor/rs
  int rs_parity = -1;       // sentinel: unset; defaults to 2 under rs
  int nodes = 8;
  int iterations = 60;
  double fault_mtbf = 0.0;
  double weibull_shape = 0.0;
  double predictor_recall = 0.0;
  double l2_latency = std::nan("");  // sentinel: unset, take TierConfig default
  int flush_interval = -1;   // sentinel: unset, take the TierConfig default

  CliParser cli(
      "acr_driver — run a mini-app under ACR's replication-enhanced "
      "checkpoint/restart on the virtual cluster");
  cli.add_choice("app", &app,
                 std::vector<std::string>(std::begin(kApps), std::end(kApps)),
                 "mini-application to run");
  cli.add_choice("scheme", &scheme, names(kSchemes), "recovery scheme (§2.3)");
  cli.add_choice("detection", &detection, names(kDetections),
                 "SDC detection method (§4.2)");
  cli.add_choice("ckpt-scheme", &ckpt_scheme, {"local", "partner", "xor", "rs"},
                 "checkpoint redundancy: local (in-memory only), partner "
                 "(buddy copy, the paper's §2.1), rs (Reed-Solomon: any "
                 "--rs-parity losses per group), xor (RAID-5 group parity: "
                 "rs with one parity block)");
  cli.add_choice("ckpt-delta", &ckpt_delta, {"off", "on"},
                 "incremental checkpoints: ship only 256 KiB chunks whose "
                 "CRC32C changed since the base epoch (buddy transfer, "
                 "parity exchange, L2 flushes); off = legacy full images");
  cli.add_choice("ckpt-compress", &ckpt_compress, {"none", "lz"},
                 "per-chunk deterministic LZ compression of checkpoint "
                 "traffic (composes with --ckpt-delta)");
  cli.add_int("xor-group-size", &xor_group_size,
              "nodes per xor/rs parity group (>= 2; a trailing remainder of "
              "1 is merged into the previous group; default 4)");
  cli.add_int("rs-parity", &rs_parity,
              "parity blocks per Reed-Solomon stripe: the group survives "
              "that many dead members (>= 1, < the smallest group's size; "
              "default 2; requires --ckpt-scheme=rs)");
  cli.add_int("nodes", &nodes, "nodes per replica");
  cli.add_int("spares", &cc.spare_nodes, "spare node pool size");
  cli.add_int("iterations", &iterations, "application iterations");
  cli.add_double("interval", &ac.checkpoint_interval,
                 "checkpoint interval, seconds");
  cli.add_flag("adaptive", &ac.adaptive,
               "adapt the interval to failures (§2.2)");
  cli.add_double("fault-mtbf", &fault_mtbf,
                 "mean time between injected faults (0 = no injection)");
  cli.add_double("sdc-fraction", &s.faults.sdc_fraction,
                 "fraction of injected faults that are bit flips");
  cli.add_double("weibull-shape", &weibull_shape,
                 "use a Weibull failure process with this shape (0 = Poisson)");
  cli.add_double("burst-mtbf", &burst.seed_mtbf,
                 "mean time between correlated burst seed failures; seeds "
                 "strike any alive hardware node, spares included (0 = off)");
  cli.add_double("burst-shape", &burst.weibull_shape,
                 "Weibull shape of the burst seed process (0 = Poisson)");
  cli.add_double("burst-follow", &burst.follow_prob,
                 "probability each live failure-domain peer of a burst seed "
                 "also fails");
  cli.add_double("burst-window", &burst.window,
                 "follower deaths land within this many seconds of the seed");
  cli.add_int("burst-domain", &burst.domain_size,
              "hardware nodes per failure domain (one blade/X-line of the "
              "derived torus)");
  cli.add_double("spare-repair-time", &burst.repair_mean,
                 "mean repair time of burst victims, which re-enter the "
                 "spare pool; --fault-mtbf deaths are never repaired "
                 "(0 = dead stays dead)");
  cli.add_choice("degrade", &degrade, {"abort", "shrink"},
                 "on spare-pool exhaustion: abort the job, or shrink — "
                 "double the dead role up onto a surviving node and "
                 "un-double when a repair refills the pool");
  cli.add_double("predictor-recall", &predictor_recall,
                 "enable the failure predictor with this recall (0 = off)");
  cli.add_double("net-loss", &net.drop_rate,
                 "per-frame network drop probability [0,1]");
  cli.add_double("net-dup", &net.dup_rate,
                 "per-frame network duplication probability [0,1]");
  cli.add_double("net-reorder", &net.reorder_rate,
                 "per-frame extra-latency (reordering) probability [0,1]");
  cli.add_double("net-corrupt", &net.corrupt_rate,
                 "per-frame in-flight bit-flip probability [0,1]");
  cli.add_int("net-retry-budget", &cc.reliable.retry_budget,
              "retransmits per frame before a link is declared failed");
  cli.add_double("l2-bandwidth", &ac.tier.bandwidth,
                 "simulated durable-tier (burst buffer) write bandwidth in "
                 "bytes/second; 0 disables the tier entirely");
  cli.add_double("l2-latency", &l2_latency,
                 "per-chunk durable-tier access latency, seconds "
                 "(default 1e-4; requires --l2-bandwidth > 0)");
  cli.add_int("flush-interval", &flush_interval,
              "flush every Nth committed checkpoint epoch to the durable "
              "tier (default 1; requires --l2-bandwidth > 0)");
  cli.add_double("halt-after", &ac.halt_after,
                 "at this virtual time, stop checkpointing, drain the newest "
                 "verified epoch to the durable tier, and exit cleanly "
                 "(0 = run to completion; requires --l2-bandwidth > 0)");
  cli.add_uint64("seed", &cc.seed, "master random seed");
  cli.add_flag("trace", &out.trace, "print the full protocol event trace");
  if (!cli.parse(argc, argv)) return std::nullopt;

  auto reject = [error](std::string message) {
    *error = std::move(message);
    return std::nullopt;
  };
  const double l2_bandwidth = ac.tier.bandwidth;
  const double halt_after = ac.halt_after;
  const std::pair<const char*, double> net_rates[] = {
      {"net-loss", net.drop_rate},
      {"net-dup", net.dup_rate},
      {"net-reorder", net.reorder_rate},
      {"net-corrupt", net.corrupt_rate}};
  for (const auto& [name, rate] : net_rates)
    if (rate < 0.0 || rate > 1.0)
      return reject(format("error: --%s=%g outside [0, 1]", name, rate));
  if (cc.reliable.retry_budget < 1)
    return reject(format("error: --net-retry-budget=%d must be >= 1",
                         cc.reliable.retry_budget));
  if (burst.follow_prob < 0.0 || burst.follow_prob > 1.0)
    return reject(
        format("error: --burst-follow=%g outside [0, 1]", burst.follow_prob));
  if (burst.window < 0.0)
    return reject(
        format("error: --burst-window=%g must be >= 0", burst.window));
  if (burst.domain_size < 1)
    return reject(
        format("error: --burst-domain=%d must be >= 1", burst.domain_size));
  if (burst.repair_mean < 0.0)
    return reject(format("error: --spare-repair-time=%g must be >= 0",
                         burst.repair_mean));
  if (l2_bandwidth < 0.0)
    return reject(format("error: --l2-bandwidth=%g must be >= 0 (0 disables)",
                         l2_bandwidth));
  if (l2_bandwidth == 0.0) {
    // The tier is off; reject flags that silently depend on it.
    if (!std::isnan(l2_latency))
      return reject(
          "error: --l2-latency requires --l2-bandwidth > 0 (the durable tier "
          "is disabled)");
    if (flush_interval != -1)
      return reject(
          "error: --flush-interval requires --l2-bandwidth > 0 (the durable "
          "tier is disabled)");
    if (halt_after > 0.0)
      return reject(
          "error: --halt-after drains to the durable tier; it requires "
          "--l2-bandwidth > 0");
  } else {
    if (!std::isnan(l2_latency) && l2_latency < 0.0)
      return reject(format("error: --l2-latency=%g must be >= 0", l2_latency));
    // An explicit 0 is rejected, not taken as "unset": a flush interval of
    // zero epochs is meaningless.
    if (flush_interval != -1 && flush_interval < 1)
      return reject(
          format("error: --flush-interval=%d must be >= 1", flush_interval));
    if (halt_after < 0.0)
      return reject(format("error: --halt-after=%g must be >= 0", halt_after));
  }
  if (xor_group_size != -1 && ckpt_scheme != "xor" && ckpt_scheme != "rs")
    return reject(format(
        "error: --xor-group-size only applies to --ckpt-scheme=xor or rs "
        "(got --ckpt-scheme=%s)",
        ckpt_scheme.c_str()));
  if (rs_parity != -1 && ckpt_scheme != "rs")
    return reject(format(
        "error: --rs-parity only applies to --ckpt-scheme=rs (got "
        "--ckpt-scheme=%s)",
        ckpt_scheme.c_str()));
  // xor is the single-parity spelling of rs: the same RAID-5 rotation.
  if (ckpt_scheme == "xor") {
    ckpt_scheme = "rs";
    rs_parity = 1;
  }
  if (ckpt_scheme == "rs") {
    if (xor_group_size == -1) xor_group_size = 4;
    // An explicit 0 fails like every other undersized group.
    if (xor_group_size < 2)
      return reject(format(
          "error: --xor-group-size=%d must be >= 2 (a one-node group has no "
          "parity peers)",
          xor_group_size));
    if (xor_group_size > nodes)
      return reject(format(
          "error: --xor-group-size=%d exceeds --nodes=%d (a group cannot "
          "span more nodes than the replica has)",
          xor_group_size, nodes));
    if (rs_parity == -1) rs_parity = 2;
    if (rs_parity < 1)
      return reject(format("error: --rs-parity=%d must be >= 1", rs_parity));
    ac.xor_group_size = xor_group_size;
    ac.rs_parity = rs_parity;
  }

  const double interval = ac.checkpoint_interval;
  ac.scheme = value_of(kSchemes, scheme);
  ac.detection = value_of(kDetections, detection);
  ac.adaptive_config.checkpoint_cost = interval / 20.0;
  ac.adaptive_config.min_interval = interval / 4.0;
  ac.adaptive_config.max_interval = interval * 8.0;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  ac.redundancy = ckpt_scheme == "local" ? ckpt::Scheme::Local
                  : ckpt_scheme == "rs"  ? ckpt::Scheme::Rs
                                         : ckpt::Scheme::Partner;
  ac.degrade = degrade == "shrink" ? DegradeMode::Shrink : DegradeMode::Abort;
  ac.codec.delta =
      ckpt_delta == "on" ? ckpt::DeltaMode::On : ckpt::DeltaMode::Off;
  ac.codec.compress =
      ckpt_compress == "lz" ? ckpt::CompressMode::Lz : ckpt::CompressMode::None;
  if (!std::isnan(l2_latency)) ac.tier.latency = l2_latency;
  if (flush_interval > 0)
    ac.tier.flush_interval = static_cast<std::uint64_t>(flush_interval);
  if (const char* err = validate_tier_config(ac))
    return reject(format("error: %s", err));
  // Scheme/flag combinations the manager would reject (e.g. rs under a
  // non-strong resilience scheme) become flag errors instead of aborts.
  if (const char* err = validate_redundancy_config(ac, nodes))
    return reject(format("error: %s", err));

  // Values the runtime would abort on, run on for ever, or silently read
  // as "off". Checked last, so an input rejected above keeps its message.
  if (nodes < 1) return reject(format("error: --nodes=%d must be >= 1", nodes));
  if ((app == "hpccg" || app == "lulesh") &&
      !std::has_single_bit(static_cast<unsigned>(nodes)))
    return reject(format("error: --nodes=%d must be a power of two under "
                         "--app=%s",
                         nodes, app.c_str()));
  if (cc.spare_nodes < 0)
    return reject(format("error: --spares=%d must be >= 0", cc.spare_nodes));
  if (iterations < 0)
    return reject(format("error: --iterations=%d must be >= 0", iterations));
  if (!(interval > 0.0))
    return reject(format("error: --interval=%g must be > 0", interval));
  const std::pair<const char*, double> probabilities[] = {
      {"sdc-fraction", s.faults.sdc_fraction},
      {"predictor-recall", predictor_recall}};
  for (const auto& [name, p] : probabilities)
    if (p < 0.0 || p > 1.0)
      return reject(format("error: --%s=%g outside [0, 1]", name, p));
  const std::pair<const char*, double> off_at_zero[] = {
      {"fault-mtbf", fault_mtbf},
      {"weibull-shape", weibull_shape},
      {"burst-mtbf", burst.seed_mtbf},
      {"burst-shape", burst.weibull_shape}};
  for (const auto& [name, v] : off_at_zero)
    if (v < 0.0) return reject(format("error: --%s=%g must be >= 0", name, v));

  s.app = driver_app(app, nodes, static_cast<std::uint64_t>(iterations));
  if (predictor_recall > 0.0) {
    PredictorConfig pred;
    pred.recall = predictor_recall;
    pred.precision = 0.8;
    pred.lead_time = interval / 4.0;
    s.predictor = pred;
  }
  if (fault_mtbf > 0.0) {
    if (weibull_shape > 0.0)
      s.faults.arrivals = std::make_shared<failure::WeibullProcess>(
          weibull_shape, fault_mtbf);
    else
      s.faults.arrivals = std::make_shared<failure::RenewalProcess>(
          std::make_shared<failure::Exponential>(fault_mtbf));
  }
  return out;
}

}  // namespace acr
