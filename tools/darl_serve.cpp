// darl_serve — command-line front end for the policy inference fleet
// (src/darl/serve/, DESIGN.md §12 and §14).
//
//   darl_serve [options]
//
//   --checkpoint PATH   serve this saved policy (default: train one fresh)
//   --train-timesteps N PPO training budget when no checkpoint is given
//                       (default 4096)
//   --save PATH         after training, also save the checkpoint here
//   --clients N         client threads (default 4)
//   --requests N        requests per client (default 200)
//   --shards N          hash shards per tenant (default 1)
//   --tenants N         named policies to host (default 1; 1 uses the
//                       unnamed back-compat tenant, N>1 publishes the
//                       checkpoint as "t0".."tN-1" and spreads clients
//                       across them round-robin)
//   --quota N           per-tenant in-flight admission quota (default 0 =
//                       unlimited)
//   --priority NAME     control|high|normal|low|mixed (default normal;
//                       mixed cycles high/normal/low across clients)
//   --open-loop         open-loop traffic: each client draws arrival
//                       times from --arrival and measures latency from
//                       the *scheduled* arrival, so queueing delay is
//                       charged even when the fleet falls behind
//   --rate-per-s X      total offered arrival rate, open-loop (default 2000)
//   --arrival NAME      poisson|bursty|heavytail (default poisson)
//   --shed-low X        Low lane shed watermark, fraction of queue
//                       capacity (default 0.50); likewise
//   --shed-normal X     (default 0.75) and
//   --shed-high X       (default 0.90). Control traffic never sheds.
//   --max-batch N       micro-batch size cap (default 32)
//   --max-delay-us X    batching window in microseconds (default 200)
//   --no-gather         timed window instead of yield-gather: the worker
//                       holds the full --max-delay-us so queues build and
//                       the shed watermarks engage (overload stress mode)
//   --queue-cap N       per-shard admission queue capacity (default 256)
//   --workers N         dispatcher threads per shard (default 1)
//   --deadline-us X     per-request deadline, 0 = wait forever (default 0)
//   --swap-every N      hot-swap (republish) every tenant after every N
//                       requests per client, 0 = never (default 0). The
//                       republished spec is identical, so the bitwise
//                       self-check keeps working across swaps.
//   --seed N            rng seed for client traffic (default 42)
//   --obs-out PATH      write the metrics-registry snapshot as JSONL
//   --obs-port P        live telemetry: serve /metrics (Prometheus),
//                       /snapshot.json and /healthz on 127.0.0.1:P
//                       (0 = ephemeral; the bound port is printed)
//   --obs-linger-s X    keep the exporter alive X seconds after the run
//   --flight-out PATH   dump the flight recorder (JSONL) at exit and on
//                       fatal signals
//   --help
//
// Each client walks its own airdrop episode: observation -> served action
// -> simulator step, so the offered traffic is the real deployment loop.
// Every Ok response is compared bitwise against DirectPolicy (per-sample
// Mlp::evaluate + greedy decode, no batching); any mismatch makes the
// process exit 1. In open-loop mode a Control-priority prober issues a
// health probe every 20 ms to demonstrate that the control lane survives
// overload. The run ends with an outcome/latency/batch-shape table.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "darl/airdrop/airdrop_env.hpp"
#include "darl/common/jsonl.hpp"
#include "darl/common/rng.hpp"
#include "darl/common/stopwatch.hpp"
#include "darl/common/table.hpp"
#include "darl/frameworks/backend.hpp"
#include "darl/obs/export.hpp"
#include "darl/obs/flight.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/obs/percentile.hpp"
#include "darl/obs/timeseries.hpp"
#include "darl/rl/checkpoint.hpp"
#include "darl/serve/arrival.hpp"
#include "darl/serve/policy_store.hpp"
#include "darl/serve/router.hpp"
#include "cli_flags.hpp"

namespace {

using namespace darl;

struct CliOptions {
  std::string checkpoint;
  std::string save;
  std::size_t train_timesteps = 4096;
  std::size_t clients = 4;
  std::size_t requests = 200;
  std::size_t shards = 1;
  std::size_t tenants = 1;
  std::size_t quota = 0;
  std::string priority = "normal";
  bool open_loop = false;
  double rate_per_s = 2000.0;
  std::string arrival = "poisson";
  double shed_low = 0.50;
  double shed_normal = 0.75;
  double shed_high = 0.90;
  std::size_t max_batch = 32;
  double max_delay_us = 200.0;
  bool gather = true;
  std::size_t queue_capacity = 256;
  std::size_t workers = 1;
  double deadline_us = 0.0;
  std::size_t swap_every = 0;
  std::uint64_t seed = 42;
  std::string obs_out;
  int obs_port = -1;        ///< -1 = no exporter; 0 = ephemeral port
  double obs_linger_s = 0.0;
  std::string flight_out;
};

[[noreturn]] void usage(int code) {
  std::printf(
      "darl_serve — sharded multi-tenant policy inference fleet\n"
      "\n"
      "  --checkpoint PATH   serve this saved policy (default: train fresh)\n"
      "  --train-timesteps N PPO budget when training fresh (default 4096)\n"
      "  --save PATH         save the freshly trained checkpoint\n"
      "  --clients N         client threads                 (default 4)\n"
      "  --requests N        requests per client            (default 200)\n"
      "  --shards N          hash shards per tenant         (default 1)\n"
      "  --tenants N         named policies hosted          (default 1)\n"
      "  --quota N           per-tenant in-flight quota, 0 = unlimited\n"
      "  --priority NAME     control|high|normal|low|mixed  (default normal)\n"
      "  --open-loop         open-loop arrivals; latency measured from the\n"
      "                      scheduled arrival time (shows the knee)\n"
      "  --rate-per-s X      total offered rate, open-loop  (default 2000)\n"
      "  --arrival NAME      poisson|bursty|heavytail       (default poisson)\n"
      "  --shed-low X        Low shed watermark             (default 0.50)\n"
      "  --shed-normal X     Normal shed watermark          (default 0.75)\n"
      "  --shed-high X       High shed watermark            (default 0.90)\n"
      "  --max-batch N       micro-batch size cap           (default 32)\n"
      "  --max-delay-us X    batching window, microseconds  (default 200)\n"
      "  --no-gather         hold the full batching window instead of\n"
      "                      dispatching when arrivals pause (stress mode:\n"
      "                      queues build and the shed watermarks engage)\n"
      "  --queue-cap N       per-shard queue capacity       (default 256)\n"
      "  --workers N         dispatcher threads per shard   (default 1)\n"
      "  --deadline-us X     per-request deadline, 0 = none (default 0)\n"
      "  --swap-every N      republish after every N requests per client\n"
      "                      (0 = never; same weights, new version id)\n"
      "  --seed N            client traffic seed            (default 42)\n"
      "  --obs-out PATH      metrics snapshot as JSONL\n"
      "  --obs-port P        expose /metrics, /snapshot.json, /healthz on\n"
      "                      127.0.0.1:P (0 = pick a free port; the bound\n"
      "                      port is printed). darl_top can attach to it.\n"
      "  --obs-linger-s X    keep the exporter up X seconds after the run\n"
      "                      so scrapers can read the final counters\n"
      "  --flight-out PATH   flight-recorder JSONL dump target; also\n"
      "                      installs the fatal-signal dump handler\n"
      "  --help\n");
  std::exit(code);
}

/// Per-client tally, merged after the join. In open-loop mode latencies
/// are measured from the scheduled arrival time.
struct ClientStats {
  std::vector<double> ok_latencies_us;
  std::size_t ok = 0;
  std::size_t rejected_full = 0;
  std::size_t rejected_shutdown = 0;
  std::size_t timed_out = 0;
  std::size_t rejected_quota = 0;
  std::size_t shed = 0;
  std::size_t mismatches = 0;
};

void tally(ClientStats& stats, const serve::Response& response,
           const Vec& reference, double latency_us) {
  switch (response.outcome) {
    case serve::Outcome::Ok:
      ++stats.ok;
      stats.ok_latencies_us.push_back(latency_us);
      if (response.action != reference) ++stats.mismatches;
      break;
    case serve::Outcome::RejectedFull:
      ++stats.rejected_full;
      break;
    case serve::Outcome::RejectedShutdown:
      ++stats.rejected_shutdown;
      break;
    case serve::Outcome::TimedOut:
      ++stats.timed_out;
      break;
    case serve::Outcome::RejectedQuota:
      ++stats.rejected_quota;
      break;
    case serve::Outcome::Shed:
      ++stats.shed;
      break;
  }
}

serve::Priority client_priority(const std::string& name,
                                std::size_t client_index) {
  if (name == "control") return serve::Priority::Control;
  if (name == "high") return serve::Priority::High;
  if (name == "low") return serve::Priority::Low;
  if (name == "mixed") {
    switch (client_index % 3) {
      case 0: return serve::Priority::High;
      case 1: return serve::Priority::Normal;
      default: return serve::Priority::Low;
    }
  }
  return serve::Priority::Normal;
}

/// One client thread: drives an airdrop episode with served actions.
/// Non-Ok responses fall back to the direct policy so the episode keeps
/// advancing (the deployment posture: degrade, don't stall). Closed-loop
/// issues the next request as soon as the previous returns; open-loop
/// sleeps until each scheduled arrival and charges any lateness to the
/// request's latency.
void run_client(serve::Router& router, const std::string& tenant,
                const serve::PolicySpec& spec, const env::EnvFactory& factory,
                const CliOptions& opt, std::size_t client_index,
                std::uint64_t seed, ClientStats& stats) {
  serve::DirectPolicy direct(spec);
  auto env = factory();
  env->seed(seed);
  Vec obs = env->reset();
  stats.ok_latencies_us.reserve(opt.requests);
  const serve::Priority priority = client_priority(opt.priority, client_index);
  serve::Arrival arrival_kind = serve::Arrival::Poisson;
  parse_arrival(opt.arrival, arrival_kind);
  Rng rng(splitmix64(seed) ^ 0xA5A5A5A5A5A5A5A5ull);
  // Per-tenant offered-traffic counter (the router's serve.router_requests
  // counts what reached admission; this counts what clients generated).
  darl::obs::Counter& tenant_requests = darl::obs::Registry::global().counter(
      "serve.client_requests",
      {{"tenant", tenant.empty() ? std::string("default") : tenant}});
  const double mean_gap_s =
      opt.rate_per_s > 0.0
          ? static_cast<double>(opt.clients) / opt.rate_per_s
          : 0.0;
  serve::ArrivalProcess arrivals(arrival_kind, mean_gap_s);
  Stopwatch wall;
  double next_arrival_s = 0.0;
  for (std::size_t r = 0; r < opt.requests; ++r) {
    if (opt.open_loop) {
      next_arrival_s += arrivals.next_gap_s(rng);
      const double now_s = wall.seconds();
      if (now_s < next_arrival_s) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(next_arrival_s - now_s));
      }
    }
    tenant_requests.add(1);
    // Fresh key per request: traffic spreads over every shard while any
    // fixed key still maps to a fixed shard (see Router::shard_for).
    const std::uint64_t key = splitmix64(seed + 0x9E37 * (r + 1));
    const serve::Response response =
        router.serve(tenant, key, obs, priority, opt.deadline_us);
    const Vec reference = direct.act(obs);
    const double latency_us =
        opt.open_loop ? (wall.seconds() - next_arrival_s) * 1e6
                      : response.latency_us;
    tally(stats, response, reference, latency_us);
    const Vec& action =
        response.outcome == serve::Outcome::Ok ? response.action : reference;
    const env::StepResult step = env->step(action);
    obs = step.done() ? env->reset() : step.observation;
  }
}

rl::Checkpoint obtain_checkpoint(const CliOptions& opt,
                                 const env::EnvFactory& factory) {
  if (!opt.checkpoint.empty()) {
    std::printf("loading checkpoint %s\n", opt.checkpoint.c_str());
    return rl::load_checkpoint_file(opt.checkpoint);
  }
  std::printf("training PPO on the airdrop simulator (%zu steps)...\n",
              opt.train_timesteps);
  frameworks::TrainRequest req;
  req.env_factory = factory;
  req.algo.kind = rl::AlgoKind::PPO;
  req.deployment = {1, 2};
  req.total_timesteps = opt.train_timesteps;
  req.eval_episodes = 5;
  req.seed = 11;
  frameworks::StableBaselinesBackend backend;
  const frameworks::TrainResult result = backend.run(req);
  std::printf("  trained: eval landing score %.3f\n", result.reward);

  auto probe = factory();
  rl::Checkpoint ck;
  ck.kind = rl::AlgoKind::PPO;
  ck.obs_dim = probe->observation_space().dim();
  ck.action_dim = probe->action_space().action_dim();
  ck.params = result.final_policy;
  if (!opt.save.empty()) {
    rl::save_checkpoint_file(opt.save, ck);
    std::printf("  saved checkpoint to %s\n", opt.save.c_str());
  }
  return ck;
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opt;
  const cli::Flags flags(argc, argv, &usage);
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--checkpoint")) opt.checkpoint = flags.value(i);
    else if (!std::strcmp(a, "--save")) opt.save = flags.value(i);
    else if (!std::strcmp(a, "--train-timesteps"))
      opt.train_timesteps = flags.count(i);
    else if (!std::strcmp(a, "--clients")) opt.clients = flags.count(i);
    else if (!std::strcmp(a, "--requests")) opt.requests = flags.count(i);
    else if (!std::strcmp(a, "--shards")) opt.shards = flags.count(i);
    else if (!std::strcmp(a, "--tenants")) opt.tenants = flags.count(i);
    else if (!std::strcmp(a, "--quota")) opt.quota = flags.count(i);
    else if (!std::strcmp(a, "--priority")) opt.priority = flags.value(i);
    else if (!std::strcmp(a, "--open-loop")) opt.open_loop = true;
    else if (!std::strcmp(a, "--rate-per-s")) opt.rate_per_s = flags.number(i);
    else if (!std::strcmp(a, "--arrival")) opt.arrival = flags.value(i);
    else if (!std::strcmp(a, "--shed-low")) opt.shed_low = flags.number(i);
    else if (!std::strcmp(a, "--shed-normal"))
      opt.shed_normal = flags.number(i);
    else if (!std::strcmp(a, "--shed-high")) opt.shed_high = flags.number(i);
    else if (!std::strcmp(a, "--no-gather")) opt.gather = false;
    else if (!std::strcmp(a, "--max-batch")) opt.max_batch = flags.count(i);
    else if (!std::strcmp(a, "--max-delay-us"))
      opt.max_delay_us = flags.number(i);
    else if (!std::strcmp(a, "--queue-cap"))
      opt.queue_capacity = flags.count(i);
    else if (!std::strcmp(a, "--workers")) opt.workers = flags.count(i);
    else if (!std::strcmp(a, "--deadline-us"))
      opt.deadline_us = flags.number(i);
    else if (!std::strcmp(a, "--swap-every")) opt.swap_every = flags.count(i);
    else if (!std::strcmp(a, "--seed")) opt.seed = flags.count(i);
    else if (!std::strcmp(a, "--obs-out")) opt.obs_out = flags.value(i);
    else if (!std::strcmp(a, "--obs-port")) opt.obs_port = flags.port(i);
    else if (!std::strcmp(a, "--obs-linger-s"))
      opt.obs_linger_s = flags.number(i);
    else if (!std::strcmp(a, "--flight-out")) opt.flight_out = flags.value(i);
    else if (!std::strcmp(a, "--help")) usage(0);
    else {
      std::fprintf(stderr, "unknown option '%s'\n", a);
      usage(2);
    }
  }
  if (opt.clients == 0 || opt.requests == 0 || opt.workers == 0) {
    std::fprintf(stderr, "--clients, --requests and --workers must be > 0\n");
    usage(2);
  }
  if (opt.shards == 0 || opt.tenants == 0) {
    std::fprintf(stderr, "--shards and --tenants must be > 0\n");
    usage(2);
  }
  if (opt.arrival != "poisson" && opt.arrival != "bursty" &&
      opt.arrival != "heavytail") {
    std::fprintf(stderr, "--arrival must be poisson, bursty or heavytail\n");
    usage(2);
  }
  if (opt.priority != "control" && opt.priority != "high" &&
      opt.priority != "normal" && opt.priority != "low" &&
      opt.priority != "mixed") {
    std::fprintf(stderr,
                 "--priority must be control, high, normal, low or mixed\n");
    usage(2);
  }
  if (opt.open_loop && opt.rate_per_s <= 0.0) {
    std::fprintf(stderr, "--rate-per-s must be > 0 in open-loop mode\n");
    usage(2);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse_cli(argc, argv);
  obs::set_metrics_enabled(true);

  if (!opt.flight_out.empty()) {
    obs::enable_flight();
    obs::set_flight_dump_path(opt.flight_out);
    obs::install_flight_signal_handler();
  }

  std::unique_ptr<obs::TimeSeries> sampler;
  std::unique_ptr<obs::Exporter> exporter;
  if (opt.obs_port >= 0) {
    obs::TimeSeriesOptions ts_opt;
    ts_opt.period_ms = 100;  // short-lived CLI runs still get a window
    sampler = std::make_unique<obs::TimeSeries>(ts_opt);
    sampler->start();
    obs::ExporterOptions ex_opt;
    ex_opt.port = opt.obs_port;
    ex_opt.timeseries = sampler.get();
    exporter = std::make_unique<obs::Exporter>(ex_opt);
    exporter->start();
    // Scripts (check.sh, darl_top) read the bound port off this line, so
    // flush it before the run starts producing other output.
    std::printf("obs: exporter listening on 127.0.0.1:%d\n", exporter->port());
    std::fflush(stdout);
  }

  airdrop::AirdropConfig env_cfg;
  env_cfg.altitude_min = 30.0;
  env_cfg.altitude_max = 200.0;
  env_cfg.rk_order = ode::RkOrder::Order5;
  const env::EnvFactory factory = airdrop::make_airdrop_factory(env_cfg);

  const rl::Checkpoint ck = obtain_checkpoint(opt, factory);
  auto probe = factory();

  // One tenant is the unnamed back-compat policy; a fleet of N publishes
  // the checkpoint under "t0".."tN-1" and spreads clients round-robin.
  std::vector<std::string> tenant_names;
  if (opt.tenants == 1) {
    tenant_names.emplace_back();
  } else {
    for (std::size_t t = 0; t < opt.tenants; ++t) {
      tenant_names.push_back("t" + std::to_string(t));
    }
  }
  serve::PolicyStore store;
  for (const std::string& name : tenant_names) {
    if (name.empty()) {
      store.publish_checkpoint(ck, probe->action_space());
    } else {
      store.publish_checkpoint(name, ck, probe->action_space());
    }
  }
  const serve::PolicySpec spec =
      store.current(tenant_names.front())->spec;
  std::printf("serving policy: %zu params, %zu tenant(s) x %zu shard(s)\n",
              spec.net_params.size(), opt.tenants, opt.shards);

  serve::RouterConfig router_cfg;
  router_cfg.shards = opt.shards;
  router_cfg.shard.max_batch = opt.max_batch;
  router_cfg.shard.max_delay_us = opt.max_delay_us;
  router_cfg.shard.queue_capacity = opt.queue_capacity;
  router_cfg.shard.workers = opt.workers;
  router_cfg.shard.gather = opt.gather;
  router_cfg.shed_low = opt.shed_low;
  router_cfg.shed_normal = opt.shed_normal;
  router_cfg.shed_high = opt.shed_high;
  router_cfg.default_quota = opt.quota;
  serve::Router router(store, router_cfg);

  std::vector<ClientStats> stats(opt.clients);
  std::vector<std::thread> clients;
  clients.reserve(opt.clients);
  Stopwatch wall;
  // Optional hot-swap driver: republish the same spec on a cadence so
  // every tenant's version id advances under live traffic.
  std::thread swapper;
  const bool swapping = opt.swap_every > 0;
  if (swapping) {
    swapper = std::thread([&] {
      const std::size_t swaps = opt.requests / opt.swap_every;
      for (std::size_t s = 0; s < swaps; ++s) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        for (const std::string& name : tenant_names) {
          if (name.empty()) store.publish(spec);
          else store.publish(name, spec);
        }
      }
    });
  }
  // Open-loop runs carry a Control-priority prober: the healthz-style
  // traffic that must keep answering while Normal/Low lanes shed.
  std::atomic<bool> probing{true};
  std::vector<double> control_latencies_us;
  std::thread prober;
  if (opt.open_loop) {
    prober = std::thread([&] {
      auto env = factory();
      env->seed(opt.seed + 1000003);
      const Vec obs = env->reset();
      while (probing.load(std::memory_order_relaxed)) {
        Stopwatch probe_sw;
        (void)router.serve(tenant_names.front(), 0, obs,
                           serve::Priority::Control, 0.0);
        control_latencies_us.push_back(probe_sw.seconds() * 1e6);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  for (std::size_t c = 0; c < opt.clients; ++c) {
    const std::string& tenant = tenant_names[c % tenant_names.size()];
    clients.emplace_back([&, c, tenant] {
      run_client(router, tenant, spec, factory, opt, c, opt.seed + c,
                 stats[c]);
    });
  }
  for (auto& t : clients) t.join();
  if (swapping) swapper.join();
  if (prober.joinable()) {
    probing.store(false, std::memory_order_relaxed);
    prober.join();
  }
  const double wall_s = wall.seconds();
  router.shutdown();

  ClientStats total;
  for (const ClientStats& s : stats) {
    total.ok += s.ok;
    total.rejected_full += s.rejected_full;
    total.rejected_shutdown += s.rejected_shutdown;
    total.timed_out += s.timed_out;
    total.rejected_quota += s.rejected_quota;
    total.shed += s.shed;
    total.mismatches += s.mismatches;
    total.ok_latencies_us.insert(total.ok_latencies_us.end(),
                                 s.ok_latencies_us.begin(),
                                 s.ok_latencies_us.end());
  }

  std::uint64_t versions = 0;
  for (const std::string& name : tenant_names) {
    versions += name.empty() ? store.version_count()
                             : store.version_count(name);
  }

  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  double batches = 0.0, batch_rows = 0.0;
  for (const auto& [key, hist] : snap.histograms) {
    if (key.rfind("serve.batch_rows", 0) == 0) {
      batches += static_cast<double>(hist.count);
      batch_rows += hist.sum;
    }
  }
  const double mean_batch = batches > 0.0 ? batch_rows / batches : 0.0;

  TextTable table;
  table.set_columns({"metric", "value"}, {Align::Left, Align::Right});
  table.add_row({"mode", opt.open_loop
                             ? "open-loop (" + opt.arrival + ")"
                             : std::string("closed-loop")});
  table.add_row({"fleet", std::to_string(opt.tenants) + " tenant(s) x " +
                              std::to_string(opt.shards) + " shard(s)"});
  table.add_row({"clients x requests", std::to_string(opt.clients) + " x " +
                                           std::to_string(opt.requests)});
  table.add_row({"served ok", std::to_string(total.ok)});
  table.add_row({"rejected (queue full)", std::to_string(total.rejected_full)});
  table.add_row({"rejected (quota)", std::to_string(total.rejected_quota)});
  table.add_row({"shed (priority)", std::to_string(total.shed)});
  table.add_row({"timed out", std::to_string(total.timed_out)});
  table.add_row({"policy versions", std::to_string(versions)});
  table.add_rule();
  if (!total.ok_latencies_us.empty()) {
    table.add_row({"latency p50 (us)",
                   fixed(obs::percentile(total.ok_latencies_us, 50.0), 1)});
    table.add_row({"latency p99 (us)",
                   fixed(obs::percentile(total.ok_latencies_us, 99.0), 1)});
    table.add_row({"latency p99.9 (us)",
                   fixed(obs::percentile(total.ok_latencies_us, 99.9), 1)});
  }
  if (opt.open_loop) {
    table.add_row({"offered rate (req/s)", fixed(opt.rate_per_s, 0)});
  }
  table.add_row({"achieved (req/s)",
                 fixed(static_cast<double>(total.ok) / wall_s, 0)});
  if (!control_latencies_us.empty()) {
    table.add_row({"control probes", std::to_string(control_latencies_us.size())});
    table.add_row({"control probe p99 (us)",
                   fixed(obs::percentile(control_latencies_us, 99.0), 1)});
  }
  table.add_row({"mean micro-batch rows", fixed(mean_batch, 2)});
  std::printf("\n%s\n", table.render(2).c_str());

  if (!opt.obs_out.empty()) {
    std::ofstream out(opt.obs_out);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", opt.obs_out.c_str());
      return 1;
    }
    JsonlWriter writer(out);
    snap.write_jsonl(writer);
    std::printf("wrote %s (%zu records)\n", opt.obs_out.c_str(),
                writer.records());
  }

  if (exporter != nullptr) {
    if (opt.obs_linger_s > 0.0) {
      // The stats table above is already printed, so a scraper can compare
      // a final /metrics scrape against it while we linger.
      std::printf("obs: lingering %.1fs for scrapers on port %d...\n",
                  opt.obs_linger_s, exporter->port());
      std::fflush(stdout);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opt.obs_linger_s));
    }
    exporter->stop();
  }
  if (sampler != nullptr) sampler->stop();
  if (!opt.flight_out.empty()) {
    const std::size_t events = obs::flight_dump_to_path(opt.flight_out);
    std::printf("wrote flight dump %s (%zu events)\n", opt.flight_out.c_str(),
                events);
  }

  if (total.mismatches > 0) {
    std::fprintf(stderr,
                 "SELF-CHECK FAILED: %zu served action(s) differ from the "
                 "direct per-sample path\n",
                 total.mismatches);
    return 1;
  }
  std::printf("self-check: all %zu served actions bitwise-identical to the "
              "direct path\n",
              total.ok);
  return 0;
}
