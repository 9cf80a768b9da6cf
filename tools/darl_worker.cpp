// darl_worker — one process of the multi-process actor–learner runtime
// (DESIGN.md §17).
//
//   darl_worker --role actor --connect EP --node N [options]
//   darl_worker --role learner --listen EP --nodes N [options]
//
// The learner role runs one RLlib-style training job end to end: it
// listens on EP ("tcp:PORT" or "unix:/path.sock"), waits for nodes-1
// actor processes (or spawns them itself with --spawn-actors 1), streams
// versioned weights out and trajectory batches in, and prints the
// TrainResult summary. The actor role connects to a learner, receives
// its Job, and serves collection until Stop.
//
// Actor options:
//   --connect EP          learner endpoint (required)
//   --node N              which node this actor plays, >= 1 (required)
//   --connect-timeout S   deadline to reach the learner (default 30)
//   --io-timeout S        bound on each send syscall and each whole
//                         received frame (default 120)
//
// Learner options:
//   --listen EP           endpoint to bind (default unix socket in /tmp)
//   --nodes N             deployment size incl. the learner (default 2)
//   --cores N             workers per node (default 2)
//   --timesteps N         total training timesteps (default 4096)
//   --batch-total N       transitions per learner update (default 1024)
//   --algo {ppo|sac}      algorithm (default ppo)
//   --seed N              training seed (default 1)
//   --spawn-actors {0|1}  spawn the remote actors itself (default 1)
//   --obs-port P          live /metrics endpoint on 127.0.0.1:P while
//                         training (0 = ephemeral; port is printed)
//   --obs-linger-s S      keep the exporter up S seconds after the run
//                         so harnesses (check.sh) can scrape the final
//                         net_* counters before the process exits
//   --connect-timeout S / --io-timeout S   as above

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "darl/airdrop/airdrop_env.hpp"
#include "darl/airdrop/spec.hpp"
#include "darl/common/error.hpp"
#include "darl/common/log.hpp"
#include "darl/frameworks/distributed.hpp"
#include "darl/obs/export.hpp"
#include "darl/obs/metrics.hpp"
#include "cli_flags.hpp"

namespace {

using namespace darl;

struct CliOptions {
  std::string role;
  std::string connect;
  std::string listen;
  std::size_t node = 0;
  std::size_t nodes = 2;
  std::size_t cores = 2;
  std::size_t timesteps = 4096;
  std::size_t batch_total = 1024;
  std::string algo = "ppo";
  std::uint64_t seed = 1;
  bool spawn_actors = true;
  int obs_port = -1;
  double obs_linger_s = 0.0;
  double connect_timeout_s = 30.0;
  double io_timeout_s = 120.0;
  bool verbose = false;
};

[[noreturn]] void usage(int code) {
  std::printf(
      "darl_worker — multi-process actor–learner runtime\n"
      "\n"
      "  --role {actor|learner}   (required)\n"
      "\n"
      "actor:   --connect EP --node N [--connect-timeout S] [--io-timeout S]\n"
      "learner: [--listen EP] [--nodes N] [--cores N] [--timesteps N]\n"
      "         [--batch-total N] [--algo ppo|sac] [--seed N]\n"
      "         [--spawn-actors 0|1] [--obs-port P] [--obs-linger-s S]\n"
      "         [--connect-timeout S] [--io-timeout S]\n"
      "\n"
      "  --io-timeout S  bound on each send syscall and each whole received\n"
      "                  frame, on either role (default 120)\n");
  std::exit(code);
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions opt;
  const cli::Flags flags(argc, argv, &usage);
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) usage(0);
    else if (!std::strcmp(a, "--role")) opt.role = flags.value(i);
    else if (!std::strcmp(a, "--connect")) opt.connect = flags.value(i);
    else if (!std::strcmp(a, "--listen")) opt.listen = flags.value(i);
    else if (!std::strcmp(a, "--node")) opt.node = flags.count(i);
    else if (!std::strcmp(a, "--nodes")) opt.nodes = flags.count(i);
    else if (!std::strcmp(a, "--cores")) opt.cores = flags.count(i);
    else if (!std::strcmp(a, "--timesteps")) opt.timesteps = flags.count(i);
    else if (!std::strcmp(a, "--batch-total")) opt.batch_total = flags.count(i);
    else if (!std::strcmp(a, "--algo")) opt.algo = flags.value(i);
    else if (!std::strcmp(a, "--seed")) opt.seed = flags.count(i);
    else if (!std::strcmp(a, "--spawn-actors")) opt.spawn_actors = flags.count(i, 1) != 0;
    else if (!std::strcmp(a, "--obs-port")) opt.obs_port = flags.port(i);
    else if (!std::strcmp(a, "--obs-linger-s")) opt.obs_linger_s = flags.number(i);
    else if (!std::strcmp(a, "--connect-timeout")) opt.connect_timeout_s = flags.number(i);
    else if (!std::strcmp(a, "--io-timeout")) opt.io_timeout_s = flags.number(i);
    else if (!std::strcmp(a, "--verbose")) opt.verbose = true;
    else {
      std::fprintf(stderr, "unknown option '%s'\n", a);
      usage(2);
    }
  }
  return opt;
}

/// The worker binary's env-spec resolver: recognizes the airdrop codec
/// (the one case study this tree ships). A foreign spec is a protocol
/// error, not a crash.
env::EnvFactory resolve_env_spec(const std::string& spec) {
  DARL_CHECK(airdrop::is_airdrop_spec(spec),
             "unrecognized env spec (expected '"
                 << airdrop::kAirdropSpecMagic << "')");
  return airdrop::airdrop_factory_from_spec(spec);
}

int run_actor_role(const CliOptions& opt) {
  if (opt.connect.empty() || opt.node == 0) {
    std::fprintf(stderr, "--role actor needs --connect EP and --node N>=1\n");
    usage(2);
  }
  const std::size_t iterations = frameworks::run_actor(
      opt.connect, opt.node, resolve_env_spec, opt.connect_timeout_s,
      opt.io_timeout_s);
  std::printf("actor node %zu: served %zu iteration(s)\n", opt.node,
              iterations);
  return 0;
}

int run_learner_role(const CliOptions& opt) {
  if (opt.nodes < 2) {
    std::fprintf(stderr, "--role learner needs --nodes >= 2\n");
    usage(2);
  }
  std::unique_ptr<obs::Exporter> exporter;
  if (opt.obs_port >= 0) {
    obs::set_metrics_enabled(true);
    obs::ExporterOptions ex_opt;
    ex_opt.port = opt.obs_port;
    exporter = std::make_unique<obs::Exporter>(ex_opt);
    exporter->start();
    std::printf("obs: exporter listening on 127.0.0.1:%d\n", exporter->port());
    std::fflush(stdout);
  }

  // The study-default environment (wind off, lowered drop altitude), the
  // same template AirdropStudyOptions uses.
  airdrop::AirdropConfig env_cfg;
  env_cfg.wind_enabled = false;
  env_cfg.gusts_enabled = false;
  env_cfg.altitude_min = 30.0;
  env_cfg.altitude_max = 300.0;
  frameworks::TrainRequest request;
  if (opt.algo == "ppo") {
    request.algo.kind = rl::AlgoKind::PPO;
  } else if (opt.algo == "sac") {
    request.algo.kind = rl::AlgoKind::SAC;
    env_cfg.action_mode = airdrop::ActionMode::Continuous;
  } else {
    std::fprintf(stderr, "--algo must be 'ppo' or 'sac'\n");
    usage(2);
  }
  request.env_factory = airdrop::make_airdrop_factory(env_cfg);
  request.env_spec = airdrop::encode_airdrop_spec(env_cfg);
  request.deployment.nodes = opt.nodes;
  request.deployment.cores_per_node = opt.cores;
  request.total_timesteps = opt.timesteps;
  request.train_batch_total = opt.batch_total;
  request.seed = opt.seed;

  frameworks::DistributedOptions dist;
  dist.enabled = true;
  dist.endpoint = opt.listen;
  dist.spawn_actors = opt.spawn_actors;
  dist.connect_timeout_s = opt.connect_timeout_s;
  dist.io_timeout_s = opt.io_timeout_s;
  frameworks::DistributedRllibBackend backend(dist);
  const frameworks::TrainResult result = backend.run(request);

  std::printf(
      "learner: %zu iterations, %zu timesteps, %zu episodes\n"
      "  reward          %.4f (stddev %.4f)\n"
      "  net staleness   %.4f versions (mean over consumed batches)\n"
      "  sim time        %.2f s, sim energy %.1f J\n"
      "  wall time       %.2f s\n",
      result.iterations, result.timesteps, result.episodes, result.reward,
      result.reward_stddev, result.net_staleness, result.sim_seconds,
      result.sim_energy_joules, result.wall_seconds);
  std::printf("learner: run complete\n");
  if (exporter && opt.obs_linger_s > 0.0) {
    // Same contract as darl_serve: the "lingering" line tells a harness
    // the final counters are registered and scrapeable.
    std::printf("obs: lingering %.1f s for scrapes\n", opt.obs_linger_s);
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(opt.obs_linger_s));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse_args(argc, argv);
  if (opt.verbose) set_log_level(LogLevel::Info);
  set_fast_math(false);  // audited numbers only (DESIGN.md §16)
  try {
    if (opt.role == "actor") return run_actor_role(opt);
    if (opt.role == "learner") return run_learner_role(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "darl_worker (%s): %s\n", opt.role.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "--role must be 'actor' or 'learner'\n");
  usage(2);
}
