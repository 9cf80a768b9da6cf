// perfbench_harness — one benchmark run against darl's public APIs.
//
//   perfbench_harness --workload {campaign|serve|distributed} --seed N
//                     --seconds S --trace {0|1} --out RAW.json
//                     [--trace-out TRACE.json] [--worker-bin PATH]
//                     [--sock-dir DIR]
//
// Every input the program receives is generated from --seed. The harness
// times calls into the modules' public functions from the outside
// (core::Study::run, frameworks::Backend::run, serve::Router::serve,
// net::encode_*/decode_*, nn::Mlp::evaluate_batch, Matrix::gemm,
// env::Env::step), checks the outputs, and writes the raw samples as one
// JSON object. run.py derives the reported metrics from it.
//
// With --trace 1 the run alternates untraced and traced jobs (the pairing
// gives the tracing overhead) and reads the program's spans and registry
// during the traced ones. It then measures the layers this workload does
// not exercise with short probe versions of the other two workloads, runs
// the per-layer micro-probes, and writes every span as a Chrome trace to
// --trace-out.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "darl/airdrop/airdrop_env.hpp"
#include "darl/airdrop/spec.hpp"
#include "darl/common/error.hpp"
#include "darl/common/jsonl.hpp"
#include "darl/common/rng.hpp"
#include "darl/common/stopwatch.hpp"
#include "darl/core/airdrop_study.hpp"
#include "darl/core/explorer.hpp"
#include "darl/core/report.hpp"
#include "darl/frameworks/backend.hpp"
#include "darl/frameworks/distributed.hpp"
#include "darl/frameworks/worker.hpp"
#include "darl/linalg/matrix.hpp"
#include "darl/net/frame.hpp"
#include "darl/net/wire.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/obs/percentile.hpp"
#include "darl/obs/trace.hpp"
#include "darl/rl/checkpoint.hpp"
#include "darl/rl/factory.hpp"
#include "darl/serve/arrival.hpp"
#include "darl/serve/policy_store.hpp"
#include "darl/serve/router.hpp"

namespace {

using namespace darl;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string trace_out;
  std::string worker_bin;
  std::string sock_dir = ".";
};

/// Operations attempted and failed (failed trials, non-Ok responses, output
/// mismatches, runs that threw): the result line's counts.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Set-up is repeated and reported as a median, so one slow repetition
/// does not move setup_s.
constexpr std::size_t kSetupReps = 5;

// ---------------------------------------------------------------------------
// Shared helpers.

Json num(double v) { return Json::number(v); }

Json nums(const std::vector<double>& values) {
  Json a = Json::array();
  for (const double v : values) a.push_back(Json::number(v));
  return a;
}

/// In a --trace 1 run, job i is traced when odd: untraced and traced jobs
/// alternate so the pair medians give the tracing overhead.
bool job_traced(const Args& args, std::size_t i) { return args.trace && i % 2 == 1; }

/// The study-default airdrop environment (wind off, lowered drop altitude;
/// the template core::AirdropStudyOptions uses).
airdrop::AirdropConfig study_env(ode::RkOrder rk, airdrop::ActionMode mode) {
  airdrop::AirdropConfig cfg = core::AirdropStudyOptions().base_env;
  cfg.rk_order = rk;
  cfg.action_mode = mode;
  return cfg;
}

/// The metrics registry the per-layer metrics read: counters and gauges by
/// instrument key, histograms as {key: [count, sum]}.
Json registry_json() {
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  Json values = Json::object();
  Json histograms = Json::object();
  for (const auto& [key, value] : snap.counters) {
    values.set(key, num(static_cast<double>(value)));
  }
  for (const auto& [key, value] : snap.gauges) values.set(key, num(value));
  for (const auto& [key, h] : snap.histograms) {
    histograms.set(key, nums({static_cast<double>(h.count), h.sum}));
  }
  Json out = Json::object();
  out.set("values", values);
  out.set("histograms", histograms);
  return out;
}

/// Span totals by name over the recorded trace: {name: [count, seconds]}.
Json span_totals(const std::vector<obs::SpanRecord>& spans) {
  std::map<std::string, std::pair<double, double>> totals;
  for (const auto& s : spans) {
    auto& t = totals[s.name];
    t.first += 1.0;
    t.second += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  Json out = Json::object();
  for (const auto& [name, t] : totals) out.set(name, nums({t.first, t.second}));
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Run fn(0) .. fn(n - 1) on n threads and join them all; the first
/// exception a thread raised is rethrown after the join.
void run_threads(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&fn, &errors, i] {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Median seconds per call of `fn`, over `reps` timed blocks of `calls`.
double probe_seconds(std::size_t reps, std::size_t calls,
                     const std::function<void()>& fn) {
  std::vector<double> per_call;
  for (std::size_t r = 0; r < reps; ++r) {
    const Stopwatch sw;
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back(sw.seconds() / static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

/// A PPO policy of the study's airdrop shape, initialised from `seed`.
struct StudyPolicy {
  rl::Checkpoint checkpoint;
  env::ActionSpace action_space;
};

StudyPolicy make_study_policy(std::uint64_t seed) {
  const auto factory = airdrop::make_airdrop_factory(
      study_env(ode::RkOrder::Order3, airdrop::ActionMode::Discrete3));
  auto probe = factory();
  StudyPolicy p;
  p.action_space = probe->action_space();
  rl::AlgorithmSpec spec;
  spec.kind = rl::AlgoKind::PPO;
  auto algo = rl::make_algorithm(spec, probe->observation_space().dim(),
                                 p.action_space, seed);
  p.checkpoint.kind = rl::AlgoKind::PPO;
  p.checkpoint.obs_dim = probe->observation_space().dim();
  p.checkpoint.action_dim = p.action_space.action_dim();
  p.checkpoint.params = algo->policy_params();
  return p;
}

// ---------------------------------------------------------------------------
// Per-layer micro-probes (traced runs). Shapes follow the workloads: the SAC
// update GEMMs (batch 64, hidden 64), the served policy at batch 1 and 4,
// one airdrop step per RK order, and the distributed workload's messages.

/// One PPO worker batch of `steps` airdrop transitions (a distributed
/// iteration's per-worker message).
net::BatchMsg make_batch_msg(std::uint64_t seed, std::size_t steps) {
  const auto factory = airdrop::make_airdrop_factory(
      study_env(ode::RkOrder::Order3, airdrop::ActionMode::Discrete3));
  auto probe = factory();
  rl::AlgorithmSpec spec;
  auto algo = rl::make_algorithm(spec, probe->observation_space().dim(),
                                 probe->action_space(), seed);
  frameworks::RolloutWorker worker(0, factory(), algo->make_actor(), seed);
  worker.sync(algo->policy_params());
  net::BatchMsg msg;
  msg.transitions = worker.collect(steps).transitions;
  const frameworks::CollectCost cost = worker.take_cost();
  msg.env_cost_units = cost.env_cost_units;
  msg.inferences = cost.inferences;
  msg.steps = cost.steps;
  msg.episodes = worker.episodes();
  return msg;
}

Json run_probes(std::uint64_t seed) {
  DARL_SPAN("bench.probes");
  Json out = Json::object();
  Rng rng(Rng(seed).split(7).seed());

  {
    DARL_SPAN("bench.probe.gemm");
    auto filled = [&rng](std::size_t r, std::size_t c) {
      Matrix m(r, c);
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
      }
      return m;
    };
    struct Shape {
      const char* name;
      std::size_t m, n, k;
      bool ta, tb;
    };
    // C(m x n) = op(A) op(B) with contraction k.
    const Shape shapes[] = {
        {"nt_b64_h64", 64, 64, 64, false, true},
        {"tn_b64_h64", 64, 64, 64, true, false},
        {"nn_b64_h64", 64, 64, 64, false, false},
        {"nt_b1_h64", 1, 64, 64, false, true},
    };
    Json gemm = Json::object();
    for (const Shape& s : shapes) {
      const Matrix a = s.ta ? filled(s.k, s.m) : filled(s.m, s.k);
      const Matrix b = s.tb ? filled(s.n, s.k) : filled(s.k, s.n);
      Matrix c(s.m, s.n);
      const std::size_t calls = s.m == 1 ? 20000 : 400;
      const double sec = probe_seconds(5, calls, [&] {
        Matrix::gemm(1.0, a, s.ta, b, s.tb, c);
      });
      gemm.set(s.name, num(2.0 * static_cast<double>(s.m * s.n * s.k) / sec * 1e-9));
    }
    out.set("gemm_gflops", gemm);
  }

  const StudyPolicy policy = make_study_policy(seed);
  {
    DARL_SPAN("bench.probe.nn_eval");
    const serve::PolicySpec spec =
        serve::policy_spec_from_checkpoint(policy.checkpoint, policy.action_space);
    Rng init(seed);
    nn::Mlp net(spec.sizes, spec.activation, init);
    net.set_flat_params(spec.net_params);
    Json eval = Json::object();
    for (const std::size_t b : {std::size_t{1}, std::size_t{4}}) {
      Matrix x(b, spec.input_dim());
      for (std::size_t i = 0; i < b; ++i) {
        for (std::size_t j = 0; j < spec.input_dim(); ++j) x(i, j) = rng.uniform(-1.0, 1.0);
      }
      const double sec = probe_seconds(5, 20000, [&] { (void)net.evaluate_batch(x); });
      eval.set(b == 1 ? "b1" : "b4", num(sec * 1e6));
    }
    out.set("nn_eval_batch_us", eval);
  }

  {
    DARL_SPAN("bench.probe.env_step");
    Json step = Json::object();
    const std::pair<const char*, ode::RkOrder> orders[] = {
        {"rk3", ode::RkOrder::Order3},
        {"rk5", ode::RkOrder::Order5},
        {"rk8", ode::RkOrder::Order8}};
    for (const auto& [name, rk] : orders) {
      const auto factory = airdrop::make_airdrop_factory(
          study_env(rk, airdrop::ActionMode::Discrete3));
      auto env = factory();
      env->seed(seed);
      env->reset();
      Rng act_rng(seed);
      const double sec = probe_seconds(5, 2000, [&] {
        const env::StepResult r = env->step(env->action_space().sample(act_rng));
        if (r.done()) env->reset();
      });
      step.set(name, num(sec * 1e6));
    }
    out.set("airdrop_step_us", step);
  }

  {
    DARL_SPAN("bench.probe.net");
    Json netp = Json::object();
    // Weights travel as checkpoint-v2 text: the learner serializes each
    // published version and the actor parses it back, so the codec cost is
    // save_checkpoint + encode_weights out and decode_weights +
    // load_checkpoint in.
    auto encode_weights = [&policy] {
      std::ostringstream ck;
      rl::save_checkpoint(ck, policy.checkpoint);
      net::WeightsMsg weights;
      weights.version = 3;
      weights.checkpoint = ck.str();
      return net::encode_weights(weights);
    };
    const std::string wpayload = encode_weights();
    netp.set("weights_encode_us",
             num(probe_seconds(5, 20, [&] { (void)encode_weights(); }) * 1e6));
    netp.set("weights_decode_us", num(probe_seconds(5, 20, [&] {
                                        std::istringstream in(
                                            net::decode_weights(wpayload).checkpoint);
                                        (void)rl::load_checkpoint(in);
                                      }) *
                                      1e6));

    const net::BatchMsg batch = make_batch_msg(seed, 256);
    const std::string bpayload = net::encode_batch_msg(batch);
    netp.set("batch_encode_us",
             num(probe_seconds(5, 10, [&] { (void)net::encode_batch_msg(batch); }) * 1e6));
    netp.set("batch_decode_us",
             num(probe_seconds(5, 10, [&] { (void)net::decode_batch_msg(bpayload); }) * 1e6));

    // Frame round trip of one batch-sized payload over a socketpair: the
    // echo side reads each frame and writes it back until the prober shuts
    // its end.
    int fds[2];
    DARL_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0, "socketpair failed");
    net::OwnedFd near(fds[0]);
    net::OwnedFd far(fds[1]);
    double rt = 0.0;
    run_threads(2, [&](std::size_t side) {
      net::Frame f;
      if (side == 1) {
        while (net::read_frame(far.get(), f)) net::write_frame(far.get(), f.type, f.payload);
        return;
      }
      try {
        rt = probe_seconds(5, 10, [&] {
          net::write_frame(near.get(), 4, bpayload);
          DARL_CHECK(net::read_frame(near.get(), f), "echo closed");
        });
        DARL_CHECK(f.payload == bpayload, "frame round trip changed the payload");
      } catch (...) {
        ::shutdown(near.get(), SHUT_RDWR);
        throw;
      }
      ::shutdown(near.get(), SHUT_WR);
    });
    netp.set("frame_roundtrip_us", num(rt * 1e6));
    out.set("net", netp);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workload: campaign — the 18 Table-I configurations through core::Study.

constexpr std::size_t kCampaignWidth = 2;

core::AirdropStudyOptions campaign_options() {
  core::AirdropStudyOptions opts;
  opts.total_timesteps = 1024;
  opts.seeds_per_trial = 1;
  opts.eval_episodes = 20;
  return opts;
}

std::string trials_csv(const core::CaseStudyDef& def,
                       const std::vector<core::TrialRecord>& trials) {
  std::ostringstream os;
  core::write_trials_csv(os, def, trials);
  return os.str();
}

double metric_or_zero(const core::TrialRecord& t, const char* key) {
  const auto it = t.metrics.find(key);
  return it == t.metrics.end() ? 0.0 : it->second;
}

/// The workload, or with `probe` a two-trial version of it (#3 PPO and
/// #9 SAC, two campaigns) that a traced run of another workload uses to
/// measure the campaign's layers.
Json run_campaign(const Args& args, bool probe, Tally& tally) {
  const core::AirdropStudyOptions opts = campaign_options();
  const auto table = core::paper_table1_configs();
  const std::vector<core::LearningConfiguration> configs =
      probe ? std::vector<core::LearningConfiguration>{table[2], table[8]} : table;
  core::StudyOptions study_opts;
  study_opts.seed = args.seed;
  study_opts.log_progress = false;
  study_opts.parallel_trials = kCampaignWidth;

  // Set-up: build the case study, then one warm-up evaluation (config #3
  // at a quarter budget) so allocator pools and code pages are hot before
  // the first timed campaign. The warm-up's seed is fixed: it is not an
  // input of the measured campaign, and a fixed seed keeps its work, and
  // so setup_s, the same on every run.
  constexpr std::uint64_t kWarmupSeed = 999;
  std::vector<double> setup_s;
  core::CaseStudyDef def;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const Stopwatch sw;
    def = core::make_airdrop_case_study(opts);
    (void)def.evaluate(table[2], 0.25, kWarmupSeed);
    setup_s.push_back(sw.seconds());
  }

  // Fixed job count per run length, so the trial sample count (and with it
  // the reported tail percentile) does not depend on host speed.
  const std::size_t jobs =
      probe ? 2
            : std::max<std::size_t>(
                  2, static_cast<std::size_t>(std::lround(args.seconds / 4.0)));
  Json job_json = Json::array();
  std::vector<std::string> csvs;
  for (std::size_t j = 0; j < jobs; ++j) {
    const bool traced = job_traced(args, j);
    core::Study study(def, std::make_unique<core::FixedListSearch>(configs),
                      study_opts);
    obs::set_enabled(traced);
    const Stopwatch sw;
    {
      DARL_SPAN("bench.study_run");
      study.run();
    }
    const double wall = sw.seconds();
    obs::set_enabled(false);

    Json trials = Json::array();
    for (const auto& t : study.trials()) {
      ++tally.attempted;
      if (!t.ok()) ++tally.failed;
      Json tj = Json::object();
      tj.set("algo", Json::string(t.config.get_categorical(core::kParamAlgorithm)));
      tj.set("wall_s", num(t.wall_seconds));
      tj.set("learn_s", num(metric_or_zero(t, "LearnSeconds")));
      trials.push_back(tj);
    }
    csvs.push_back(trials_csv(def, study.trials()));
    Json jj = Json::object();
    jj.set("wall_s", num(wall));
    jj.set("traced", Json::boolean(traced));
    jj.set("trials", trials);
    job_json.push_back(jj);
  }

  // Output check: every timed campaign's CSV must be byte-identical to a
  // serial (parallel_trials = 1) run of the same campaign.
  core::StudyOptions serial_opts = study_opts;
  serial_opts.parallel_trials = 1;
  core::Study reference(def, std::make_unique<core::FixedListSearch>(configs),
                        serial_opts);
  reference.run();
  const std::string ref_csv = trials_csv(def, reference.trials());
  for (const std::string& csv : csvs) {
    ++tally.attempted;
    if (csv != ref_csv) ++tally.failed;
  }

  Json out = Json::object();
  out.set("setup_s", nums(setup_s));
  out.set("width", num(static_cast<double>(kCampaignWidth)));
  out.set("timesteps", num(static_cast<double>(opts.total_timesteps)));
  out.set("jobs", job_json);
  return out;
}

// ---------------------------------------------------------------------------
// Workload: serve — a study-shaped PPO policy behind a 1 x 1 Router.

constexpr std::size_t kServeClients = 3;
constexpr std::size_t kObsPool = 4096;
constexpr std::size_t kBurstPerClient = 2000;
constexpr double kOpenRatePerS = 3000.0;  // total over the three generators
/// Traced bursts are capped so a traced run's span buffer and Chrome trace
/// stay small; later bursts run untraced.
constexpr std::size_t kMaxTracedBursts = 20;

/// Observations of airdrop episodes acted by a uniformly random policy.
std::vector<Vec> record_observations(std::uint64_t seed, std::size_t n) {
  const auto factory = airdrop::make_airdrop_factory(
      study_env(ode::RkOrder::Order3, airdrop::ActionMode::Discrete3));
  auto env = factory();
  env->seed(seed);
  Rng rng(seed);
  std::vector<Vec> pool;
  pool.reserve(n);
  Vec obs = env->reset();
  while (pool.size() < n) {
    pool.push_back(obs);
    const env::StepResult r = env->step(env->action_space().sample(rng));
    obs = r.done() ? env->reset() : r.observation;
  }
  return pool;
}

/// Bucket bounds for closed-loop latencies: 1% wide log buckets from 0.1 us
/// to about 44 s, so memory stays fixed whatever the request rate and a
/// percentile interpolated within a bucket is within 1% of the sample's.
std::vector<double> latency_bounds_us() {
  std::vector<double> bounds;
  for (double b = 0.1; b < 4.4e7; b *= 1.01) bounds.push_back(b);
  return bounds;
}

struct ServeSetup {
  std::unique_ptr<serve::PolicyStore> store;
  std::unique_ptr<serve::Router> router;
  std::vector<Vec> pool;
  std::vector<Vec> reference;  ///< DirectPolicy action per pooled observation
};

ServeSetup serve_setup(std::uint64_t seed) {
  ServeSetup s;
  s.pool = record_observations(Rng(seed).split(2).seed(), kObsPool);
  const StudyPolicy policy = make_study_policy(Rng(seed).split(1).seed());
  s.store = std::make_unique<serve::PolicyStore>();
  s.store->publish_checkpoint(policy.checkpoint, policy.action_space);
  serve::RouterConfig cfg;
  cfg.shards = 1;
  cfg.shard.workers = 1;
  cfg.shard.queue_capacity = 4096;
  s.router = std::make_unique<serve::Router>(*s.store, cfg);
  // Warm-up: every pooled observation once, from one thread.
  for (std::size_t i = 0; i < s.pool.size(); ++i) {
    (void)s.router->serve("", i, s.pool[i]);
  }
  serve::DirectPolicy direct(s.store->current()->spec);
  s.reference.reserve(s.pool.size());
  for (const Vec& obs : s.pool) s.reference.push_back(direct.act(obs));
  return s;
}

/// Per-client tally of outcomes and bitwise checks against DirectPolicy.
struct ClientTally {
  std::size_t sent = 0;
  std::size_t non_ok = 0;
  std::size_t mismatched = 0;

  void check(const serve::Response& resp, const Vec& want) {
    ++sent;
    if (resp.outcome != serve::Outcome::Ok) {
      ++non_ok;
    } else if (resp.action.size() != want.size() ||
               std::memcmp(resp.action.data(), want.data(),
                           want.size() * sizeof(double)) != 0) {
      ++mismatched;
    }
  }
};

/// The workload, or with `probe` a 1.5-second version of it that a traced
/// run of another workload uses to measure the serving layer.
Json run_serve(const Args& args, bool probe, Tally& tally) {
  const double seconds = probe ? 1.5 : args.seconds;
  // Set-up (observations, policy, publish, Router, warm-up, DirectPolicy
  // references), repeated; the last one serves.
  std::vector<double> setup_s;
  ServeSetup s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    s.router.reset();  // a router must not outlive the store it reads
    const Stopwatch sw;
    s = serve_setup(args.seed);
    setup_s.push_back(sw.seconds());
  }
  serve::Router& router = *s.router;
  const std::vector<Vec>& pool = s.pool;

  // Request plan: client c walks the pool from a seed-drawn offset.
  Rng plan(Rng(args.seed).split(3).seed());
  std::vector<std::size_t> offsets(kServeClients);
  for (auto& o : offsets) o = plan.index(pool.size());
  std::vector<std::size_t> walked(kServeClients, 0);
  auto next_index = [&](std::size_t c) {
    return (offsets[c] + walked[c]++) % pool.size();
  };
  std::vector<ClientTally> closed_tally(kServeClients);
  std::vector<ClientTally> open_tally(kServeClients);

  // Phase A: closed loop, three clients, no think time, repeated bursts of
  // kBurstPerClient requests per client for 60% of the run. Each request is
  // timed around Router::serve. Each burst reports its own p99, so one
  // burst disturbed by the host moves only its own sample of the tail.
  const std::vector<double> bounds = latency_bounds_us();
  std::vector<std::uint64_t> counts(bounds.size() + 1, 0);
  Json bursts = Json::array();
  const double phase_a_s = 0.6 * seconds;
  const Stopwatch phase_a;
  for (std::size_t burst = 0; burst < 2 || phase_a.seconds() < phase_a_s; ++burst) {
    const bool traced = job_traced(args, burst) && burst < 2 * kMaxTracedBursts;
    std::vector<std::unique_ptr<obs::Histogram>> lat;
    for (std::size_t c = 0; c < kServeClients; ++c) {
      lat.push_back(std::make_unique<obs::Histogram>(bounds));
    }
    obs::set_enabled(traced);
    const Stopwatch sw;
    {
      DARL_SPAN("bench.serve_burst");
      run_threads(kServeClients, [&](std::size_t c) {
        for (std::size_t r = 0; r < kBurstPerClient; ++r) {
          const std::size_t idx = next_index(c);
          const Stopwatch request;
          const serve::Response resp = router.serve("", idx, pool[idx]);
          lat[c]->observe(request.seconds() * 1e6);
          closed_tally[c].check(resp, s.reference[idx]);
        }
      });
    }
    const double wall = sw.seconds();
    obs::set_enabled(false);
    std::vector<std::uint64_t> burst_counts(counts.size(), 0);
    for (const auto& h : lat) {
      const auto hc = h->counts();
      for (std::size_t i = 0; i < counts.size(); ++i) burst_counts[i] += hc[i];
    }
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += burst_counts[i];
    Json bj = Json::object();
    bj.set("wall_s", num(wall));
    bj.set("requests", num(static_cast<double>(kServeClients * kBurstPerClient)));
    bj.set("p99_us", num(obs::histogram_percentile(bounds, burst_counts, 99.0)));
    bj.set("traced", Json::boolean(traced));
    bursts.push_back(bj);
  }

  // Phase B: open loop, Poisson arrivals at kOpenRatePerS in total from the
  // same three threads for the rest of the run. Latency runs from each
  // request's scheduled send; lateness is how far behind schedule the
  // generator actually sent.
  const double phase_b_s = std::max(0.6, seconds - phase_a_s);
  std::vector<std::vector<double>> open_lat(kServeClients), late(kServeClients);
  obs::set_enabled(args.trace);
  {
    DARL_SPAN("bench.serve_open");
    const double mean_gap_s = static_cast<double>(kServeClients) / kOpenRatePerS;
    run_threads(kServeClients, [&](std::size_t c) {
      // 1 us timer slack instead of the default 50 us, so the generator
      // wakes close to each scheduled send.
      ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
      Rng rng(Rng(args.seed).split(10 + c).seed());
      serve::ArrivalProcess arrivals(serve::Arrival::Poisson, mean_gap_s);
      const auto start = std::chrono::steady_clock::now();
      double due_s = arrivals.next_gap_s(rng);
      while (due_s < phase_b_s) {
        const auto due =
            start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(due_s));
        std::this_thread::sleep_until(due);
        const auto sent = std::chrono::steady_clock::now();
        const std::size_t idx = next_index(c);
        const serve::Response resp = router.serve("", idx, pool[idx]);
        const auto done = std::chrono::steady_clock::now();
        open_lat[c].push_back(std::chrono::duration<double, std::micro>(done - due).count());
        late[c].push_back(std::chrono::duration<double, std::micro>(sent - due).count());
        open_tally[c].check(resp, s.reference[idx]);
        due_s += arrivals.next_gap_s(rng);
      }
    });
  }
  obs::set_enabled(false);
  router.shutdown();

  std::size_t closed_sent = 0, open_sent = 0, open_non_ok = 0, failed = 0;
  std::vector<double> open_all, late_all;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    closed_sent += closed_tally[c].sent;
    open_sent += open_tally[c].sent;
    open_non_ok += open_tally[c].non_ok;
    failed += closed_tally[c].non_ok + closed_tally[c].mismatched +
              open_tally[c].non_ok + open_tally[c].mismatched;
    open_all.insert(open_all.end(), open_lat[c].begin(), open_lat[c].end());
    late_all.insert(late_all.end(), late[c].begin(), late[c].end());
  }
  tally.attempted += closed_sent + open_sent;
  tally.failed += failed;

  Json open = Json::object();
  open.set("rate_per_s", num(kOpenRatePerS));
  open.set("sent", num(static_cast<double>(open_sent)));
  open.set("failed", num(static_cast<double>(open_non_ok)));
  open.set("latency_us", nums(open_all));
  open.set("gen_late_us", nums(late_all));
  Json out = Json::object();
  out.set("setup_s", nums(setup_s));
  out.set("clients", num(static_cast<double>(kServeClients)));
  out.set("bursts", bursts);
  out.set("p50_us", num(obs::histogram_percentile(bounds, counts, 50.0)));
  out.set("open", open);
  out.set("requests", num(static_cast<double>(closed_sent + open_sent)));
  out.set("failed", num(static_cast<double>(failed)));
  return out;
}

// ---------------------------------------------------------------------------
// Workload: distributed — Table-I solution #1 over a real actor process.

/// rk3 / RLlib / PPO / 2 nodes x 2 cores, with the campaign's RLlib PPO
/// profile; `iterations` iterations of 1024 transitions.
frameworks::TrainRequest dist_request(std::uint64_t seed, std::size_t iterations) {
  const airdrop::AirdropConfig env_cfg =
      study_env(ode::RkOrder::Order3, airdrop::ActionMode::Discrete3);
  frameworks::TrainRequest req;
  req.env_factory = airdrop::make_airdrop_factory(env_cfg);
  req.env_spec = airdrop::encode_airdrop_spec(env_cfg);
  req.algo.kind = rl::AlgoKind::PPO;
  req.algo.ppo.epochs = 6;
  req.algo.ppo.minibatch_size = 128;
  req.algo.ppo.clip_epsilon = 0.3;
  req.algo.ppo.learning_rate = 1e-4;
  req.deployment.nodes = 2;
  req.deployment.cores_per_node = 2;
  req.train_batch_total = 1024;
  req.total_timesteps = iterations * 1024;
  req.eval_episodes = 10;
  req.seed = seed;
  return req;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Bitwise equality of everything a TrainResult reports except wall times.
bool same_result(const frameworks::TrainResult& a, const frameworks::TrainResult& b) {
  return same_bits(a.reward, b.reward) && same_bits(a.sim_seconds, b.sim_seconds) &&
         same_bits(a.sim_energy_joules, b.sim_energy_joules) &&
         same_bits(a.reward_stddev, b.reward_stddev) &&
         same_bits(a.train_reward, b.train_reward) &&
         same_bits(a.net_staleness, b.net_staleness) && a.timesteps == b.timesteps &&
         a.episodes == b.episodes && a.iterations == b.iterations &&
         same_bits(a.final_policy_loss, b.final_policy_loss) &&
         same_bits(a.final_value_loss, b.final_value_loss) &&
         same_bits(a.final_entropy, b.final_entropy) &&
         a.final_policy.size() == b.final_policy.size() &&
         std::memcmp(a.final_policy.data(), b.final_policy.data(),
                     a.final_policy.size() * sizeof(double)) == 0;
}

Json phases_json(const frameworks::TrainResult& r, double wall) {
  Json j = Json::object();
  j.set("wall_s", num(wall));
  j.set("collect_s", num(r.collect_wall_seconds));
  j.set("learn_s", num(r.learn_wall_seconds));
  j.set("sync_s", num(r.sync_wall_seconds));
  j.set("iterations", num(static_cast<double>(r.iterations)));
  j.set("timesteps", num(static_cast<double>(r.timesteps)));
  return j;
}

/// The workload, or with `probe` two 4-iteration runs that a traced run of
/// another workload uses to measure the distributed layers.
Json run_distributed(const Args& args, bool probe, Tally& tally) {
  const frameworks::TrainRequest req =
      dist_request(Rng(args.seed).split(4).seed(), probe ? 4 : 16);
  const double seconds = probe ? 0.0 : args.seconds;
  frameworks::DistributedOptions dist;
  dist.enabled = true;
  dist.worker_bin = args.worker_bin;
  dist.endpoint = "unix:" + args.sock_dir + "/perfbench_" + std::to_string(::getpid()) + ".sock";
  dist.connect_timeout_s = 30.0;
  dist.io_timeout_s = 60.0;

  // Every run trains the same request; a run that throws counts as failed.
  Json jobs = Json::array();
  std::vector<frameworks::TrainResult> results;
  std::size_t errors = 0;
  const Stopwatch elapsed;
  for (std::size_t j = 0; j < 2 || elapsed.seconds() < seconds; ++j) {
    const bool traced = job_traced(args, j);
    frameworks::DistributedRllibBackend backend(dist);
    ++tally.attempted;
    obs::set_enabled(traced);
    const Stopwatch sw;
    try {
      DARL_SPAN("bench.dist_run");
      results.push_back(backend.run(req));
    } catch (const std::exception& e) {
      obs::set_enabled(false);
      std::fprintf(stderr, "distributed run failed: %s\n", e.what());
      if (++errors > 2) break;
      continue;
    }
    const double wall = sw.seconds();
    obs::set_enabled(false);
    Json jj = phases_json(results.back(), wall);
    jj.set("traced", Json::boolean(traced));
    jobs.push_back(jj);
  }

  // Output check: the in-process RllibBackend on the same request must give
  // a bitwise-identical TrainResult. Three runs, so the in-process phase
  // times are steady enough to subtract from the remote ones.
  Json inproc = Json::array();
  frameworks::TrainResult reference;
  for (int rep = 0; rep < 3; ++rep) {
    frameworks::RllibBackend local;
    const Stopwatch sw;
    reference = local.run(req);
    inproc.push_back(phases_json(reference, sw.seconds()));
  }
  tally.failed += errors;
  for (const auto& r : results) {
    if (!same_result(r, reference)) ++tally.failed;
  }

  Json out = Json::object();
  out.set("jobs", jobs);
  out.set("inproc", inproc);
  return out;
}

// ---------------------------------------------------------------------------

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload {campaign|serve|distributed} "
               "--seed N --seconds S --trace {0|1} --out PATH\n"
               "       [--trace-out PATH] [--worker-bin PATH] [--sock-dir DIR]\n");
  std::exit(code);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(2);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--worker-bin") a.worker_bin = v;
    else if (k == "--sock-dir") a.sock_dir = v;
    else usage(2);
  }
  if (a.out.empty() || a.seconds <= 0.0) usage(2);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  set_fast_math(false);  // the strict tier campaigns and the audit use
  obs::set_enabled(false);

  using RunFn = Json (*)(const Args&, bool, Tally&);
  const std::pair<const char*, RunFn> workloads[] = {
      {"campaign", run_campaign},
      {"serve", run_serve},
      {"distributed", run_distributed}};
  const auto self = std::find_if(std::begin(workloads), std::end(workloads),
                                 [&](const auto& w) { return args.workload == w.first; });
  if (self == std::end(workloads)) usage(2);

  Tally tally;
  Json sections = Json::object();
  try {
    // The workload itself; a traced run then measures the layers the
    // workload does not exercise with short probe versions of the other
    // two, each with its own registry and span snapshot.
    std::vector<obs::SpanRecord> all_spans;
    for (const auto& [name, run] : workloads) {
      const bool probe = name != self->first;
      if (probe && !args.trace) continue;
      obs::Registry::global().reset();
      obs::clear_spans();
      Json section = run(args, probe, tally);
      if (args.trace) {
        const std::vector<obs::SpanRecord> spans = obs::collect_spans();
        section.set("registry", registry_json());
        section.set("spans", span_totals(spans));
        section.set("spans_dropped", num(static_cast<double>(obs::spans_dropped())));
        all_spans.insert(all_spans.end(), spans.begin(), spans.end());
      }
      sections.set(name, section);
    }
    if (args.trace) {
      sections.set("probes", run_probes(args.seed));
      if (!args.trace_out.empty()) {
        std::ofstream tf(args.trace_out);
        tf << obs::chrome_trace_json(all_spans).dump();
        if (!tf) throw Error("cannot write '" + args.trace_out + "'");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }

  Json host = Json::object();
  host.set("compiler", Json::string(PERFBENCH_COMPILER));
  host.set("cxx_flags", Json::string(PERFBENCH_CXX_FLAGS));
  host.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
  host.set("fast_math", Json::boolean(fast_math_active()));
  const char* threads = std::getenv("DARL_LINALG_THREADS");
  host.set("darl_linalg_threads", Json::string(threads != nullptr ? threads : ""));
  Json raw = Json::object();
  raw.set("host", host);
  raw.set("attempted", num(static_cast<double>(tally.attempted)));
  raw.set("failed", num(static_cast<double>(tally.failed)));
  raw.set("peak_rss_mb", num(peak_rss_mb()));
  raw.set("sections", sections);

  std::ofstream out(args.out);
  out << raw.dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "perfbench_harness: cannot write '%s'\n", args.out.c_str());
    return 1;
  }
  return 0;
}
