// darl_study — command-line front end for the methodology applied to the
// airdrop case study.
//
//   darl_study [options]
//
//   --explorer {table1|random|grid|tpe|halving}   exploration stage (default table1)
//   --trials N            trial budget for random/tpe (default 12)
//   --timesteps N         training timesteps per trial (default 16384)
//   --seeds N             training seeds averaged per trial (default 2)
//   --seed N              study seed (default 42)
//   --parallel N          evaluate up to N trials concurrently (default 1)
//   --trial-retries N     re-evaluate a failed trial up to N times (default 0)
//   --trial-timeout SEC   per-attempt wall-clock timeout (default 0 = none)
//   --on-trial-failure {abort|skip}  what to do when retries run out
//   --cache PATH          campaign CSV cache ("" disables; table1 only)
//   --figure X,Y          extra Pareto plot over a metric pair (repeatable)
//   --csv PATH            write the trial table as CSV
//   --trace-out PATH      write a Chrome trace-event JSON of the run
//   --obs-out PATH        write the metrics-registry snapshot as JSONL
//   --obs-port P          live /metrics + /snapshot.json + /healthz on
//                         127.0.0.1:P while the campaign runs (0 = ephemeral)
//   --flight-out PATH     flight-recorder JSONL (dumped on trial faults,
//                         fatal signals, and at exit)
//   --distributed         run RLlib multi-node trials through real actor
//                         processes over darl/net sockets (DESIGN.md §17)
//   --worker-bin PATH     actor binary for --distributed (default:
//                         darl_worker next to this executable)
//   --verbose             log trial progress
//   --help
//
// Examples:
//   darl_study                         # the paper's Table-I campaign
//   darl_study --explorer random --trials 10
//   darl_study --explorer tpe --trials 20 --timesteps 8192

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "darl/common/jsonl.hpp"
#include "darl/common/log.hpp"
#include "darl/linalg/matrix.hpp"
#include "darl/common/rng.hpp"
#include "darl/obs/export.hpp"
#include "darl/obs/flight.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/obs/timeseries.hpp"
#include "darl/obs/trace.hpp"
#include "darl/core/airdrop_study.hpp"
#include "darl/core/ranking.hpp"
#include "darl/core/stability.hpp"
#include "darl/core/tpe.hpp"
#include "cli_flags.hpp"

namespace {

using namespace darl;
using namespace darl::core;

struct CliOptions {
  std::string explorer = "table1";
  std::size_t trials = 12;
  std::size_t timesteps = 16384;
  std::size_t seeds_per_trial = 2;
  std::uint64_t seed = 42;
  std::size_t parallel_trials = 1;
  std::size_t trial_retries = 0;
  double trial_timeout = 0.0;
  core::FailurePolicy on_trial_failure = core::FailurePolicy::Abort;
  std::string cache = "darl_table1_cache.csv";
  std::vector<std::pair<std::string, std::string>> figures;
  std::string csv_out;
  std::string report_out;
  std::string trace_out;
  std::string obs_out;
  int obs_port = -1;  ///< -1 = no exporter; 0 = ephemeral port
  std::string flight_out;
  bool distributed = false;
  std::string worker_bin;
  bool verbose = false;
  bool stability = false;
};

[[noreturn]] void usage(int code) {
  std::printf(
      "darl_study — decision-analysis campaigns on the airdrop case study\n"
      "\n"
      "  --explorer {table1|random|grid|tpe|halving}  (default table1)\n"
      "  --trials N        trial budget for random/tpe       (default 12)\n"
      "  --timesteps N     training timesteps per trial      (default 16384)\n"
      "  --seeds N         training seeds averaged per trial (default 2)\n"
      "  --seed N          study seed                        (default 42)\n"
      "  --parallel N      concurrent trial evaluations      (default 1)\n"
      "  --trial-retries N retry a failed trial up to N times (default 0)\n"
      "  --trial-timeout S per-attempt wall-clock timeout, seconds (0 = none)\n"
      "  --on-trial-failure {abort|skip}\n"
      "                    abort: rethrow after recording (default)\n"
      "                    skip: record the failure and keep going\n"
      "  --cache PATH      campaign cache (table1 only; \"\" disables)\n"
      "  --figure X,Y      extra Pareto plot over metrics X and Y\n"
      "  --csv PATH        write the trial table as CSV\n"
      "  --trace-out PATH  write a Chrome trace-event JSON (Perfetto /\n"
      "                    chrome://tracing) of the study's spans\n"
      "  --obs-out PATH    write the metrics-registry snapshot as JSONL\n"
      "  --obs-port P      expose /metrics, /snapshot.json, /healthz on\n"
      "                    127.0.0.1:P while the campaign runs (0 = pick a\n"
      "                    free port; the bound port is printed)\n"
      "  --flight-out PATH flight-recorder JSONL: dumped on trial faults,\n"
      "                    fatal signals, and at exit\n"
      "  --distributed     run RLlib multi-node trials through real actor\n"
      "                    processes over darl/net sockets\n"
      "  --worker-bin PATH actor binary for --distributed (default:\n"
      "                    darl_worker next to this executable)\n"
      "  --stability       report Pareto-front robustness under noise\n"
      "  --verbose         log per-trial progress\n");
  std::exit(code);
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions opt;
  const cli::Flags flags(argc, argv, &usage);
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) usage(0);
    else if (!std::strcmp(a, "--explorer")) opt.explorer = flags.value(i);
    else if (!std::strcmp(a, "--trials")) opt.trials = flags.count(i);
    else if (!std::strcmp(a, "--timesteps")) opt.timesteps = flags.count(i);
    else if (!std::strcmp(a, "--seeds")) opt.seeds_per_trial = flags.count(i);
    else if (!std::strcmp(a, "--seed")) opt.seed = flags.count(i);
    else if (!std::strcmp(a, "--parallel")) opt.parallel_trials = flags.count(i);
    else if (!std::strcmp(a, "--trial-retries")) opt.trial_retries = flags.count(i);
    else if (!std::strcmp(a, "--trial-timeout")) opt.trial_timeout = flags.number(i);
    else if (!std::strcmp(a, "--on-trial-failure")) {
      const std::string v = flags.value(i);
      if (v == "abort") opt.on_trial_failure = core::FailurePolicy::Abort;
      else if (v == "skip") opt.on_trial_failure = core::FailurePolicy::Skip;
      else {
        std::fprintf(stderr, "--on-trial-failure must be 'abort' or 'skip'\n");
        usage(2);
      }
    }
    else if (!std::strcmp(a, "--cache")) opt.cache = flags.value(i);
    else if (!std::strcmp(a, "--csv")) opt.csv_out = flags.value(i);
    else if (!std::strcmp(a, "--report")) opt.report_out = flags.value(i);
    else if (!std::strcmp(a, "--trace-out")) opt.trace_out = flags.value(i);
    else if (!std::strcmp(a, "--obs-out")) opt.obs_out = flags.value(i);
    else if (!std::strcmp(a, "--obs-port")) opt.obs_port = flags.port(i);
    else if (!std::strcmp(a, "--flight-out")) opt.flight_out = flags.value(i);
    else if (!std::strcmp(a, "--distributed")) opt.distributed = true;
    else if (!std::strcmp(a, "--worker-bin")) opt.worker_bin = flags.value(i);
    else if (!std::strcmp(a, "--verbose")) opt.verbose = true;
    else if (!std::strcmp(a, "--stability")) opt.stability = true;
    else if (!std::strcmp(a, "--figure")) {
      const std::string v = flags.value(i);
      const auto comma = v.find(',');
      if (comma == std::string::npos) {
        std::fprintf(stderr, "--figure needs METRIC_X,METRIC_Y\n");
        usage(2);
      }
      opt.figures.emplace_back(v.substr(0, comma), v.substr(comma + 1));
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a);
      usage(2);
    }
  }
  if (opt.trials == 0 || opt.timesteps == 0 || opt.seeds_per_trial == 0 ||
      opt.parallel_trials == 0) {
    std::fprintf(stderr,
                 "--trials/--timesteps/--seeds/--parallel must be positive\n");
    usage(2);
  }
  if (opt.trial_timeout < 0.0) {
    std::fprintf(stderr, "--trial-timeout must be non-negative\n");
    usage(2);
  }
  return opt;
}

std::unique_ptr<ExploratoryMethod> make_explorer(const CliOptions& opt,
                                                 const CaseStudyDef& def) {
  if (opt.explorer == "table1") {
    return std::make_unique<FixedListSearch>(paper_table1_configs());
  }
  if (opt.explorer == "random") {
    return std::make_unique<RandomSearch>(def.space, opt.trials, opt.seed);
  }
  if (opt.explorer == "grid") {
    return std::make_unique<GridSearch>(def.space, 2);
  }
  if (opt.explorer == "tpe") {
    TpeOptions tpe;
    tpe.n_trials = opt.trials;
    tpe.n_startup = std::max<std::size_t>(4, opt.trials / 4);
    return std::make_unique<TpeSearch>(def.space, def.metrics.def("Reward"),
                                       tpe, opt.seed);
  }
  if (opt.explorer == "halving") {
    return std::make_unique<SuccessiveHalving>(
        def.space, def.metrics.def("Reward"),
        std::max<std::size_t>(4, opt.trials), 2.0, 0.25, opt.seed);
  }
  std::fprintf(stderr, "unknown explorer '%s'\n", opt.explorer.c_str());
  usage(2);
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse_args(argc, argv);
  // Campaign CSVs are the determinism-audit artifact (check.sh compares
  // them byte-for-byte), so the fast-math tier is pinned off here no
  // matter what DARL_FAST_MATH says — only exactly-rounded kernels may
  // touch audited numbers (DESIGN.md §16).
  set_fast_math(false);
  if (opt.verbose) set_log_level(LogLevel::Info);
  // Observability is opt-in so default runs measure the bare hot paths.
  if (!opt.trace_out.empty()) obs::set_tracing_enabled(true);
  if (!opt.obs_out.empty() || opt.obs_port >= 0) obs::set_metrics_enabled(true);
  if (!opt.flight_out.empty()) {
    obs::enable_flight();
    obs::set_flight_dump_path(opt.flight_out);
    obs::install_flight_signal_handler();
  }
  std::unique_ptr<obs::TimeSeries> sampler;
  std::unique_ptr<obs::Exporter> exporter;
  if (opt.obs_port >= 0) {
    sampler = std::make_unique<obs::TimeSeries>();
    sampler->start();
    obs::ExporterOptions ex_opt;
    ex_opt.port = opt.obs_port;
    ex_opt.timeseries = sampler.get();
    exporter = std::make_unique<obs::Exporter>(ex_opt);
    exporter->start();
    std::printf("obs: exporter listening on 127.0.0.1:%d\n", exporter->port());
    std::fflush(stdout);
  }

  AirdropStudyOptions study_opts;
  study_opts.total_timesteps = opt.timesteps;
  study_opts.seeds_per_trial = opt.seeds_per_trial;
  study_opts.distributed.enabled = opt.distributed;
  study_opts.distributed.worker_bin = opt.worker_bin;
  const CaseStudyDef def = make_airdrop_case_study(study_opts);

  const StudyOptions run_opts{.seed = opt.seed,
                              .log_progress = opt.verbose,
                              .parallel_trials = opt.parallel_trials,
                              .max_retries = opt.trial_retries,
                              .trial_timeout_seconds = opt.trial_timeout,
                              .on_trial_failure = opt.on_trial_failure};
  std::vector<TrialRecord> trials;
  if (opt.explorer == "table1") {
    trials = run_table1_campaign(study_opts, opt.cache, run_opts);
  } else {
    Study study(def, make_explorer(opt, def), run_opts);
    study.run();
    trials = study.trials();
  }

  std::printf("%s\n", render_trial_table(def, trials).c_str());

  const std::string failures = render_failure_summary(trials);
  if (!failures.empty()) std::printf("%s\n", failures.c_str());

  const std::string phases = render_phase_breakdown(trials);
  if (!phases.empty()) std::printf("%s\n", phases.c_str());

  // Default figures: the paper's three trade-offs.
  auto figures = opt.figures;
  if (figures.empty()) {
    figures = {{"ComputationTime", "Reward"},
               {"ComputationTime", "PowerConsumption"},
               {"PowerConsumption", "Reward"}};
  }
  for (const auto& [x, y] : figures) {
    std::vector<std::size_t> front;
    std::printf("%s\n", render_pareto_plot(def, trials, x, y,
                                           y + " vs " + x, &front)
                            .c_str());
    std::printf("  non-dominated:");
    for (std::size_t id : front) std::printf(" #%zu", id + 1);
    std::printf("\n\n");
  }

  if (opt.stability) {
    // Failed trials carry no metrics: resample the survivors only.
    std::vector<const TrialRecord*> ok_trials;
    std::vector<std::vector<double>> points;
    for (const auto& t : trials) {
      if (!t.ok()) continue;
      ok_trials.push_back(&t);
      points.push_back(def.metrics.extract(t.metrics));
    }
    StabilityOptions sopts;
    sopts.samples = 4000;
    sopts.relative_noise = 0.03;
    sopts.absolute_stddev = {0.04, 0.0, 0.0, 0.0};  // measured reward seed noise
    Rng rng(opt.seed);
    const StabilityResult st = front_stability(points, def.metrics, sopts, rng);
    std::printf("Pareto-front membership under metric noise:\n");
    for (std::size_t k = 0; k < ok_trials.size(); ++k) {
      std::printf("  #%-2zu %5.1f%%%s\n", ok_trials[k]->id + 1,
                  100.0 * st.membership[k],
                  st.membership[k] >= 0.5 ? "  <== robust" : "");
    }
    std::printf("\n");
  }

  if (!opt.report_out.empty()) {
    std::ofstream out(opt.report_out);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", opt.report_out.c_str());
      return 1;
    }
    out << write_markdown_report(def, trials);
    std::printf("wrote %s\n", opt.report_out.c_str());
  }

  if (!opt.csv_out.empty()) {
    std::ofstream out(opt.csv_out);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", opt.csv_out.c_str());
      return 1;
    }
    write_trials_csv(out, def, trials);
    std::printf("wrote %s\n", opt.csv_out.c_str());
  }

  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", opt.trace_out.c_str());
      return 1;
    }
    const auto spans = obs::collect_spans();
    out << obs::chrome_trace_json(spans).dump() << '\n';
    std::printf("wrote %s (%zu spans%s)\n", opt.trace_out.c_str(), spans.size(),
                obs::spans_dropped() > 0 ? ", trace cap hit" : "");
  }

  if (!opt.obs_out.empty()) {
    std::ofstream out(opt.obs_out);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", opt.obs_out.c_str());
      return 1;
    }
    JsonlWriter writer(out);
    obs::Registry::global().snapshot().write_jsonl(writer);
    std::printf("wrote %s (%zu records)\n", opt.obs_out.c_str(), writer.records());
  }

  if (exporter != nullptr) exporter->stop();
  if (sampler != nullptr) sampler->stop();
  if (!opt.flight_out.empty()) {
    const std::size_t events = obs::flight_dump_to_path(opt.flight_out);
    std::printf("wrote flight dump %s (%zu events)\n", opt.flight_out.c_str(),
                events);
  }
  return 0;
}
