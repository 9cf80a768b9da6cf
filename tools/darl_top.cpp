// darl_top — terminal dashboard for a live darl process.
//
//   darl_top --port P [options]
//
//   --port P          obs exporter port (the one darl_serve/darl_study
//                     printed after --obs-port)
//   --interval-ms N   refresh cadence (default 500)
//   --iterations N    stop after N refreshes (default 0 = until the
//                     process goes away)
//   --once            single snapshot, no screen clearing (scriptable)
//   --help
//
// Polls /snapshot.json and renders counters (with windowed rates from the
// sampler rings), gauges, and histogram latency percentiles. Exits 0 when
// the target stops answering after at least one successful poll (the
// normal "watched process finished" case), 1 when it never answered.

#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "darl/common/jsonl.hpp"
#include "darl/common/table.hpp"
#include "darl/obs/export.hpp"
#include "darl/obs/percentile.hpp"
#include "cli_flags.hpp"

namespace {

using namespace darl;

struct CliOptions {
  int port = -1;
  int interval_ms = 500;
  std::size_t iterations = 0;
  bool once = false;
};

[[noreturn]] void usage(int code) {
  std::printf(
      "darl_top — live dashboard for a darl obs exporter\n"
      "\n"
      "  --port P          exporter port (required)\n"
      "  --interval-ms N   refresh cadence           (default 500)\n"
      "  --iterations N    stop after N refreshes    (default 0 = follow)\n"
      "  --once            print one snapshot and exit\n"
      "  --help\n");
  std::exit(code);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opt;
  const cli::Flags flags(argc, argv, &usage);
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--port")) opt.port = flags.port(i);
    else if (!std::strcmp(a, "--interval-ms"))
      opt.interval_ms = static_cast<int>(flags.count(i, INT_MAX));
    else if (!std::strcmp(a, "--iterations")) opt.iterations = flags.count(i);
    else if (!std::strcmp(a, "--once")) opt.once = true;
    else if (!std::strcmp(a, "--help")) usage(0);
    else {
      std::fprintf(stderr, "unknown option '%s'\n", a);
      usage(2);
    }
  }
  if (opt.port <= 0 || opt.port > 65535) {
    std::fprintf(stderr, "--port is required (1..65535)\n");
    usage(2);
  }
  if (opt.interval_ms <= 0) opt.interval_ms = 500;
  return opt;
}

/// "name{k=\"v\",...}" -> "name": labeled instruments aggregate by base
/// name so a sharded fleet's per-shard counters roll up into one row.
std::string base_name(const std::string& key) {
  const auto brace = key.find('{');
  return brace == std::string::npos ? key : key.substr(0, brace);
}

/// series[key].rate_per_s when the sampler ring has one, else nan.
double series_rate(const Json& root, const std::string& key) {
  if (!root.is_object()) return std::nan("");
  const auto& obj = root.as_object();
  const auto series = obj.find("series");
  if (series == obj.end() || !series->second.is_object()) return std::nan("");
  const auto& series_obj = series->second.as_object();
  const auto node = series_obj.find(key);
  if (node == series_obj.end() || !node->second.is_object()) {
    return std::nan("");
  }
  const auto& node_obj = node->second.as_object();
  const auto rate = node_obj.find("rate_per_s");
  if (rate == node_obj.end() || !rate->second.is_number()) return std::nan("");
  return rate->second.as_number();
}

std::string render_dashboard(const Json& root) {
  const auto& top = root.as_object();
  std::string out;

  const auto uptime = top.find("uptime_s");
  if (uptime != top.end() && uptime->second.is_number()) {
    out += "uptime " + fixed(uptime->second.as_number(), 1) + "s\n\n";
  }

  const auto metrics = top.find("metrics");
  if (metrics == top.end() || !metrics->second.is_object()) {
    return out + "(no metrics in snapshot)\n";
  }
  const auto& m = metrics->second.as_object();

  TextTable table;
  table.set_columns({"instrument", "value", "rate/s"},
                    {Align::Left, Align::Right, Align::Right});
  auto rate_cell = [&](const std::string& key) {
    const double r = series_rate(root, key);
    return std::isnan(r) ? std::string("-") : fixed(r, 1);
  };
  if (const auto counters = m.find("counters");
      counters != m.end() && counters->second.is_object()) {
    for (const auto& [key, v] : counters->second.as_object()) {
      table.add_row({key, fixed(v.as_number(), 0), rate_cell(key)});
    }
  }
  if (const auto gauges = m.find("gauges");
      gauges != m.end() && gauges->second.is_object()) {
    if (table.row_count() > 0) table.add_rule();
    for (const auto& [key, v] : gauges->second.as_object()) {
      table.add_row({key, fixed(v.as_number(), 2), "-"});
    }
  }

  // Serve health: outcome counters rolled up across tenant/shard/priority
  // labels, so rejected and timed-out traffic is visible at a glance even
  // when the fleet splits it over many labeled instruments.
  struct OutcomeAgg {
    double count = 0.0;
    double rate = 0.0;
    bool present = false;
    bool has_rate = false;
  };
  const std::vector<std::pair<std::string, std::string>> kServeOutcomes = {
      {"serve.router_requests", "admitted (router)"},
      {"serve.requests", "admitted (shard)"},
      {"serve.served", "ok"},
      {"serve.rejected_full", "rejected-full"},
      {"serve.rejected_quota", "rejected-quota"},
      {"serve.rejected_shutdown", "rejected-shutdown"},
      {"serve.timed_out", "timed-out"},
      {"serve.shed", "shed"},
  };
  std::vector<OutcomeAgg> agg(kServeOutcomes.size());
  if (const auto counters = m.find("counters");
      counters != m.end() && counters->second.is_object()) {
    for (const auto& [key, v] : counters->second.as_object()) {
      const std::string base = base_name(key);
      for (std::size_t i = 0; i < kServeOutcomes.size(); ++i) {
        if (base != kServeOutcomes[i].first) continue;
        agg[i].present = true;
        agg[i].count += v.as_number();
        const double r = series_rate(root, key);
        if (!std::isnan(r)) {
          agg[i].rate += r;
          agg[i].has_rate = true;
        }
        break;
      }
    }
  }
  TextTable serve_table;
  serve_table.set_columns({"serve outcome", "count", "rate/s", "share"},
                          {Align::Left, Align::Right, Align::Right,
                           Align::Right});
  bool any_serve = false;
  for (const auto& a : agg) any_serve = any_serve || a.present;
  if (any_serve) {
    // Share denominator: router admissions when the fleet path is live,
    // else the schedulers' own admission counter.
    double admitted = agg[0].present && agg[0].count > 0 ? agg[0].count
                                                         : agg[1].count;
    for (std::size_t i = 0; i < kServeOutcomes.size(); ++i) {
      if (!agg[i].present) continue;
      std::string share = "-";
      if (i >= 2 && admitted > 0) {
        share = fixed(100.0 * agg[i].count / admitted, 1) + "%";
      }
      serve_table.add_row(
          {kServeOutcomes[i].second, fixed(agg[i].count, 0),
           agg[i].has_rate ? fixed(agg[i].rate, 1) : std::string("-"),
           share});
    }
  }

  TextTable hist_table;
  hist_table.set_columns({"histogram", "count", "p50", "p99", "rate/s"},
                         {Align::Left, Align::Right, Align::Right,
                          Align::Right, Align::Right});
  if (const auto hists = m.find("histograms");
      hists != m.end() && hists->second.is_object()) {
    for (const auto& [key, node] : hists->second.as_object()) {
      const auto& h = node.as_object();
      std::vector<double> bounds;
      std::vector<std::uint64_t> counts;
      for (const Json& b : h.at("bounds").as_array()) {
        bounds.push_back(b.as_number());
      }
      for (const Json& c : h.at("counts").as_array()) {
        counts.push_back(static_cast<std::uint64_t>(c.as_number()));
      }
      const double count = h.at("count").as_number();
      std::string p50 = "-", p99 = "-";
      if (count > 0 && counts.size() == bounds.size() + 1) {
        p50 = fixed(obs::histogram_percentile(bounds, counts, 50.0), 1);
        p99 = fixed(obs::histogram_percentile(bounds, counts, 99.0), 1);
      }
      hist_table.add_row(
          {key, fixed(count, 0), p50, p99, rate_cell(key)});
    }
  }

  if (table.row_count() > 0) {
    out += table.render(2);
    out += '\n';
  }
  if (serve_table.row_count() > 0) {
    out += '\n';
    out += serve_table.render(2);
    out += '\n';
  }
  if (hist_table.row_count() > 0) {
    out += '\n';
    out += hist_table.render(2);
    out += '\n';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse_cli(argc, argv);
  std::size_t refreshes = 0;
  bool ever_connected = false;
  for (;;) {
    std::string body;
    try {
      const obs::HttpResponse response =
          obs::http_get(opt.port, "/snapshot.json");
      if (response.status != 200) {
        std::fprintf(stderr, "darl_top: /snapshot.json returned %d\n",
                     response.status);
        return 1;
      }
      body = response.body;
    } catch (const std::exception& e) {
      if (ever_connected) {
        std::printf("darl_top: target on port %d went away; exiting\n",
                    opt.port);
        return 0;
      }
      std::fprintf(stderr, "darl_top: %s\n", e.what());
      return 1;
    }
    ever_connected = true;

    std::string dashboard;
    try {
      dashboard = render_dashboard(Json::parse(body));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "darl_top: bad snapshot: %s\n", e.what());
      return 1;
    }

    if (!opt.once) {
      std::fputs("\x1b[2J\x1b[H", stdout);  // clear + home
      std::printf("darl_top — 127.0.0.1:%d (refresh %dms)\n\n", opt.port,
                  opt.interval_ms);
    }
    std::fputs(dashboard.c_str(), stdout);
    std::fflush(stdout);

    ++refreshes;
    if (opt.once || (opt.iterations > 0 && refreshes >= opt.iterations)) {
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
  }
}
