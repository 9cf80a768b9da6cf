// tests/test_obs_live.cpp — the wire-exposed telemetry path end to end:
// obs::Exporter over a real loopback socket (valid responses, malformed
// requests, concurrent scrapes during a live BatchScheduler run), the
// scraped-counters-match-server-stats acceptance bar, and the flight
// recorder's dump-on-trial-fault hook driven through a real fault-injection
// campaign. The concurrency tests get real teeth in the TSan tree that
// tools/check.sh builds.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "darl/common/error.hpp"
#include "darl/common/jsonl.hpp"
#include "darl/common/rng.hpp"
#include "darl/common/stopwatch.hpp"
#include "darl/core/explorer.hpp"
#include "darl/core/fault_injection.hpp"
#include "darl/core/study.hpp"
#include "darl/net/socket.hpp"
#include "darl/obs/export.hpp"
#include "darl/obs/flight.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/obs/timeseries.hpp"
#include "darl/rl/factory.hpp"
#include "darl/serve/batch_scheduler.hpp"
#include "darl/serve/policy_store.hpp"

using namespace darl;
using namespace darl::serve;

namespace {

/// Connect to the exporter on loopback, or an invalid fd when the
/// exporter is gone (the 1s deadline keeps a dead-port probe fast).
net::OwnedFd connect_exporter(int port) {
  net::Endpoint ep;
  ep.kind = net::Endpoint::Kind::Tcp;
  ep.port = port;
  try {
    return net::connect_endpoint(ep, 1.0);
  } catch (const net::NetError&) {
    return net::OwnedFd{};
  }
}

/// Send raw bytes to the exporter and return the response status code
/// (0 when the connection failed or no status line came back). Lets the
/// malformed-request tests step outside what obs::http_get can produce;
/// the byte shuffling itself goes through the darl/net transport helpers
/// (the naked-socket-call lint rule bans raw recv/send here too).
int raw_request_status(int port, const std::string& request) {
  net::OwnedFd fd = connect_exporter(port);
  if (!fd.valid()) return 0;
  net::send_all(fd.get(), request);  // a cut-off mid-send still gets a read
  const std::string response = net::recv_until_eof(fd.get());
  // "HTTP/1.0 NNN ..."
  const std::size_t sp = response.find(' ');
  if (sp == std::string::npos || sp + 4 > response.size()) return 0;
  return std::atoi(response.c_str() + sp + 1);
}

/// Drip-feed `bytes` to the exporter one byte at a time, `gap_ms` apart,
/// never completing a request line; then read whatever the server answers
/// and return its status (0 = connection refused / no status line). This
/// is the hostile-client shape that used to head-of-line block the
/// single-threaded accept loop for hours: each byte re-armed the per-recv
/// timeout, so the connection never timed out as a whole.
int drip_request_status(int port, std::size_t bytes, int gap_ms) {
  net::OwnedFd fd = connect_exporter(port);
  if (!fd.valid()) return 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    // The server is expected to cut us off mid-drip; send_all's
    // MSG_NOSIGNAL turns that into an error return that ends the loop
    // instead of a SIGPIPE that takes the test binary down.
    if (net::send_all(fd.get(), "G", 1).status != net::IoStatus::Ok) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
  }
  const std::string response = net::recv_until_eof(fd.get());
  const std::size_t sp = response.find(' ');
  if (sp == std::string::npos || sp + 4 > response.size()) return 0;
  return std::atoi(response.c_str() + sp + 1);
}

/// The value of one series line in a Prometheus text body, or -1.
double prometheus_value(const std::string& text, const std::string& series) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, series.size() + 1, series + ' ') == 0) {
      return std::atof(line.c_str() + series.size() + 1);
    }
  }
  return -1.0;
}

PolicySpec make_spec(std::uint64_t seed) {
  PolicySpec spec;
  spec.sizes = {4, 16, 3};
  spec.activation = nn::Activation::Tanh;
  Rng rng(seed);
  nn::Mlp net(spec.sizes, spec.activation, rng);
  spec.net_params = net.get_flat_params();
  spec.action_space = env::ActionSpace(env::DiscreteSpace(3));
  spec.head = rl::PolicyHead::Categorical;
  return spec;
}

/// Exporter tests drive a private registry/sampler so the global metrics
/// gate (off by default in the test binary) stays untouched.
class ExporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry = std::make_unique<obs::Registry>();
    sampler = std::make_unique<obs::TimeSeries>(obs::TimeSeriesOptions{
        .capacity = 32, .period_ms = 1000, .registry = registry.get()});
    exporter = std::make_unique<obs::Exporter>(obs::ExporterOptions{
        .port = 0, .registry = registry.get(), .timeseries = sampler.get()});
  }
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::TimeSeries> sampler;
  std::unique_ptr<obs::Exporter> exporter;
};

}  // namespace

// ---------------------------------------------------------------------------
// Exporter endpoints

TEST_F(ExporterTest, ServesHealthMetricsAndSnapshot) {
  registry->counter("live.requests").add(5);
  registry->gauge("live.depth").set(2.0);
  registry->histogram("live.latency_us", {10.0, 100.0}).observe(42.0);
  sampler->sample_once();
  registry->counter("live.requests").add(5);
  sampler->sample_once();

  exporter->start();
  ASSERT_TRUE(exporter->running());
  ASSERT_GT(exporter->port(), 0);

  const obs::HttpResponse health = obs::http_get(exporter->port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const obs::HttpResponse metrics = obs::http_get(exporter->port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE live_requests counter"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("live_requests 10"), std::string::npos);
  EXPECT_NE(metrics.body.find("live_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);

  const obs::HttpResponse snap =
      obs::http_get(exporter->port(), "/snapshot.json");
  EXPECT_EQ(snap.status, 200);
  const Json doc = Json::parse(snap.body);
  const auto& top = doc.as_object();
  EXPECT_TRUE(top.at("uptime_s").is_number());
  const auto& counters =
      top.at("metrics").as_object().at("counters").as_object();
  EXPECT_DOUBLE_EQ(counters.at("live.requests").as_number(), 10.0);
  // The sampler's ring tail rides along for rate/percentile rendering.
  const auto& series = top.at("series").as_object();
  EXPECT_EQ(series.at("live.requests").as_object().at("points").as_array()
                .size(),
            2u);

  EXPECT_EQ(obs::http_get(exporter->port(), "/nope").status, 404);
  EXPECT_GE(exporter->requests_served(), 4u);

  exporter->stop();
  EXPECT_FALSE(exporter->running());
  EXPECT_THROW(obs::http_get(exporter->port(), "/healthz"), Error);
}

TEST_F(ExporterTest, AnswersMalformedRequestsWithoutDying) {
  exporter->start();
  const int port = exporter->port();

  EXPECT_EQ(raw_request_status(port, "garbage\r\n"), 400);
  EXPECT_EQ(raw_request_status(port, "\r\n"), 400);
  EXPECT_EQ(raw_request_status(port, "POST /metrics HTTP/1.0\r\n\r\n"), 405);
  EXPECT_EQ(raw_request_status(port, "GET /metrics/extra HTTP/1.0\r\n\r\n"),
            404);
  // Query strings are ignored, not 404ed.
  EXPECT_EQ(raw_request_status(port, "GET /healthz?probe=1 HTTP/1.0\r\n\r\n"),
            200);

  // The listener survived all of the above.
  EXPECT_EQ(obs::http_get(port, "/healthz").status, 200);
}

TEST_F(ExporterTest, HealthzAnswersFastWhileDripFeederHoldsAConnection) {
  exporter->start();
  const int port = exporter->port();

  // A drip-feeder that never completes its request line: one byte every
  // 50 ms for ~1.5 s (inside the 2 s connection deadline, and fewer sends
  // than the read budget, so the hold is as long as the server allows).
  std::atomic<int> drip_status{-1};
  std::thread dripper([&] { drip_status = drip_request_status(port, 30, 50); });

  // Give the drip connection time to land on a handler, then demand
  // health probes stay fast while it is being held. Before the handler
  // pool + total deadline, this is exactly the case that wedged /healthz
  // for the duration of the drip (hours, at one byte per 2 s timeout).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int probe = 0; probe < 5; ++probe) {
    Stopwatch latency;
    const obs::HttpResponse health = obs::http_get(port, "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_LT(latency.seconds(), 0.1) << "probe " << probe;
  }

  dripper.join();
  // The drip connection itself was eventually answered 408 and counted.
  EXPECT_EQ(drip_status.load(), 408);
  EXPECT_GE(exporter->connections_dropped(), 1u);
  EXPECT_EQ(obs::http_get(port, "/healthz").status, 200);
}

TEST_F(ExporterTest, SlowClientIsCutOffByTheConnectionDeadline) {
  obs::ExporterOptions opt;
  opt.port = 0;
  opt.registry = registry.get();
  opt.connection_deadline_s = 0.3;
  obs::Exporter slow_exporter(opt);
  slow_exporter.start();
  const int port = slow_exporter.port();

  // Each 50 ms byte used to re-arm the per-recv timeout indefinitely; the
  // wall-clock deadline now ends the connection at ~0.3 s regardless.
  Stopwatch held;
  const int status = drip_request_status(port, 100, 50);
  EXPECT_EQ(status, 408);
  EXPECT_LT(held.seconds(), 2.0);
  EXPECT_GE(slow_exporter.connections_dropped(), 1u);

  // A silent connection (no bytes at all) is bounded the same way.
  Stopwatch silent_held;
  EXPECT_EQ(drip_request_status(port, 0, 0), 408);
  EXPECT_LT(silent_held.seconds(), 2.0);

  EXPECT_EQ(obs::http_get(port, "/healthz").status, 200);
  slow_exporter.stop();
}

TEST_F(ExporterTest, ReadBudgetCutsOffByteAtATimeClients) {
  obs::ExporterOptions opt;
  opt.port = 0;
  opt.registry = registry.get();
  opt.connection_deadline_s = 30.0;  // deadline alone would take too long
  opt.max_request_reads = 4;
  obs::Exporter budget_exporter(opt);
  budget_exporter.start();
  const int port = budget_exporter.port();

  // 10 ms gaps keep each byte in its own recv(): the read budget (4)
  // trips long before the 30 s deadline would.
  Stopwatch held;
  EXPECT_EQ(drip_request_status(port, 20, 10), 408);
  EXPECT_LT(held.seconds(), 5.0);
  EXPECT_GE(budget_exporter.connections_dropped(), 1u);

  // Legitimate requests that arrive in a few reads are untouched.
  EXPECT_EQ(obs::http_get(port, "/healthz").status, 200);
  budget_exporter.stop();
}

TEST_F(ExporterTest, RestartAfterStopBindsAFreshPort) {
  exporter->start();
  const int first = exporter->port();
  EXPECT_EQ(obs::http_get(first, "/healthz").status, 200);
  exporter->stop();
  exporter->start();
  EXPECT_GT(exporter->port(), 0);
  EXPECT_EQ(obs::http_get(exporter->port(), "/healthz").status, 200);
  exporter->stop();
}

// ---------------------------------------------------------------------------
// Live serve: concurrent scrapes + scraped-counters-match-stats acceptance

TEST(ObsLiveServe, ConcurrentScrapesDuringBatchedServingStayConsistent) {
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);

  PolicyStore store;
  store.publish(make_spec(11));
  ServeConfig config;
  config.max_batch = 8;
  config.workers = 2;

  obs::TimeSeries sampler(obs::TimeSeriesOptions{.capacity = 64,
                                                 .period_ms = 1});
  sampler.start();
  obs::Exporter exporter;
  exporter.start();

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 200;
  std::atomic<std::uint64_t> ok_served{0};
  {
    BatchScheduler server(store, config);
    std::atomic<bool> scrape_stop{false};
    std::vector<std::thread> scrapers;
    for (int s = 0; s < 2; ++s) {
      scrapers.emplace_back([&exporter, &scrape_stop] {
        while (!scrape_stop.load(std::memory_order_relaxed)) {
          const obs::HttpResponse m =
              obs::http_get(exporter.port(), "/metrics");
          EXPECT_EQ(m.status, 200);
          const obs::HttpResponse j =
              obs::http_get(exporter.port(), "/snapshot.json");
          EXPECT_EQ(j.status, 200);
          EXPECT_NO_THROW(Json::parse(j.body));
        }
      });
    }

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&server, &ok_served, c] {
        Rng rng(100 + static_cast<std::uint64_t>(c));
        Vec obs_vec(4);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          for (double& v : obs_vec) v = rng.uniform(-1.0, 1.0);
          const Response r = server.serve(obs_vec, 1e6);
          if (r.outcome == Outcome::Ok) {
            ok_served.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    scrape_stop.store(true, std::memory_order_relaxed);
    for (auto& t : scrapers) t.join();
    server.shutdown();
  }
  sampler.stop();

  // Acceptance bar: the wire-scraped counter equals both the registry's
  // view and the ground truth the clients observed.
  const obs::HttpResponse metrics =
      obs::http_get(exporter.port(), "/metrics");
  ASSERT_EQ(metrics.status, 200);
  const double scraped = prometheus_value(metrics.body, "serve_served");
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(static_cast<std::uint64_t>(scraped),
            snap.counters.at("serve.served"));
  EXPECT_EQ(static_cast<std::uint64_t>(scraped),
            ok_served.load(std::memory_order_relaxed));
  EXPECT_EQ(ok_served.load(std::memory_order_relaxed),
            static_cast<std::uint64_t>(kClients) * kRequestsPerClient);
  EXPECT_GE(sampler.samples_taken(), 2u);

  exporter.stop();
  obs::set_metrics_enabled(false);
  obs::Registry::global().reset();
}

// ---------------------------------------------------------------------------
// Flight recorder: dump-on-trial-fault through a real campaign

TEST(ObsLiveFlight, TrialFaultProducesANonEmptyFlightDump) {
  const std::string dump_path = "test_obs_live_flight.jsonl";
  std::remove(dump_path.c_str());

  obs::flight_clear();
  obs::enable_flight();
  obs::set_flight_dump_path(dump_path);

  core::FaultInjectionOptions fi;
  fi.throw_probability = 1.0;  // every attempt fails -> dump guaranteed
  const core::CaseStudyDef def = core::make_fault_injection_case_study(fi);
  core::Study study(def,
                    std::make_unique<core::GridSearch>(def.space, 2),
                    {.seed = 3,
                     .log_progress = false,
                     .max_retries = 0,
                     .on_trial_failure = core::FailurePolicy::Skip});
  EXPECT_NO_THROW(study.run());

  obs::disable_flight();
  obs::set_flight_dump_path(std::string());

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "study fault did not write " << dump_path;
  std::string line;
  std::size_t records = 0;
  bool saw_failure_note = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    const Json record = Json::parse(line);  // throws on malformed output
    const auto& obj = record.as_object();
    EXPECT_TRUE(obj.count("kind"));
    EXPECT_TRUE(obj.count("name"));
    if (obj.count("name") && obj.at("name").as_string() == "trial_failure") {
      saw_failure_note = true;
    }
    ++records;
  }
  EXPECT_GT(records, 0u);
  EXPECT_TRUE(saw_failure_note);

  obs::flight_clear();
  std::remove(dump_path.c_str());
}
