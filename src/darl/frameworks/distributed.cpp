#include "darl/frameworks/distributed.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "darl/common/error.hpp"
#include "darl/net/socket.hpp"
#include "darl/net/wire.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/rl/checkpoint.hpp"

namespace darl::frameworks {

namespace {

/// Directory holding the running executable (via /proc/self/exe), used to
/// resolve the default darl_worker binary next to darl_study.
std::string self_exe_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  const std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

/// Fresh per-process Unix-socket endpoint for runs that did not pick one.
std::string auto_endpoint() {
  static std::atomic<unsigned> counter{0};
  std::ostringstream os;
  os << "unix:/tmp/darl_net_" << ::getpid() << "_" << counter.fetch_add(1)
     << ".sock";
  return os.str();
}

/// fork + execv. The child execs immediately (async-signal-safe path only),
/// which keeps the spawn safe in a process that already runs threads (the
/// obs exporter, collection workers).
pid_t spawn_process(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  DARL_CHECK(pid >= 0, "fork failed: " << std::strerror(errno));
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    // exec failed; nothing of the parent may run in this child.
    std::_Exit(127);
  }
  return pid;
}

/// waitpid with EINTR retry; exit code, 128+signal, or -1.
int wait_child(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

/// Kills every still-owned child on scope exit (error paths); the normal
/// path waits for clean exits and disarms.
class ChildReaper {
 public:
  ~ChildReaper() {
    for (const pid_t pid : pids_) {
      ::kill(pid, SIGKILL);
      wait_child(pid);
    }
  }
  void add(pid_t pid) { pids_.push_back(pid); }
  /// Graceful wait; throws when a child failed.
  void wait_all() {
    while (!pids_.empty()) {
      const pid_t pid = pids_.back();
      pids_.pop_back();
      const int code = wait_child(pid);
      if (code != 0) {
        throw net::NetError("actor process exited with status " +
                            std::to_string(code));
      }
    }
  }

 private:
  std::vector<pid_t> pids_;
};

/// Nodes 1..N-1 as actor processes, one darl/net link each, driven by
/// the training loop's own thread. Construction brings the fleet up
/// (listen, spawn, accept + Hello, Job); sync/collect are the
/// per-iteration Weights-out / Batch-in exchange; finish() is the orderly
/// Stop/Bye. Any other exit unwinds through the members: the links close,
/// then spawned actors are killed and reaped, then the listener closes.
class SocketNodes final : public RemoteNodes {
 public:
  SocketNodes(const DistributedOptions& options, const Run& run);

  void sync(std::uint64_t version, const Vec& params) override;
  std::vector<net::BatchMsg> collect() override;
  void finish() override;

 private:
  /// Node `node`'s next message, which must be a `want`, decoded. A
  /// transport, framing or decoding failure (a silent or dead actor
  /// included) is rethrown as a NetError that names the node.
  template <typename Decode>
  auto receive(std::size_t node, net::MsgType want, Decode decode) {
    try {
      return decode(links_[node].expect(want));
    } catch (const net::NetError& e) {
      throw net::NetError("actor node " + std::to_string(node) + ": " +
                          e.what());
    }
  }

  const std::size_t nodes_;
  const std::size_t cores_;
  const rl::AlgoKind algo_;
  const std::size_t obs_dim_;
  const std::size_t action_dim_;
  std::uint64_t shipped_version_ = 0;
  net::Listener listener_;
  ChildReaper children_;
  std::vector<net::MsgChannel> links_;  // by node; [0] unused
};

SocketNodes::SocketNodes(const DistributedOptions& options, const Run& run)
    : nodes_(run.request.deployment.nodes),
      cores_(run.request.deployment.cores_per_node),
      algo_(run.request.algo.kind),
      obs_dim_(run.obs_dim),
      action_dim_(run.action_dim),
      listener_(net::listen_endpoint(
          net::Endpoint::parse(options.endpoint.empty() ? auto_endpoint()
                                                        : options.endpoint),
          static_cast<int>(nodes_))),
      links_(nodes_) {
  const std::string bound = listener_.endpoint().str();
  if (options.spawn_actors) {
    const std::string bin = options.worker_bin.empty()
                                ? self_exe_dir() + "/darl_worker"
                                : options.worker_bin;
    for (std::size_t node = 1; node < nodes_; ++node) {
      children_.add(spawn_process(
          {bin, "--role", "actor", "--connect", bound, "--node",
           std::to_string(node), "--connect-timeout",
           std::to_string(options.connect_timeout_s), "--io-timeout",
           std::to_string(options.io_timeout_s)}));
    }
  }

  // Accept one connection per remote node; a missing actor surfaces as a
  // timeout here, not a hang (SO_RCVTIMEO bounds accept on Linux).
  net::set_recv_timeout(listener_.fd(), options.connect_timeout_s);
  for (std::size_t i = 1; i < nodes_; ++i) {
    net::OwnedFd conn = net::accept_retry(listener_.fd());
    if (!conn.valid()) {
      throw net::NetError("timed out waiting for " +
                          std::to_string(nodes_ - 1) + " actor(s) on " + bound);
    }
    DARL_COUNTER_ADD("net.accepts", 1);
    net::MsgChannel ch(std::move(conn), options.io_timeout_s);
    const net::HelloMsg hello =
        net::decode_hello(ch.expect(net::MsgType::Hello));
    DARL_CHECK(hello.node >= 1 && hello.node < nodes_,
               "actor announced node " << hello.node << " outside 1.."
                                       << nodes_ - 1);
    DARL_CHECK(!links_[hello.node].valid(),
               "two actors announced node " << hello.node);
    links_[hello.node] = std::move(ch);
  }

  // Ship each actor its job.
  net::JobMsg job;
  job.algo = algo_;
  const std::vector<std::size_t>& sizes = run.algo.shape().sizes;
  job.hidden.assign(sizes.begin() + 1, sizes.end() - 1);
  job.seed = run.request.seed;
  job.nodes = nodes_;
  job.cores = cores_;
  job.per_worker = run.per_worker;
  job.obs_dim = obs_dim_;
  job.action_dim = action_dim_;
  job.env_spec = run.request.env_spec;
  for (std::size_t node = 1; node < nodes_; ++node) {
    job.node = node;
    links_[node].send(net::MsgType::Job, net::encode_job(job));
  }
}

void SocketNodes::sync(std::uint64_t version, const Vec& params) {
  rl::Checkpoint ck;
  ck.kind = algo_;
  ck.obs_dim = obs_dim_;
  ck.action_dim = action_dim_;
  ck.params = params;
  std::ostringstream os;
  rl::save_checkpoint(os, ck);
  net::WeightsMsg weights;
  weights.version = version;
  weights.checkpoint = os.str();
  const std::string payload = net::encode_weights(weights);
  for (std::size_t node = 1; node < nodes_; ++node) {
    links_[node].send(net::MsgType::Weights, payload);
    DARL_COUNTER_ADD("net.weights_published", 1);
  }
  shipped_version_ = version;
}

std::vector<net::BatchMsg> SocketNodes::collect() {
  std::vector<net::BatchMsg> batches;
  batches.reserve((nodes_ - 1) * cores_);
  for (std::size_t node = 1; node < nodes_; ++node) {
    const std::string who = "actor node " + std::to_string(node);
    // A worker id off the wire indexes learner state: accept only the
    // sender's own workers, once each per iteration.
    const std::uint64_t first = node * cores_;
    std::vector<bool> seen(cores_, false);
    for (std::size_t c = 0; c < cores_; ++c) {
      net::BatchMsg msg =
          receive(node, net::MsgType::Batch, net::decode_batch_msg);
      if (msg.worker < first || msg.worker - first >= cores_) {
        throw net::NetError(who + " sent a batch for worker " +
                            std::to_string(msg.worker) +
                            ", outside its workers " + std::to_string(first) +
                            ".." + std::to_string(first + cores_ - 1));
      }
      if (seen[msg.worker - first]) {
        throw net::NetError(who + " sent worker " + std::to_string(msg.worker) +
                            "'s batch twice in one iteration");
      }
      seen[msg.worker - first] = true;
      if (msg.version != shipped_version_) {
        throw net::NetError(who + ": batch from worker " +
                            std::to_string(msg.worker) + " carries version " +
                            std::to_string(msg.version) + ", expected " +
                            std::to_string(shipped_version_));
      }
      batches.push_back(std::move(msg));
    }
  }
  // Deterministic consumption order regardless of arrival order.
  std::sort(batches.begin(), batches.end(),
            [](const net::BatchMsg& a, const net::BatchMsg& b) {
              return a.worker < b.worker;
            });
  return batches;
}

void SocketNodes::finish() {
  // Stop out, Bye back.
  for (std::size_t node = 1; node < nodes_; ++node) {
    links_[node].send(net::MsgType::Stop, std::string());
  }
  for (std::size_t node = 1; node < nodes_; ++node) {
    const net::ByeMsg bye = receive(node, net::MsgType::Bye, net::decode_bye);
    if (bye.node != node) {
      throw net::NetError("actor node " + std::to_string(node) +
                          " said Bye as node " + std::to_string(bye.node));
    }
  }
  children_.wait_all();
}

}  // namespace

DistributedRllibBackend::DistributedRllibBackend(DistributedOptions options,
                                                 BackendCosts costs)
    : BackendBase(costs), options_(std::move(options)) {}

TrainResult DistributedRllibBackend::run(const TrainRequest& request) {
  DARL_CHECK(request.deployment.nodes >= 2,
             "DistributedRllibBackend needs >= 2 nodes (single-node jobs "
             "stay in-process)");
  DARL_CHECK(!request.env_spec.empty(),
             "distributed run needs TrainRequest::env_spec (the remote "
             "actors rebuild the environment from it)");
  return run_schedule(request, [this](const RemoteNodes::Run& run) {
    return std::make_unique<SocketNodes>(options_, run);
  });
}

std::size_t run_actor(const std::string& endpoint, std::size_t node,
                      const EnvSpecResolver& resolver,
                      double connect_timeout_s, double io_timeout_s) {
  DARL_CHECK(node >= 1, "actor node must be >= 1 (node 0 is the learner)");
  DARL_CHECK(resolver != nullptr, "actor needs an env-spec resolver");

  net::MsgChannel channel(
      net::connect_endpoint(net::Endpoint::parse(endpoint), connect_timeout_s),
      io_timeout_s);
  DARL_COUNTER_ADD("net.connects", 1);

  net::HelloMsg hello;
  hello.node = node;
  channel.send(net::MsgType::Hello, net::encode_hello(hello));
  const net::JobMsg job = net::decode_job(channel.expect(net::MsgType::Job));
  DARL_CHECK(job.node == node, "job addressed to node " << job.node
                                                        << ", this is node "
                                                        << node);
  DARL_CHECK(job.cores >= 1 && job.nodes > node, "malformed job topology");

  env::EnvFactory factory = resolver(job.env_spec);
  DARL_CHECK(factory != nullptr, "env-spec resolver rejected the spec");
  auto probe = factory();
  const std::size_t obs_dim = probe->observation_space().dim();
  const env::ActionSpace action_space = probe->action_space();
  probe.reset();
  DARL_CHECK(obs_dim == job.obs_dim &&
                 action_space.action_dim() == job.action_dim,
             "environment interface mismatch: local " << obs_dim << "/"
                                                      << action_space.action_dim()
                                                      << ", job " << job.obs_dim
                                                      << "/" << job.action_dim);

  // Inference-only algorithm shell: act behavior is fully determined by
  // the architecture plus the synced parameters, so learner-side
  // hyperparameters never need to travel.
  rl::AlgorithmSpec spec;
  spec.kind = job.algo;
  spec.ppo.hidden = job.hidden;
  spec.sac.hidden = job.hidden;
  spec.impala.hidden = job.hidden;
  auto algo = rl::make_algorithm(spec, obs_dim, action_space,
                                 Rng(job.seed).split(1).seed());

  // This node's workers, with their global ids and seed streams.
  WorkerGroup workers(factory, *algo, job.seed, node * job.cores, job.cores);

  // Worker i's batch lands in slot i - first_id(); this thread sends the
  // slots in worker order once collection is done, and a slow learner
  // holds it in a blocked send.
  std::vector<net::BatchMsg> batches(workers.size());
  std::size_t iterations = 0;
  net::MsgType type;
  std::string payload;
  while (channel.recv(type, payload)) {
    if (type == net::MsgType::Stop) {
      net::ByeMsg bye;
      bye.node = node;
      channel.send(net::MsgType::Bye, net::encode_bye(bye));
      return iterations;
    }
    if (type != net::MsgType::Weights) {
      throw net::WireError(std::string("actor expected Weights, got ") +
                           net::msg_type_name(type));
    }
    const net::WeightsMsg weights = net::decode_weights(payload);
    std::istringstream ck_in(weights.checkpoint);
    const rl::Checkpoint ck = rl::load_checkpoint(ck_in);
    DARL_CHECK(ck.kind == job.algo && ck.obs_dim == obs_dim,
               "shipped checkpoint does not match the job interface");

    workers.sync(ck.params);
    workers.collect(job.per_worker, weights.version,
                    [&batches, &workers](net::BatchMsg batch) {
                      batches[batch.worker - workers.first_id()] =
                          std::move(batch);
                    });
    for (const net::BatchMsg& batch : batches) {
      channel.send(net::MsgType::Batch, net::encode_batch_msg(batch));
    }
    ++iterations;
  }
  throw net::NetError("learner vanished before sending Stop");
}

std::unique_ptr<Backend> make_distributed_backend(
    const DistributedOptions& options) {
  return std::make_unique<DistributedRllibBackend>(options);
}

}  // namespace darl::frameworks
