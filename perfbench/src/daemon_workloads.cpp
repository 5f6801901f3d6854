// The three workloads that drive `ocasta_cli serve` over TCP:
// record-durable, serve-memory and replicate-quorum.
#include "daemon_workloads.h"

#include <fcntl.h>
#include <sched.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "api/backends.h"
#include "api/codec.h"
#include "api/engine.h"
#include "api/remote_engine.h"
#include "client/ttkv_client.h"
#include "server/wire.h"
#include "inputs.h"
#include "server/sharded_ttkv.h"

namespace perfbench {
namespace {

using ocasta::TtkvClient;
namespace api = ocasta::api;

// A daemon above this resident size is stopped and the run fails.
constexpr uint64_t kDaemonRssLimit = 2ULL << 30;

struct Shape {
  std::string name;
  bool durable = false;
  bool quorum = false;
  uint32_t connections = 4;
  double rate = 1000;
  double write_fraction = 0.10;
  // The operation whose latency is the workload's op_p50_us: the write
  // (recording) or the read (serving).
  bool op_is_write = true;
  std::vector<std::string> serve_args;
};

Shape ShapeFor(const std::string& workload) {
  Shape s;
  s.name = workload;
  if (workload == "record-durable") {
    s.durable = true;
  } else if (workload == "replicate-quorum") {
    // A quorum PUT holds its connection for a follower poll period (~20
    // ms); 16 connections keep the GETs queued behind one to a few percent.
    s.durable = true;
    s.quorum = true;
    s.connections = 16;
    s.rate = 500;
    s.serve_args = {"--acks", "quorum"};
  } else if (workload == "serve-memory") {
    s.connections = 8;
    s.rate = 10000;
    s.write_fraction = 1.0 / 81.0;
    s.op_is_write = false;
    s.serve_args = {"--io-threads", "2"};
  } else {
    throw std::runtime_error("unknown workload " + workload);
  }
  return s;
}

// Input desktops. record-durable and replicate-quorum record one Windows
// XP machine; serve-memory serves a fleet of 29 desktops, desktop i being
// a namespaced copy of Table I profile i mod 9 (the paper's 24 Linux and 5
// Windows users).
std::vector<ocasta::MachineTrace> GenerateMachines(const Shape& shape, uint64_t seed) {
  std::vector<ocasta::MachineTrace> machines;
  if (shape.name == "serve-memory") {
    for (const ocasta::MachineProfile& p : ocasta::Table1Profiles()) {
      machines.push_back(GenerateShifted(p, seed));
    }
  } else {
    machines.push_back(GenerateShifted(ocasta::ProfileByName("Windows XP"), seed));
  }
  return machines;
}

std::vector<Desktop> Desktops(const Shape& shape, const std::vector<ocasta::MachineTrace>& m) {
  std::vector<Desktop> desktops;
  if (shape.name == "serve-memory") {
    for (size_t i = 0; i < 29; ++i) {
      Desktop d;
      d.prefix = "d" + std::to_string(i) + "/";
      d.machine = &m[i % m.size()];
      desktops.push_back(std::move(d));
    }
  } else {
    Desktop d;
    d.machine = &m[0];
    desktops.push_back(std::move(d));
  }
  return desktops;
}

// The leader (and, for quorum, its follower) of one run.
struct Cluster {
  std::unique_ptr<Daemon> leader;
  std::unique_ptr<Daemon> follower;
  std::string leader_dir;
  std::string follower_dir;
};

// Starts the daemon(s) on fresh data dirs under `dir`.
Cluster StartCluster(const Options& opt, const Shape& shape, const std::string& dir,
                     bool metrics) {
  Cluster c;
  c.leader_dir = dir + "/leader";
  c.follower_dir = dir + "/follower";
  std::filesystem::remove_all(c.leader_dir);
  std::filesystem::remove_all(c.follower_dir);
  std::vector<std::string> args = shape.serve_args;
  if (shape.durable) {
    args.insert(args.end(), {"--data-dir", c.leader_dir});
  }
  if (metrics) args.push_back("--metrics");
  c.leader = std::make_unique<Daemon>(opt.cli, args, dir, "leader");
  if (shape.quorum) {
    std::vector<std::string> fargs = {"--data-dir", c.follower_dir, "--follow",
                                      "127.0.0.1:" + std::to_string(c.leader->port()),
                                      "--follower-id", "f1"};
    if (metrics) fargs.push_back("--metrics");
    c.follower = std::make_unique<Daemon>(opt.cli, fargs, dir, "follower");
  }
  return c;
}

void Preload(TtkvClient& client, const RequestStream& stream) {
  const auto& initial = stream.initial();
  std::vector<api::Command> batch;
  for (size_t i = 0; i < initial.size(); ++i) {
    batch.push_back(api::PutCmd{initial[i].key, initial[i].value, initial[i].timestamp});
    if (batch.size() == 512 || i + 1 == initial.size()) {
      const std::vector<api::Result> results = client.ApplyBatch(batch);
      for (const api::Result& r : results) {
        if (!std::holds_alternative<api::OkResult>(r.op)) {
          throw std::runtime_error("preload PUT was not acknowledged");
        }
      }
      batch.clear();
    }
  }
}

// GETs every key the run preloaded or wrote and counts those not holding
// their last acknowledged value.
size_t VerifyState(uint16_t port, const RequestStream& stream) {
  TtkvClient client("127.0.0.1", port);
  size_t wrong = 0;
  std::vector<std::string> keys;
  std::vector<std::optional<ocasta::Value>> want;
  auto flush = [&] {
    const std::vector<std::optional<ocasta::Value>> got = client.GetBatch(keys);
    if (got.size() != keys.size()) {
      wrong += keys.size();
    } else {
      for (size_t i = 0; i < keys.size(); ++i) wrong += got[i] == want[i] ? 0 : 1;
    }
    keys.clear();
    want.clear();
  };
  for (const auto& [key, value] : stream.state()) {
    keys.push_back(key);
    want.push_back(value);
    if (keys.size() == 1000) flush();
  }
  if (!keys.empty()) flush();
  return wrong;
}

// The timed connections: plain sockets speaking the daemon's protocol
// (HELLO, then codec-encoded frames), set non-blocking after the
// handshake so one generator thread can poll them all.
class Connections {
 public:
  Connections(uint16_t port, uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      const int fd = ocasta::ConnectTcp("127.0.0.1", port);
      fds_.push_back(fd);
      ocasta::SendFrame(fd, api::EncodeHello(api::kProtocolVersion));
      const std::optional<std::string> reply = ocasta::RecvFrame(fd);
      if (!reply) throw std::runtime_error("daemon closed the connection during HELLO");
      api::DecodeHelloReply(*reply);
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    }
    inbox_.resize(n);
  }
  ~Connections() {
    for (int fd : fds_) close(fd);
  }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  uint32_t size() const { return static_cast<uint32_t>(fds_.size()); }

  void Send(uint32_t c, const std::string& frame) {
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(fds_[c], frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        throw std::runtime_error("send failed");
      }
    }
  }

  // A complete reply payload, or nullopt when none has arrived yet.
  std::optional<std::string> TryRecv(uint32_t c) {
    std::string& in = inbox_[c];
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fds_[c], buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) throw std::runtime_error("daemon closed a connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno != EINTR) throw std::runtime_error("recv failed");
    }
    if (in.size() < ocasta::kFrameHeaderBytes) return std::nullopt;
    const uint32_t len = ocasta::ReadFrameHeader(in.data());
    if (in.size() < ocasta::kFrameHeaderBytes + len) return std::nullopt;
    std::string payload = in.substr(ocasta::kFrameHeaderBytes, len);
    in.erase(0, ocasta::kFrameHeaderBytes + len);
    return payload;
  }

 private:
  std::vector<int> fds_;
  std::vector<std::string> inbox_;
};

struct PhaseOutcome {
  std::vector<SlotResult> results;
  size_t failed = 0;
  size_t malformed = 0;  // Reply of the wrong kind.
  size_t wrong = 0;      // GET returned another value than the last acked write.
  int64_t wall_ns = 0;
};

// RunOpenLoop transport over Connections: sends the phase's pre-encoded
// request frames and checks every reply against the schedule.
class PhaseTransport {
 public:
  PhaseTransport(const Phase& phase, Connections& conns, PhaseOutcome& out)
      : phase_(phase), conns_(conns), out_(out), in_flight_(conns.size(), 0) {
    frames_.reserve(phase.cmds.size());
    for (const api::Command& cmd : phase.cmds) {
      const std::string payload = api::EncodeCommand(cmd);
      std::string frame;
      ocasta::AppendFrameHeader(frame, static_cast<uint32_t>(payload.size()));
      frame += payload;
      frames_.push_back(std::move(frame));
    }
  }

  void Send(uint32_t c, size_t i) {
    in_flight_[c] = i;
    conns_.Send(c, frames_[i]);
  }

  int Poll(uint32_t c) {
    const std::optional<std::string> payload = conns_.TryRecv(c);
    if (!payload) return -1;
    const size_t i = in_flight_[c];
    const api::Result r = api::DecodeResult(*payload);
    if (std::holds_alternative<api::ErrorResult>(r.op)) return 0;
    bool ok = false;
    switch (phase_.kinds[i]) {
      case OpKind::kGet: {
        const auto* v = std::get_if<api::ValueResult>(&r.op);
        ok = v != nullptr;
        if (ok && v->value != phase_.expect[i]) {
          ++out_.wrong;
          return 0;
        }
        break;
      }
      case OpKind::kPut:
        ok = std::holds_alternative<api::OkResult>(r.op);
        break;
      case OpKind::kDelete:
        ok = std::holds_alternative<api::ExistedResult>(r.op);
        break;
    }
    if (!ok) ++out_.malformed;
    return ok ? 1 : 0;
  }

 private:
  const Phase& phase_;
  Connections& conns_;
  PhaseOutcome& out_;
  std::vector<size_t> in_flight_;
  std::vector<std::string> frames_;
};

PhaseOutcome RunPhase(const Phase& phase, Connections& conns, double give_up_s) {
  PhaseOutcome out;
  PhaseTransport transport(phase, conns, out);
  // While the phase runs, keep every other CPU out of its idle state with
  // SCHED_IDLE spinners, which yield at once to any other thread. On a
  // shared VM, waking a halted vCPU costs a hypervisor round trip whose
  // length drifts with other tenants' load; with it in, GET p50 moved
  // between 51 and 104 us across ten runs of one configuration.
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  const unsigned cpus = std::thread::hardware_concurrency();
  for (unsigned i = 1; i < cpus; ++i) {
    spinners.emplace_back([&stop] {
      sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop.load(std::memory_order_relaxed)) __builtin_ia32_pause();
    });
  }
  const int64_t t0 = NowNs();
  out.results = RunOpenLoop(phase.slots, conns.size(), transport,
                            static_cast<int64_t>(give_up_s * 1e9));
  out.wall_ns = NowNs() - t0;
  stop.store(true);
  for (std::thread& t : spinners) t.join();
  for (const SlotResult& r : out.results) out.failed += std::isinf(r.latency_ns) ? 1 : 0;
  return out;
}

std::vector<double> LatenciesOf(const Phase& phase, const PhaseOutcome& out, int kind) {
  std::vector<double> v;
  for (size_t i = 0; i < out.results.size(); ++i) {
    const bool is_read = phase.kinds[i] == OpKind::kGet;
    if (kind == 0 && !is_read) continue;
    if (kind == 1 && is_read) continue;
    v.push_back(out.results[i].latency_ns);
  }
  return v;
}

const ocasta::obs::HistogramStats* FindHistogram(const ocasta::obs::MetricsSnapshot& snap,
                                                 const std::string& name) {
  const ocasta::obs::HistogramStats* best = nullptr;
  for (const auto& h : snap.histograms) {
    if (h.name == name && (best == nullptr || h.stats.count > best->count)) best = &h.stats;
  }
  return best;
}

double CounterSum(const ocasta::obs::MetricsSnapshot& snap, const std::string& name) {
  double total = 0;
  for (const auto& c : snap.counters) total += c.name == name ? static_cast<double>(c.value) : 0;
  return total;
}

// api.codec_ns: encode + decode of each command and of the result it gets.
double CodecNsP50(const Phase& phase) {
  std::vector<double> ns;
  ns.reserve(phase.cmds.size());
  size_t sink = 0;
  for (size_t i = 0; i < phase.cmds.size(); ++i) {
    api::Result result;
    switch (phase.kinds[i]) {
      case OpKind::kGet:
        result = api::ValueResult{phase.expect[i]};
        break;
      case OpKind::kPut:
        result = api::OkResult{};
        break;
      case OpKind::kDelete:
        result = api::ExistedResult{true};
        break;
    }
    const int64_t t0 = NowNs();
    const std::string req = api::EncodeCommand(phase.cmds[i]);
    const api::Command back = api::DecodeCommand(req);
    const std::string rep = api::EncodeResult(result);
    const api::Result rback = api::DecodeResult(rep);
    ns.push_back(static_cast<double>(NowNs() - t0));
    sink += req.size() + rep.size() + back.op.index() + rback.op.index();
  }
  if (sink == 0) throw std::runtime_error("codec produced nothing");
  return Median(ns);
}

// ShardedTtkv::Apply replay of the phase after the preload, on `threads`
// threads (operations split by connection parity, as two event loops
// would see them). Returns the per-operation p50 in ns, or NaN when a
// command failed.
double EngineReplayNsP50(const RequestStream& stream, const Phase& phase, int threads) {
  ocasta::ShardedTtkv engine(8);
  std::vector<api::Command> batch;
  for (const auto& p : stream.initial()) {
    batch.push_back(api::PutCmd{p.key, p.value, p.timestamp});
  }
  engine.ApplyBatch(batch);
  std::vector<std::vector<double>> ns(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  std::atomic<int> ready{0};
  std::atomic<bool> failed{false};
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      for (size_t i = 0; i < phase.cmds.size(); ++i) {
        if (static_cast<int>(phase.slots[i].conn % static_cast<uint32_t>(threads)) != t) continue;
        const int64_t t0 = NowNs();
        const api::Result r = engine.Apply(phase.cmds[i]);
        ns[static_cast<size_t>(t)].push_back(static_cast<double>(NowNs() - t0));
        if (api::IsError(r)) failed.store(true);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<double> all;
  for (const auto& v : ns) all.insert(all.end(), v.begin(), v.end());
  return failed.load() ? std::nan("") : Median(all);
}

// DurableEngine::Apply replay of the phase's writes into a scratch data
// dir (sharded inner engine, fsync=batch, as the daemon runs it).
double DurableReplayUsP50(const RequestStream& stream, const Phase& phase,
                          const std::string& dir) {
  std::filesystem::remove_all(dir);
  api::BackendOptions options;
  options.backend = "sharded";
  options.data_dir = dir;
  options.fsync = "batch";
  std::unique_ptr<api::Engine> engine = api::MakeEngine(options);
  std::vector<api::Command> batch;
  for (const auto& p : stream.initial()) {
    batch.push_back(api::PutCmd{p.key, p.value, p.timestamp});
  }
  engine->ApplyBatch(batch);
  std::vector<double> us;
  for (size_t i = 0; i < phase.cmds.size(); ++i) {
    if (phase.kinds[i] == OpKind::kGet) continue;
    const int64_t t0 = NowNs();
    const api::Result r = engine->Apply(phase.cmds[i]);
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (api::IsError(r)) throw std::runtime_error("durable replay failed");
  }
  engine.reset();
  std::filesystem::remove_all(dir);
  return Median(us);
}

// Kills the daemon if its resident memory passes `limit_bytes`, so a
// runaway daemon fails the run instead of exhausting the host.
class RssGuard {
 public:
  RssGuard(Daemon& daemon, uint64_t limit_bytes)
      : thread_([this, &daemon, limit_bytes] {
          while (!stop_.load()) {
            // ProcStatusBytes does not throw on a vanished process: it reads 0.
            if (daemon.RssBytes() > limit_bytes) {
              tripped_.store(true);
              ::kill(daemon.pid(), SIGKILL);
              return;
            }
            usleep(20000);
          }
        }) {}
  ~RssGuard() {
    stop_.store(true);
    thread_.join();
  }
  RssGuard(const RssGuard&) = delete;
  RssGuard& operator=(const RssGuard&) = delete;
  bool tripped() const { return tripped_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<bool> tripped_{false};
  std::thread thread_;
};

// Writes the pass's request spans to `path` and returns them.
std::vector<Span> WriteSpans(const std::string& path, const Phase& phase,
                             const PhaseOutcome& out) {
  // loadgen.request covers due → reply; its child wire.roundtrip covers
  // send → reply, so the request's self time is the wait in the
  // generator's queue. One request's spans share its index as trace id.
  SpanRecorder rec;
  for (size_t i = 0; i < out.results.size(); ++i) {
    const SlotResult& r = out.results[i];
    const int64_t req = rec.Add("loadgen.request", i, -1, phase.slots[i].due_ns, r.done_ns);
    rec.Add("wire.roundtrip", i, req, r.sent_ns, r.done_ns);
  }
  std::ofstream f(path);
  f << "name\ttrace_id\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : rec.spans()) {
    f << s.name << '\t' << s.trace_id << '\t' << s.parent << '\t' << s.start_ns << '\t'
      << s.end_ns << '\n';
  }
  return rec.spans();
}

}  // namespace

void RunDaemonWorkload(const Options& opt, Report& report) {
  const Shape shape = ShapeFor(opt.workload);
  const std::string& dir = opt.work_dir;

  const int64_t g0 = NowNs();
  const std::vector<ocasta::MachineTrace> machines = GenerateMachines(shape, opt.seed);
  Log("inputs generated");
  report.Set("workload.gen_s", static_cast<double>(NowNs() - g0) / 1e9);

  // An untraced run spends its time on the fixed-rate phase. A traced run
  // splits it between an untraced and a traced pass over the same inputs,
  // so the tracing overhead is measured in one run; on serve-memory its
  // untraced pass then climbs the offered-rate ladder.
  const bool ladder = opt.trace && shape.name == "serve-memory";
  const double fixed_s = opt.trace ? opt.seconds / 2 : opt.seconds;

  auto one_pass = [&](bool traced, int setup_reps, const std::string& tag) {
    RequestStream stream(Desktops(shape, machines), shape.connections, opt.seed,
                          shape.write_fraction);
    // Set-up: start the daemon(s) on a fresh data dir and preload the
    // machines' initial configuration, several times; the last one serves.
    std::vector<double> setup_s;
    Cluster cluster;
    uint64_t rss_empty = 0;
    for (int rep = 0; rep < setup_reps; ++rep) {
      cluster = Cluster{};
      const int64_t t0 = NowNs();
      cluster = StartCluster(opt, shape, dir, traced);
      rss_empty = cluster.leader->RssBytes();
      TtkvClient loader("127.0.0.1", cluster.leader->port());
      Preload(loader, stream);
      Log(tag + "set-up " + std::to_string(rep) + " done: " +
          std::to_string(stream.initial().size()) + " keys preloaded");
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    const Phase fixed = stream.Next(shape.rate, fixed_s);
    report.Text(tag + "schedule_hash", stream.Hash());

    auto conns = std::make_unique<Connections>(cluster.leader->port(), shape.connections);
    auto guard = std::make_unique<RssGuard>(*cluster.leader, kDaemonRssLimit);
    TtkvClient probe_client("127.0.0.1", cluster.leader->port());
    api::RemoteEngine probe(probe_client);
    const ocasta::EngineStats stats0 = api::Stats(probe);

    // Follower lag is a gauge: poll it while a traced quorum pass runs.
    std::atomic<bool> polling{traced && shape.quorum};
    std::atomic<int64_t> lag_max{0};
    std::thread poller;
    if (polling.load()) {
      poller = std::thread([&] {
        try {
          TtkvClient c("127.0.0.1", cluster.leader->port());
          api::RemoteEngine e(c);
          while (polling.load()) {
            for (const auto& g : api::Metrics(e).gauges) {
              if (g.name == "ocasta_replication_lag_records" && g.value > lag_max.load()) {
                lag_max.store(g.value);
              }
            }
            usleep(50000);
          }
        } catch (const std::exception&) {
          lag_max.store(-1);  // Reported as a negative lag: the probe failed.
        }
      });
    }
    Log(tag + "fixed phase: " + std::to_string(fixed.slots.size()) + " ops at " +
        std::to_string(static_cast<long>(shape.rate)) + "/s");
    const PhaseOutcome out = RunPhase(fixed, *conns, fixed_s + 30);
    Log(tag + "fixed phase done");
    polling.store(false);
    if (poller.joinable()) poller.join();

    const ocasta::EngineStats stats1 = api::Stats(probe);
    const uint64_t rss_peak = cluster.leader->PeakRssBytes();
    const uint64_t rss_now = cluster.leader->RssBytes();
    ocasta::obs::MetricsSnapshot snap;
    if (traced) snap = api::Metrics(probe);

    report.Check(out.malformed == 0, tag + "malformed replies: " + std::to_string(out.malformed));
    report.Check(out.wrong == 0, tag + "GETs not returning the last acked value: " +
                                     std::to_string(out.wrong));
    report.AddAttempts(out.results.size(), out.failed);

    std::vector<double> late;
    for (const SlotResult& r : out.results) late.push_back(r.late_ns);
    const Summary reads = Summarize(LatenciesOf(fixed, out, 0));
    const Summary writes = Summarize(LatenciesOf(fixed, out, 1));
    const Summary all = Summarize(LatenciesOf(fixed, out, 2));

    // Offered-rate ladder (serve-memory, untraced pass of a traced run):
    // the highest rate whose p99 stays under 10 ms with no growing backlog,
    // in 0.5 s steps 10% apart from 20 000 ops/s.
    if (ladder && !traced) {
      const std::vector<double> rates = GeometricRates(20000, 400000, 1.1);
      const double step_s = 0.5;
      const std::vector<LadderStep> steps = RunLadder(rates, 10e6, [&](double rate) {
        const Phase p = stream.Next(rate, step_s);
        const PhaseOutcome o = RunPhase(p, *conns, 3 * step_s + 1);
        report.Check(o.malformed == 0 && o.wrong == 0, tag + "ladder step replies wrong");
        std::vector<double> lat;
        for (const SlotResult& r : o.results) lat.push_back(r.latency_ns);
        return lat;
      });
      std::string trail;
      for (const LadderStep& s : steps) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%ld:%s(p99 %.0fus) ", static_cast<long>(s.rate),
                      s.passed ? "ok" : "fail", s.p99 / 1e3);
        trail += buf;
      }
      report.Text(tag + "ladder", trail);
      report.Set(tag + "slo_ops_s", HighestPassingRate(steps));
    }

    report.Check(!guard->tripped(), tag + "daemon passed the memory limit and was stopped");
    guard.reset();
    // Final state check; durable workloads then kill -9 every daemon,
    // restart on the same data dir and check again.
    conns.reset();
    Log(tag + "verifying " + std::to_string(stream.key_count()) + " keys");
    report.Check(VerifyState(cluster.leader->port(), stream) == 0,
                 tag + "final state differs from the last acked writes");
    if (shape.durable) {
      cluster.leader->Kill();
      if (cluster.follower) cluster.follower->Kill();
      const double user_bytes = static_cast<double>(stream.initial_bytes() + fixed.user_bytes);
      report.Set(tag + "stored_bytes_per_user_byte",
                 static_cast<double>(DirBytes(cluster.leader_dir)) / user_bytes);
      report.Set(tag + "wal_bytes_per_user_byte",
                 static_cast<double>(DirBytes(cluster.leader_dir, "wal")) / user_bytes);
      Log(tag + "kill -9 done; restarting on the same data dir");
      Daemon restarted(opt.cli, {"--data-dir", cluster.leader_dir}, dir, "restart");
      report.Check(VerifyState(restarted.port(), stream) == 0,
                   tag + "acked writes lost across kill -9 of the leader");
      restarted.Kill();
      if (cluster.follower) {
        // The follower's data dir, opened on its own, must hold every
        // quorum-acked write.
        Daemon alone(opt.cli, {"--data-dir", cluster.follower_dir}, dir, "follower-restart");
        report.Check(VerifyState(alone.port(), stream) == 0,
                     tag + "quorum-acked writes missing on the follower after kill -9");
      }
    }
    cluster = Cluster{};

    report.Set(tag + "setup_s", Median(setup_s));
    report.Set(tag + "read_p50_us", reads.p50 / 1e3);
    report.Set(tag + "read_tail_us", reads.tail / 1e3);
    report.Set(tag + "read_tail_pct", reads.tail_percentile);
    report.Set(tag + "read_count", static_cast<double>(reads.count));
    report.Set(tag + "write_p50_us", writes.p50 / 1e3);
    report.Set(tag + "write_tail_us", writes.tail / 1e3);
    report.Set(tag + "write_tail_pct", writes.tail_percentile);
    report.Set(tag + "write_count", static_cast<double>(writes.count));
    report.Set(tag + "all_p50_us", all.p50 / 1e3);
    report.Set(tag + "op_p50_us", (shape.op_is_write ? writes.p50 : reads.p50) / 1e3);
    report.Set(tag + "rss_mb", static_cast<double>(rss_peak) / 1e6);
    report.Set(tag + "late_us_p99", Percentile(late, 99) / 1e3);
    report.Set(tag + "error_rate", static_cast<double>(out.failed) /
                                       static_cast<double>(std::max<size_t>(1, out.results.size())));
    if (!traced) return;

    // --- Per-layer numbers: spans from this pass plus the daemon's METRICS.
    const std::vector<Span> spans = WriteSpans(dir + "/spans.tsv", fixed, out);
    const std::vector<int64_t> self = SelfTimes(spans);
    std::vector<double> roundtrip_ns, queue_ns;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (std::string(spans[i].name) == "wire.roundtrip") {
        roundtrip_ns.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns));
      } else {
        queue_ns.push_back(static_cast<double>(self[i]));
      }
    }
    const double wall_s = static_cast<double>(out.wall_ns) / 1e9;
    const double ops = static_cast<double>(out.results.size());
    auto p50_of = [&](const char* name, double scale) {
      const auto* h = FindHistogram(snap, name);
      return h == nullptr ? 0.0 : h->p50 / scale;
    };
    auto mean_of = [&](const char* name) {
      const auto* h = FindHistogram(snap, name);
      return h == nullptr || h->count == 0 ? 0.0 : h->sum / static_cast<double>(h->count);
    };
    report.Set("loadgen.queue_us_p50", Median(queue_ns) / 1e3);
    report.Set("loadgen.roundtrip_us_p50", Median(roundtrip_ns) / 1e3);
    report.Set("api.codec_ns", CodecNsP50(fixed));
    report.Set("server.frame_ns_p50", p50_of("ocasta_loop_frame_ns", 1));
    report.Set("server.frames_per_wakeup", mean_of("ocasta_loop_dispatch_width"));
    report.Set("server.wire_us_p50",
               (Median(roundtrip_ns) - p50_of("ocasta_loop_frame_ns", 1)) / 1e3);
    report.Set("engine.apply_ns_p50", EngineReplayNsP50(stream, fixed, 1));
    report.Set("engine.apply_ns_p50_contended", EngineReplayNsP50(stream, fixed, 2));
    report.Set("engine.locks_per_op",
               static_cast<double>(stats1.lock_acquisitions - stats0.lock_acquisitions) / ops);
    report.Set("ttkv.rss_bytes_per_key",
               static_cast<double>(rss_now > rss_empty ? rss_now - rss_empty : 0) /
                   static_cast<double>(stats1.ttkv.num_keys == 0 ? 1 : stats1.ttkv.num_keys));
    const double flushes = CounterSum(snap, "ocasta_wal_flushes_total");
    const double records = CounterSum(snap, "ocasta_wal_records_total");
    report.Set("persist.records_per_flush", flushes > 0 ? records / flushes : 0);
    report.Set("persist.fsync_us_p50", p50_of("ocasta_wal_fsync_ns", 1e3));
    report.Set("persist.append_us_p50", p50_of("ocasta_wal_append_ns", 1e3));
    const auto* fsync = FindHistogram(snap, "ocasta_wal_fsync_ns");
    report.Set("persist.fsync_busy_frac", fsync == nullptr ? 0 : fsync->sum / 1e9 / wall_s);
    report.Set("persist.apply_us_p50",
               shape.durable ? DurableReplayUsP50(stream, fixed, dir + "/replay") : 0);
    report.Set("replica.quorum_wait_us_p50",
               p50_of("ocasta_replication_quorum_wait_ns", 1e3));
    report.Set("replica.lag_records_max", static_cast<double>(lag_max.load()));
    report.Set("replica.quorum_timeouts",
               CounterSum(snap, "ocasta_replication_quorum_timeouts_total"));
  };

  if (!opt.trace) {
    one_pass(false, 5, "");
  } else {
    one_pass(false, 1, "untraced.");
    one_pass(true, 1, "traced.");
  }
}

}  // namespace perfbench
