#include "loadgen.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>

#include "layers.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/hin/hin_io.h"
#include "tmark/obs/metrics.h"

namespace tmbench {
namespace {

using tmark::serve::RequestKind;

/// Blocking frame I/O on one client connection (`<len>\n<payload>`).
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}

  bool Send(const std::string& payload) {
    const std::string frame = std::to_string(payload.size()) + "\n" + payload;
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::write(fd_, frame.data() + sent, frame.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool Receive(std::string* payload) {
    std::size_t length = 0;
    for (;;) {
      char c = 0;
      if (!Get(&c)) return false;
      if (c == '\n') break;
      if (c < '0' || c > '9' || length > (1u << 20)) return false;
      length = length * 10 + static_cast<std::size_t>(c - '0');
    }
    payload->resize(length);
    for (std::size_t i = 0; i < length; ++i) {
      if (!Get(&(*payload)[i])) return false;
    }
    return true;
  }

 private:
  bool Get(char* c) {
    if (pos_ == end_) {
      ssize_t n = 0;
      do {
        n = ::read(fd_, buffer_, sizeof(buffer_));
      } while (n < 0 && errno == EINTR);
      if (n <= 0) return false;
      pos_ = 0;
      end_ = static_cast<std::size_t>(n);
    }
    *c = buffer_[pos_++];
    return true;
  }

  int fd_;
  char buffer_[4096];
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

bool IsSeedWalk(RequestKind kind) {
  return kind == RequestKind::kRank || kind == RequestKind::kTopK;
}

}  // namespace

LoadGenerator::~LoadGenerator() { Close(); }

tmark::Status LoadGenerator::Connect(const std::string& socket_path,
                                     std::size_t connections) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return tmark::InvalidArgumentError("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  for (std::size_t i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return tmark::InternalError("socket(): " + std::string(std::strerror(errno)));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      const int err = errno;
      ::close(fd);
      return tmark::InternalError("connect(" + socket_path +
                                  "): " + std::strerror(err));
    }
    fds_.push_back(fd);
  }
  return tmark::Status::Ok();
}

void LoadGenerator::Close() {
  for (const int fd : fds_) ::close(fd);
  fds_.clear();
}

std::vector<Outcome> LoadGenerator::Run(const SchedulePhase& phase) {
  std::vector<Outcome> outcomes(phase.requests.size());
  std::atomic<std::size_t> next{0};
  const std::uint64_t id_base = next_request_id_;
  next_request_id_ += phase.requests.size();
  // A short lead so every connection thread is parked before the first due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);

  const auto drive = [&](int fd) {
    Connection connection(fd);
    std::string reply;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= phase.requests.size()) return;
      const ScheduledRequest& scheduled = phase.requests[i];
      const Clock::time_point due =
          start + std::chrono::microseconds(
                      static_cast<std::int64_t>(scheduled.due_us));
      std::this_thread::sleep_until(due);
      Outcome& out = outcomes[i];
      out.request_kind = scheduled.request.kind;
      out.node = scheduled.request.node;
      out.top_k = scheduled.request.top_k;
      ScopedSpan span("loadgen.request", id_base + i);
      const Clock::time_point sent = Clock::now();
      const bool io_ok =
          connection.Send(tmark::serve::FormatRequest(scheduled.request)) &&
          connection.Receive(&reply);
      const Clock::time_point received = Clock::now();
      span.Close();
      out.late_ms = Ms(due, sent);
      out.rtt_ms = Ms(sent, received);
      out.latency_ms = Ms(due, received);
      if (!io_ok) {
        out.kind = Outcome::Kind::kFailed;
        continue;
      }
      tmark::Result<tmark::serve::Response> parsed =
          tmark::serve::ParseResponse(reply);
      if (parsed.ok()) {
        out.kind = Outcome::Kind::kOk;
        out.response = std::move(parsed.value());
      } else {
        out.kind = parsed.status().code() ==
                           tmark::StatusCode::kResourceExhausted
                       ? Outcome::Kind::kRefused
                       : Outcome::Kind::kFailed;
      }
    }
  };
  std::vector<std::thread> threads;
  for (const int fd : fds_) threads.emplace_back(drive, fd);
  for (std::thread& t : threads) t.join();
  return outcomes;
}

tmark::Status StartServing(const std::string& hin_path,
                           const std::vector<std::size_t>& train,
                           const tmark::serve::DaemonOptions& options,
                           const std::string& socket_path, Serving* serving) {
  ScopedSpan setup("serve.setup");
  tmark::Result<tmark::hin::Hin> hin = [&] {
    ScopedSpan span("hin_io.load");
    tmark::Result<tmark::hin::Hin> loaded = tmark::hin::LoadHinFromFile(hin_path);
    serving->load_ms = span.Close();
    return loaded;
  }();
  if (!hin.ok()) return hin.status();
  serving->daemon = std::make_unique<tmark::serve::ServingDaemon>(
      std::move(hin.value()), train, options);
  {
    ScopedSpan span("serve.init");
    const tmark::Status status = serving->daemon->Init();
    if (!status.ok()) return status;
  }
  tmark::serve::ServerOptions server_options;
  server_options.unix_socket = socket_path;
  serving->server = std::make_unique<tmark::serve::SocketServer>(
      serving->daemon.get(), server_options);
  {
    ScopedSpan span("serve.listen");
    const tmark::Status status = serving->server->Start();
    if (!status.ok()) return status;
  }
  serving->setup_s = setup.Close() / 1000.0;
  return tmark::Status::Ok();
}

ServeSnapshot ServeSnapshot::Take() {
  tmark::obs::Registry& registry = tmark::obs::Registry::Instance();
  const auto quantile = [&](const char* name, double q) {
    return registry.GetHistogram(name).Percentile(q);
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(registry.GetCounter(name).value());
  };
  ServeSnapshot s;
  s.exec_p50 = quantile("serve.batch_exec_ms", 0.5);
  s.exec_p99 = quantile("serve.batch_exec_ms", 0.99);
  s.request_p50 = quantile("serve.request_ms", 0.5);
  s.request_p99 = quantile("serve.request_ms", 0.99);
  s.batch_width_mean =
      Mean(registry.GetSeries("serve.batch_width").Snapshot("").values);
  s.rejected = count("serve.rejected");
  s.stale = count("serve.stale");
  s.requests = count("serve.requests");
  return s;
}

bool ColdStarts(int repeats, const std::string& hin_path,
                const std::vector<std::size_t>& train,
                const tmark::serve::DaemonOptions& options,
                const std::string& socket_path, Report* report,
                Phase* setups, Serving* serving, std::vector<double>* setup_s,
                std::vector<double>* load_ms) {
  for (int rep = 0; rep < repeats; ++rep) {
    serving->server.reset();  // The server points at the daemon: it goes first.
    serving->daemon.reset();
    ++setups->attempted;
    const tmark::Status status =
        StartServing(hin_path, train, options, socket_path, serving);
    report->Check(status.ok(), "daemon start: " + status.ToString());
    if (!status.ok()) {
      ++setups->failed;
      return false;
    }
    ++setups->succeeded;
    setup_s->push_back(serving->setup_s);
    load_ms->push_back(serving->load_ms);
  }
  return true;
}

std::vector<double> Latencies(const std::vector<Outcome>& outcomes,
                              bool seed_walks) {
  std::vector<double> latencies;
  for (const Outcome& o : outcomes) {
    if (o.kind == Outcome::Kind::kOk && IsSeedWalk(o.request_kind) == seed_walks) {
      latencies.push_back(o.latency_ms);
    }
  }
  return latencies;
}

void Account(const std::vector<Outcome>& outcomes, Phase* phase) {
  for (const Outcome& o : outcomes) {
    ++phase->attempted;
    switch (o.kind) {
      case Outcome::Kind::kOk: ++phase->succeeded; break;
      case Outcome::Kind::kFailed: ++phase->failed; break;
      case Outcome::Kind::kRefused: ++phase->refused; break;
    }
  }
}

std::vector<std::size_t> WalkSeeds(const SchedulePhase& phase) {
  std::vector<std::size_t> seeds;
  for (const ScheduledRequest& r : phase.requests) {
    if (IsSeedWalk(r.request.kind)) seeds.push_back(r.request.node);
  }
  return seeds;
}

void ReportBatcher(const ServeSnapshot& snapshot, Report* report) {
  report->Layer("serve.exec_ms_p50", snapshot.exec_p50, "ms");
  report->Layer("serve.queue_wait_ms_p50",
                snapshot.request_p50 - snapshot.exec_p50, "ms");
  report->Layer("serve.queue_wait_ms_p99",
                snapshot.request_p99 - snapshot.exec_p99, "ms");
}

void ProbeWire(LoadGenerator* generator, std::size_t num_nodes,
               Report* report) {
  tmark::obs::Registry::Instance().Reset();
  SchedulePhase lookups{"lookups", 0.0, 0.0, {}};
  for (std::size_t i = 0; i < 2000; ++i) {
    tmark::serve::Request request;
    request.kind = RequestKind::kClassify;
    request.node = (i * 7919) % num_nodes;
    lookups.requests.push_back({0.0, request});
  }
  std::vector<double> rtt;
  bool answered = true;
  for (const Outcome& o : generator->Run(lookups)) {
    answered = answered && o.kind == Outcome::Kind::kOk;
    rtt.push_back(o.rtt_ms);
  }
  report->Check(answered, "every wire probe lookup was answered");
  report->Layer("serve.wire_ms_p50",
                Median(rtt) - ServeSnapshot::Take().request_p50, "ms");
}

double DaemonUpdateMs(tmark::serve::ServingDaemon* daemon,
                      const std::string& dir, Report* report) {
  std::vector<std::string> files = ReadLines(dir + "/deltas.txt");
  files.resize(std::min(files.size(), kCycleDeltas));
  std::vector<double> samples;
  for (const std::string& file : files) {
    ScopedSpan span("update");
    tmark::Result<tmark::hin::HinDelta> delta =
        tmark::hin::LoadHinDeltaFromFile(dir + "/" + file);
    tmark::Status status = delta.status();
    if (status.ok()) status = daemon->BeginUpdate(std::move(delta.value()));
    if (status.ok()) status = daemon->WaitForUpdate();
    samples.push_back(span.Close());
    report->Check(status.ok(), "daemon update " + file + ": " + status.ToString());
  }
  return Median(samples);
}

void ProbeServing(const std::string& dir,
                  const std::vector<std::size_t>& train,
                  const tmark::serve::DaemonOptions& options,
                  const SchedulePhase& walks, std::size_t connections,
                  double core_update_ms, Report* report) {
  Serving serving;
  std::vector<double> setup_s, load_ms;
  if (!ColdStarts(1, dir + "/net.hin", train, options, dir + "/probe.sock",
                  report, &report->AddPhase("probe_setup"), &serving, &setup_s,
                  &load_ms)) {
    return;
  }
  LoadGenerator generator;
  const tmark::Status connected =
      generator.Connect(dir + "/probe.sock", connections);
  report->Check(connected.ok(), "probe connect: " + connected.ToString());
  if (!connected.ok()) return;
  tmark::obs::Registry::Instance().Reset();
  const std::vector<Outcome> outcomes = generator.Run(walks);
  Account(outcomes, &report->AddPhase("probe_walks"));
  const ServeSnapshot snapshot = ServeSnapshot::Take();
  std::vector<double> late;
  for (const Outcome& o : outcomes) late.push_back(o.late_ms);
  ReportBatcher(snapshot, report);
  report->Layer("serve.batch_width_mean", snapshot.batch_width_mean, "count");
  report->Layer("serve.rejected", snapshot.rejected, "count");
  report->Layer("serve.stale_frac",
                snapshot.stale / std::max(snapshot.requests, 1.0), "fraction");
  report->Layer("loadgen.late_p99_ms", Quantile(late, 0.99), "ms");
  ProbeWire(&generator, serving.daemon->hin().num_nodes(), report);
  report->Layer("update.daemon_overhead_ms",
                DaemonUpdateMs(serving.daemon.get(), dir, report) -
                    core_update_ms,
                "ms");
  generator.Close();
}

}  // namespace tmbench
