#include "harness/load.h"

#include <sys/prctl.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <numeric>
#include <thread>

#include "common/rng.h"
#include "harness/harness.h"
#include "harness/trace.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace gralmatch {
namespace e2e {

Result<std::unique_ptr<LoadConnection>> LoadConnection::Open(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOErrorFromErrno("cannot create load socket");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status failure = Status::IOErrorFromErrno("cannot connect the load");
    (void)close(fd);
    return failure;
  }
  return std::unique_ptr<LoadConnection>(new LoadConnection(fd));
}

LoadConnection::~LoadConnection() { (void)close(fd_); }

Status LoadConnection::Send(const std::string& frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOErrorFromErrno("load send failed");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status LoadConnection::Drain(std::vector<Status>* replies) {
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      frames_.Append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IOError("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return Status::IOErrorFromErrno("load recv failed");
  }
  for (;;) {
    bool has_frame = false;
    std::string body;
    GRALMATCH_RETURN_NOT_OK(frames_.NextFrame(&has_frame, &body));
    if (!has_frame) return Status::OK();
    Result<NetReply> reply = DecodeNetReplyBody(body);
    replies->push_back(reply.ok() ? reply->status : reply.status());
  }
}

namespace {

/// Latency recorded for a failed or refused request: it misses any limit.
constexpr double kFailedLatencyUs = 1e12;

/// The latency limit of a step, on its p99 from due.
constexpr double kP99LimitUs = 5000.0;
/// Requests in flight at the end of a step that still count as keeping up.
constexpr uint64_t kBacklogLimit = 128;
/// Share of Members requests; the rest are GroupOf. An assumption, not a
/// measurement: no traffic of a deployed service is available to set it.
constexpr double kMembersShare = 0.2;
/// Zipf exponent of key popularity: 0.99, YCSB's request distribution
/// constant (Cooper et al., "Benchmarking Cloud Serving Systems with YCSB",
/// SoCC 2010). Record and group keys are drawn independently.
constexpr double kZipfExponent = 0.99;

/// The generator sleeps in ppoll until this long before a request is due
/// and polls without sleeping for the rest: the top rate's spacing is
/// tens of microseconds. Sleeps use a 1 ns timer slack (set in RunLadder);
/// the default 50 us would overshoot whole request intervals.
constexpr int64_t kSpinNs = 20000;

/// Zipf-distributed keys over [0, n): rank r has weight 1 / (r + 1)^s, and
/// a seeded permutation scatters the hot ranks over the key space.
class ZipfKeys {
 public:
  ZipfKeys(size_t n, double s, Rng* rng) : cdf_(n), key_of_rank_(n) {
    double acc = 0.0;
    for (size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
    std::iota(key_of_rank_.begin(), key_of_rank_.end(), int64_t{0});
    rng->Shuffle(&key_of_rank_);
  }

  int64_t Draw(Rng* rng) const {
    const double u = rng->UniformDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return key_of_rank_[std::min(rank, key_of_rank_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int64_t> key_of_rank_;
};

StepResult RunStep(const std::vector<std::unique_ptr<LoadConnection>>& conns,
                   double rate, const LadderConfig& config,
                   const ZipfKeys& record_keys, const ZipfKeys& group_keys,
                   Rng* rng, Tracer* tracer, int64_t parent) {
  const size_t num_conns = conns.size();
  StepResult step;
  step.rate = rate;
  const uint64_t total = std::max<uint64_t>(
      num_conns, static_cast<uint64_t>(std::llround(rate * config.step_seconds)));
  const double interval_ns = 1e9 / rate;
  const int64_t t0 = NowNs() + 1000000;
  auto due = [&](uint64_t i) {
    return t0 + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
  };
  const int64_t give_up = due(total) + 5000000000LL;

  std::vector<double> latency_us(total, kFailedLatencyUs);
  std::vector<double> late_ms(total, 0.0);
  std::vector<int64_t> sent_ns(total, 0);
  // Request i goes to connection i % num_conns, which answers in order.
  std::vector<std::deque<uint64_t>> in_flight(num_conns);
  std::vector<pollfd> fds(num_conns);
  for (size_t c = 0; c < num_conns; ++c) fds[c] = {conns[c]->fd(), POLLIN, 0};
  const uint64_t op_base = tracer != nullptr ? tracer->NextOp(total) : 0;
  uint64_t next = 0, completed = 0, failed = 0;
  int64_t last_reply = t0;
  std::vector<Status> replies;

  auto fail_in_flight = [&](size_t c) {
    failed += in_flight[c].size();
    completed += in_flight[c].size();
    in_flight[c].clear();
  };
  auto drain = [&](size_t c) {
    replies.clear();
    const Status status = conns[c]->Drain(&replies);
    const int64_t now = NowNs();
    for (const Status& reply : replies) {
      if (in_flight[c].empty()) break;
      const uint64_t i = in_flight[c].front();
      in_flight[c].pop_front();
      ++completed;
      last_reply = now;
      if (!reply.ok()) {
        ++failed;
        continue;
      }
      latency_us[i] = static_cast<double>(now - due(i)) * 1e-3;
      if (tracer != nullptr) {
        const int64_t span =
            tracer->Record("net.request", op_base + i, parent, due(i), now);
        tracer->Record("net.round_trip", op_base + i, span, sent_ns[i], now);
      }
    }
    if (!status.ok()) fail_in_flight(c);  // the connection is gone
  };
  auto next_frame = [&] {
    const bool members = rng->UniformDouble() < kMembersShare;
    const NetRequest request =
        members ? NetRequest::Members(group_keys.Draw(rng))
                : NetRequest::GroupOf(record_keys.Draw(rng));
    return EncodeNetFrame(EncodeNetRequestBody(request));
  };

  std::string frame = next_frame();
  while (completed < total) {
    const int64_t now = NowNs();
    if (next < total && now >= due(next)) {
      const size_t c = next % num_conns;
      sent_ns[next] = now;
      late_ms[next] = static_cast<double>(now - due(next)) * 1e-6;
      in_flight[c].push_back(next);
      if (!conns[c]->Send(frame).ok()) fail_in_flight(c);
      ++next;
      step.backlog_max = std::max(step.backlog_max, next - completed);
      if (next == total) step.backlog_end = next - completed;
      frame = next_frame();
      continue;
    }
    if (now > give_up) {
      for (size_t c = 0; c < num_conns; ++c) fail_in_flight(c);
      failed += total - next;
      completed += total - next;
      break;
    }
    // Sleep in ppoll until shortly before the next send (replies wake it
    // early); the last stretch is polled without sleeping.
    const int64_t wait =
        (next < total ? due(next) - kSpinNs : give_up) - now;
    timespec timeout{0, 0};
    if (wait > 0) {
      timeout.tv_sec = wait / 1000000000;
      timeout.tv_nsec = wait % 1000000000;
    }
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) > 0) {
      for (size_t c = 0; c < num_conns; ++c) {
        if (fds[c].revents != 0) drain(c);
      }
    }
  }

  step.sent = total;
  step.completed = completed;
  step.failed = failed;
  step.p50_us = obs::SampleQuantile(latency_us, 0.50);
  step.p90_us = obs::SampleQuantile(latency_us, 0.90);
  step.p99_us = obs::SampleQuantile(latency_us, 0.99);
  step.late_p99_ms = obs::SampleQuantile(late_ms, 0.99);
  step.achieved_qps = static_cast<double>(completed - failed) /
                      std::max(1e-9, NsToSeconds(last_reply - t0));
  return step;
}

/// \brief The loopback baseline of a round trip: answers every request
/// frame with one fixed GroupOf reply, one thread per connection pinned
/// like the server's. It pays the kernel's TCP path and the thread
/// wake-ups of a NetServer round trip, and does none of the program's
/// work.
class EchoServer {
 public:
  /// Listens, connects `num_connections` load connections to itself and
  /// starts answering them.
  static Result<std::unique_ptr<EchoServer>> Start(size_t num_connections,
                                                   const std::vector<int>& cpus) {
    const int listener = socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) return Status::IOErrorFromErrno("cannot create echo socket");
    std::unique_ptr<EchoServer> echo(new EchoServer());
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (bind(listener, reinterpret_cast<const sockaddr*>(&addr), len) != 0 ||
        listen(listener, static_cast<int>(num_connections)) != 0 ||
        getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      Status failure = Status::IOErrorFromErrno("cannot listen for the echo");
      (void)close(listener);
      return failure;
    }
    for (size_t c = 0; c < num_connections; ++c) {
      Result<std::unique_ptr<LoadConnection>> conn =
          LoadConnection::Open(ntohs(addr.sin_port));
      const int fd = conn.ok() ? accept(listener, nullptr, nullptr) : -1;
      if (fd < 0) {
        (void)close(listener);
        return conn.ok() ? Status::IOErrorFromErrno("echo accept failed")
                         : conn.status();
      }
      echo->clients_.push_back(std::move(*conn));
      echo->fds_.push_back(fd);
    }
    (void)close(listener);
    NetReply reply;
    reply.op = NetOpcode::kGroupOf;
    reply.epoch = 1;
    reply.group = 0;
    const std::string frame = EncodeNetFrame(EncodeNetReplyBody(reply));
    for (int fd : echo->fds_) {
      echo->threads_.emplace_back([fd, frame, cpus] {
        PinThread(cpus);
        NetFrameBuffer frames(1 << 20);
        char chunk[1 << 16];
        std::string body;
        for (;;) {
          const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
          if (n < 0 && errno == EINTR) continue;
          if (n <= 0) return;  // shut down
          frames.Append(chunk, static_cast<size_t>(n));
          bool has_frame = true;
          while (frames.NextFrame(&has_frame, &body).ok() && has_frame) {
            if (send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) < 0) return;
          }
        }
      });
    }
    return echo;
  }

  ~EchoServer() {
    for (int fd : fds_) (void)shutdown(fd, SHUT_RDWR);
    for (std::thread& t : threads_) t.join();
    for (int fd : fds_) (void)close(fd);
  }

  const std::vector<std::unique_ptr<LoadConnection>>& clients() const {
    return clients_;
  }

 private:
  EchoServer() = default;

  std::vector<std::unique_ptr<LoadConnection>> clients_;
  std::vector<int> fds_;
  std::vector<std::thread> threads_;
};

}  // namespace

std::vector<StepResult> RunLadder(
    const std::vector<std::unique_ptr<LoadConnection>>& connections,
    size_t num_records, size_t num_groups, const LadderConfig& config,
    Tracer* tracer, int64_t parent, double* echo_p50_us) {
  // Both restored on return; see kSpinNs for the slack.
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  const std::vector<int> old_cpus = ThreadCpus();
  PinThread(config.generator_cpus);
  std::vector<int> busy = config.generator_cpus;
  busy.insert(busy.end(), config.server_cpus.begin(), config.server_cpus.end());
  const IdleSpinners spinners(busy);
  Result<std::unique_ptr<EchoServer>> echo =
      EchoServer::Start(connections.size(), config.server_cpus);
  Rng rng(config.seed);
  const ZipfKeys record_keys(std::max<size_t>(1, num_records), kZipfExponent,
                             &rng);
  const ZipfKeys group_keys(std::max<size_t>(1, num_groups), kZipfExponent,
                            &rng);
  // An unmeasured warm-up at the lowest rate: the first requests of a
  // process pay for cold caches and first-touch page faults.
  LadderConfig warmup = config;
  warmup.step_seconds = std::min(0.5, config.step_seconds / 4);
  RunStep(connections, config.rates.front(), warmup, record_keys, group_keys, &rng,
          nullptr, -1);
  std::vector<std::vector<StepResult>> runs(config.rates.size());
  std::vector<double> echo_p50;
  const double middle_rate = config.rates[config.rates.size() / 2];
  for (size_t cycle = 0; cycle < config.cycles; ++cycle) {
    const int64_t cycle_start = NowNs();
    for (size_t r = 0; r < config.rates.size(); ++r) {
      runs[r].push_back(RunStep(connections, config.rates[r], config, record_keys,
                                group_keys, &rng, tracer, parent));
    }
    if (echo.ok()) {
      echo_p50.push_back(RunStep((*echo)->clients(), middle_rate, config,
                                 record_keys, group_keys, &rng, nullptr, -1)
                             .p50_us);
    }
    if (config.between_cycles) config.between_cycles();
    const int64_t now = NowNs();
    if (config.end_ns > 0 && now + (now - cycle_start) > config.end_ns) break;
  }
  if (old_slack > 0) prctl(PR_SET_TIMERSLACK, old_slack, 0, 0, 0);
  PinThread(old_cpus);
  *echo_p50_us = echo_p50.empty() ? 0.0 : Median(echo_p50);

  std::vector<StepResult> steps;
  for (size_t r = 0; r < config.rates.size(); ++r) {
    StepResult step;
    step.rate = config.rates[r];
    std::vector<double> p50, p90, p99, achieved, late;
    for (const StepResult& run : runs[r]) {
      step.sent += run.sent;
      step.completed += run.completed;
      step.failed += run.failed;
      step.backlog_max = std::max(step.backlog_max, run.backlog_max);
      step.backlog_end = std::max(step.backlog_end, run.backlog_end);
      p50.push_back(run.p50_us);
      p90.push_back(run.p90_us);
      p99.push_back(run.p99_us);
      achieved.push_back(run.achieved_qps);
      late.push_back(run.late_p99_ms);
    }
    step.p50_us = Median(p50);
    step.p90_us = Median(p90);
    step.p99_us = Median(p99);
    step.achieved_qps = Median(achieved);
    step.late_p99_ms = Median(late);
    step.met_limit = step.failed == 0 && step.p99_us <= kP99LimitUs &&
                     step.backlog_end <= kBacklogLimit;
    steps.push_back(step);
  }
  return steps;
}

double SustainedQps(const std::vector<StepResult>& steps) {
  double best_rate = 0.0;
  double achieved = 0.0;
  for (const StepResult& step : steps) {
    if (step.met_limit && step.rate > best_rate) {
      best_rate = step.rate;
      achieved = step.achieved_qps;
    }
  }
  return achieved;
}

}  // namespace e2e
}  // namespace gralmatch
