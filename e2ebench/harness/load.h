#ifndef GRALMATCH_E2EBENCH_LOAD_H_
#define GRALMATCH_E2EBENCH_LOAD_H_

/// \file load.h
/// Open-loop RPC load: one thread sends Zipf-keyed GroupOf / Members
/// requests on a fixed schedule, round-robin over its connections, and
/// reads the replies in between, without blocking. Every latency is timed
/// from when its request was *due*, so a stall shows up in every request
/// it delayed, not just the one it hit.
///
/// The connections speak the wire protocol through net/wire.h directly
/// (NetClient's calls block, and one blocked reader thread per connection
/// would compete with the server for the CPUs being measured).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace gralmatch {
namespace e2e {

class Tracer;

/// \brief One loopback connection of the load generator.
class LoadConnection {
 public:
  static Result<std::unique_ptr<LoadConnection>> Open(uint16_t port);
  ~LoadConnection();

  LoadConnection(const LoadConnection&) = delete;
  LoadConnection& operator=(const LoadConnection&) = delete;

  int fd() const { return fd_; }

  /// Writes one complete request frame.
  Status Send(const std::string& frame);

  /// Reads whatever bytes have arrived, without blocking, and appends the
  /// status of every complete reply to `replies`. A closed or broken
  /// connection is an error.
  Status Drain(std::vector<Status>* replies);

 private:
  explicit LoadConnection(int fd) : fd_(fd), frames_(1 << 20) {}

  int fd_;
  NetFrameBuffer frames_;
};

struct LadderConfig {
  /// Offered rates (requests per second).
  std::vector<double> rates;
  /// The rates run interleaved, `cycles` times over; each rate reports the
  /// median of its cycles, so stalls of the machine cannot decide a step.
  size_t cycles = 3;
  /// When nonzero (a NowNs() time), no cycle starts that would end after
  /// it, judged by the length of the cycle before; `cycles` stays the
  /// upper bound.
  int64_t end_ns = 0;
  /// Length of one rate's run within one cycle.
  double step_seconds = 1.0;
  uint64_t seed = 1;
  /// CPUs for the generator (the calling thread, for the ladder's length);
  /// empty leaves placement to the kernel.
  std::vector<int> generator_cpus;
  /// The server's CPUs; the echo baseline runs there too. The generator's
  /// and the server's CPUs are kept from going idle while the ladder runs
  /// (IdleSpinners).
  std::vector<int> server_cpus;
  /// Runs on the generator thread after each cycle, while no request is
  /// outstanding; may be empty.
  std::function<void()> between_cycles;
};

/// One rate of the ladder; latencies, rates and lateness are medians over
/// its cycles, counts are totals, backlogs are maxima.
struct StepResult {
  double rate = 0.0;
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  /// Requests answered per second, first due time to last reply.
  double achieved_qps = 0.0;
  /// How late the generator sent (send time minus due time), p99.
  double late_p99_ms = 0.0;
  uint64_t backlog_max = 0;
  uint64_t backlog_end = 0;
  /// p99 within kP99LimitUs, no failed request, and at most kBacklogLimit
  /// requests in flight when sending stopped (no growing backlog).
  bool met_limit = false;
};

/// The echo baseline's p50 on the reference host of HostSpeed. Read
/// latencies are reported scaled by this over the run's echo p50: the
/// loopback path and wake-ups make up most of a round trip, and they vary
/// with the host from run to run.
constexpr double kReferenceEchoUs = 28.0;

/// Runs the ladder (one StepResult per rate, in `config.rates` order) on
/// the calling thread against a server whose current epoch covers
/// `num_records` records in `num_groups` groups. With a tracer, every
/// request records a `net.request` span (due to reply) with a
/// `net.round_trip` child (send to reply) under `parent`. Each cycle ends
/// with one more step at the middle rate against a loopback echo server
/// that does no work; the median of its p50s goes to `*echo_p50_us` (0 if
/// the echo could not start).
std::vector<StepResult> RunLadder(
    const std::vector<std::unique_ptr<LoadConnection>>& connections,
    size_t num_records, size_t num_groups, const LadderConfig& config,
    Tracer* tracer, int64_t parent, double* echo_p50_us);

/// The highest step that met the limit (its achieved rate), or 0.
double SustainedQps(const std::vector<StepResult>& steps);

}  // namespace e2e
}  // namespace gralmatch

#endif  // GRALMATCH_E2EBENCH_LOAD_H_
