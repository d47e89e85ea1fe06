// Open-loop TCP load generator. One thread multiplexes at most `nproc`
// connections, busy-polling them with ppoll(): requests are scheduled by a
// Poisson arrival process, each latency is measured from the request's
// scheduled send time (so a stall is charged to every request it delays),
// and the generator records how late it actually sent each request.
// Replies are matched FIFO per connection and checked against the expected
// wire reply.
//
// Rate accounting is backlog-aware: goodput counts only replies that met
// the latency limit, and a rate whose backlog exceeds what the limit allows
// (Little's law) is marked unsustained.

#ifndef PERFBENCH_SRC_LOADGEN_H_
#define PERFBENCH_SRC_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// What the generator sends: `SCORE <model> <row>` lines over the pool.
struct Traffic {
  std::string model;
  const RowPool* rows = nullptr;
  /// Expected reply line ("OK <score>", no newline) for every row.
  const std::vector<std::string>* expected = nullptr;
  /// Plant one malformed row in this many requests (0 = none). A planted
  /// row has its first cell replaced by a non-number and must be answered
  /// with "ERR bad-request".
  size_t malformed_one_in = 0;
};

struct PhaseConfig {
  double rate = 1000.0;   ///< Offered requests per second.
  double seconds = 1.0;   ///< Send window.
  uint64_t seed = 1;
  double limit_us = 0.0;  ///< The run's p99 limit; callers set it.
  /// After the window, wait this long at most for outstanding replies.
  double grace_s = 3.0;
  /// Statistics window: latencies are also kept per window (by scheduled
  /// time) and the backlog is sampled at every window end, so a short
  /// host stall spoils the windows it hits, not the phase's figures.
  double window_s = 0.5;
};

struct PhaseResult {
  double rate = 0.0;
  double window_s = 0.0;
  uint64_t sent = 0;
  uint64_t ok = 0;            ///< Correct score replies.
  uint64_t expected_err = 0;  ///< Planted rows answered with their ERR.
  uint64_t wrong = 0;         ///< Wrong score or unexpected reply.
  uint64_t shed = 0;          ///< "ERR overloaded".
  uint64_t missing = 0;       ///< No reply within the grace period.
  uint64_t within_limit = 0;  ///< Correct replies that met the limit.
  uint64_t outstanding_at_end = 0;
  std::vector<double> latency_us;  ///< Correct replies, from scheduled time.
  std::vector<std::vector<double>> window_latency_us;
  std::vector<uint64_t> window_backlog;  ///< Outstanding at each window end.
  std::vector<double> late_us;     ///< Send lateness per request.
  std::string first_wrong;         ///< Example of a wrong reply.

  /// The lowest of PerWindowQuantiles over the windows; the whole phase's
  /// quantile when no window has ten samples beyond q.
  double QuietestWindowQuantile(double q) const;

  double goodput_rps() const {
    return window_s > 0 ? static_cast<double>(within_limit) / window_s : 0.0;
  }
  /// The median window-end backlog exceeds what the limit allows.
  bool backlog_growing(double limit_us) const;
  /// The generator fell behind its schedule: median send lateness above
  /// a twentieth of the latency limit (a systematic lag; a host stall
  /// moves the tail of the lateness, not its median).
  bool fell_behind(double limit_us) const;
  /// Sustained: no failed, shed or missing request, the quietest window's
  /// p99 within the limit, no growing backlog, and the generator kept its
  /// schedule. Overload raises every window's p99; a host stall raises
  /// only the windows it hits, and in a busy period of the host that can
  /// be most of them.
  bool sustained(double limit_us) const;
};

class LoadGenerator {
 public:
  LoadGenerator(uint16_t port, size_t connections);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Runs one open-loop phase on the calling thread.
  PhaseResult Run(const Traffic& traffic, const PhaseConfig& config);

 private:
  void Reconnect();
  void CloseAll();

  uint16_t port_;
  size_t connections_;
  std::vector<int> fds_;
};

/// Highest sustainable rate, found with an up-down staircase. From
/// `start_rate` the rate moves ×1.4 (up while probes are sustained, down
/// while they fail) until the outcome flips. From the geometric middle of
/// that bracket, each probe then steps the rate ×1.05 up after a sustained
/// probe and down after a failed one, until `budget_s` is spent. The
/// staircase settles where a probe is sustained half the time; max_rate is
/// the geometric mean of its probed rates. A sustained probe near the knee
/// can fail when the host stalls, and a failed one pass; the mean over the
/// staircase averages over both.
struct RateSearch {
  double max_rate = 0.0;
  size_t probes = 0;
  size_t staircase_probes = 0;  ///< The probes max_rate averages.
  bool generator_bound = false;  ///< A probe failed because we fell behind.
  uint64_t sent = 0;
  uint64_t wrong = 0;
  std::vector<double> late_us;
  std::string log;
};
RateSearch SearchMaxRate(LoadGenerator* generator, const Traffic& traffic,
                         double start_rate, double budget_s, double probe_s,
                         double limit_us, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LOADGEN_H_
