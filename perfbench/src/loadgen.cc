#include "loadgen.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>

#include "common/logging.h"
#include "common/rng.h"

namespace perfbench {

namespace {

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  TARGAD_CHECK(fd >= 0) << "socket: " << std::strerror(errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  TARGAD_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0)
      << "connect: " << std::strerror(errno);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

struct Pending {
  int64_t scheduled_ns = 0;
  uint32_t row = 0;
  bool malformed = false;
};

struct Connection {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<Pending> fifo;
};

bool StartsWith(const std::string& s, size_t pos, size_t len,
                const char* prefix) {
  const size_t n = std::strlen(prefix);
  return len >= n && s.compare(pos, n, prefix) == 0;
}

}  // namespace

double PhaseResult::QuietestWindowQuantile(double q) const {
  std::vector<double> per_window = PerWindowQuantiles(window_latency_us, q);
  if (!per_window.empty()) {
    return *std::min_element(per_window.begin(), per_window.end());
  }
  std::vector<double> all = latency_us;
  return Quantile(&all, q);
}

bool PhaseResult::backlog_growing(double limit_us) const {
  // Little's law: if every reply met the limit, at most rate x limit
  // requests are in flight; allow Poisson slack on top.
  const double allowed = rate * limit_us / 1e6 * 1.5 + 16.0;
  std::vector<double> backlog(window_backlog.begin(), window_backlog.end());
  backlog.push_back(static_cast<double>(outstanding_at_end));
  return Median(backlog) > allowed;
}

bool PhaseResult::fell_behind(double limit_us) const {
  std::vector<double> late = late_us;
  return Quantile(&late, 0.5) > limit_us / 20.0;
}

bool PhaseResult::sustained(double limit_us) const {
  if (wrong + shed + missing > 0 || sent == 0) return false;
  return QuietestWindowQuantile(0.99) <= limit_us &&
         !backlog_growing(limit_us) && !fell_behind(limit_us);
}

LoadGenerator::LoadGenerator(uint16_t port, size_t connections)
    : port_(port), connections_(std::max<size_t>(1, connections)) {
  Reconnect();
}

LoadGenerator::~LoadGenerator() { CloseAll(); }

void LoadGenerator::CloseAll() {
  for (int fd : fds_) ::close(fd);
  fds_.clear();
}

void LoadGenerator::Reconnect() {
  CloseAll();
  for (size_t i = 0; i < connections_; ++i) {
    fds_.push_back(ConnectLoopback(port_));
  }
}

PhaseResult LoadGenerator::Run(const Traffic& traffic,
                               const PhaseConfig& config) {
  PhaseResult result;
  result.rate = config.rate;
  result.window_s = config.seconds;
  const size_t expected_requests =
      static_cast<size_t>(config.rate * config.seconds * 1.1) + 64;
  result.latency_us.reserve(expected_requests);
  result.late_us.reserve(expected_requests);

  targad::Rng arrivals(config.seed * 2 + 1);
  targad::Rng routing(config.seed * 2 + 2);

  std::vector<Connection> conns(fds_.size());
  for (size_t i = 0; i < fds_.size(); ++i) conns[i].fd = fds_[i];
  std::vector<pollfd> pfds(conns.size());

  const int64_t start = NowNs() + 1000000;
  const int64_t end = start + static_cast<int64_t>(config.seconds * 1e9);
  const int64_t deadline = end + static_cast<int64_t>(config.grace_s * 1e9);
  int64_t next = start + static_cast<int64_t>(
                             arrivals.Exponential(config.rate) * 1e9);
  const int64_t window_ns =
      std::max<int64_t>(1, static_cast<int64_t>(config.window_s * 1e9));
  const size_t windows = static_cast<size_t>((end - start + window_ns - 1) /
                                             window_ns);
  result.window_latency_us.resize(windows);
  int64_t next_window_end = start + window_ns;
  size_t rr = 0;
  uint64_t replies = 0;
  bool window_closed = false;

  auto schedule = [&](int64_t now) {
    while (next <= now && next < end) {
      Pending p;
      p.scheduled_ns = next;
      p.row = static_cast<uint32_t>(routing.UniformInt(traffic.rows->size()));
      p.malformed = traffic.malformed_one_in > 0 &&
                    routing.UniformInt(traffic.malformed_one_in) == 0;
      Connection& c = conns[rr++ % conns.size()];
      const std::string& cells = traffic.rows->lines[p.row];
      c.out += "SCORE ";
      c.out += traffic.model;
      c.out.push_back(' ');
      if (p.malformed) {
        c.out += "oops";
        c.out.append(cells, cells.find(','), std::string::npos);
      } else {
        c.out += cells;
      }
      c.out.push_back('\n');
      c.fifo.push_back(p);
      result.late_us.push_back(static_cast<double>(now - next) / 1e3);
      ++result.sent;
      next += static_cast<int64_t>(arrivals.Exponential(config.rate) * 1e9) +
              1;
    }
  };

  auto on_reply = [&](Connection& c, size_t pos, size_t len, int64_t now) {
    ++replies;
    if (c.fifo.empty()) {
      ++result.wrong;
      if (result.first_wrong.empty()) result.first_wrong = "unsolicited reply";
      return;
    }
    const Pending p = c.fifo.front();
    c.fifo.pop_front();
    const double latency = static_cast<double>(now - p.scheduled_ns) / 1e3;
    bool correct = false;
    if (p.malformed) {
      correct = StartsWith(c.in, pos, len, "ERR bad-request");
      if (correct) ++result.expected_err;
    } else {
      const std::string& want = (*traffic.expected)[p.row];
      correct = len == want.size() && c.in.compare(pos, len, want) == 0;
      if (correct) ++result.ok;
    }
    if (correct) {
      result.latency_us.push_back(latency);
      const size_t w = static_cast<size_t>((p.scheduled_ns - start) / window_ns);
      result.window_latency_us[std::min(w, windows - 1)].push_back(latency);
      if (latency <= config.limit_us) ++result.within_limit;
    } else if (StartsWith(c.in, pos, len, "ERR overloaded")) {
      ++result.shed;
    } else {
      ++result.wrong;
      if (result.first_wrong.empty()) {
        result.first_wrong = c.in.substr(pos, std::min<size_t>(len, 120));
      }
    }
  };

  char buf[65536];
  while (true) {
    int64_t now = NowNs();
    if (now >= next_window_end && next_window_end < end) {
      result.window_backlog.push_back(result.sent - replies);
      next_window_end += window_ns;
    }
    if (!window_closed) {
      if (now >= end) {
        window_closed = true;
        result.outstanding_at_end = result.sent - replies;
      } else {
        schedule(now);
      }
    }
    if (window_closed && (replies >= result.sent || now >= deadline)) break;

    for (size_t i = 0; i < conns.size(); ++i) {
      Connection& c = conns[i];
      while (c.out_off < c.out.size()) {
        const ssize_t n = ::write(c.fd, c.out.data() + c.out_off,
                                  c.out.size() - c.out_off);
        if (n <= 0) break;
        c.out_off += static_cast<size_t>(n);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
      pfds[i].fd = c.fd;
      pfds[i].events =
          static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }

    // Busy-poll: a thread that sleeps until its next send wakes late when
    // the host is slow to resume an idle vCPU, and that lateness would be
    // charged to the requests as latency.
    timespec no_wait{0, 0};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &no_wait, nullptr);
    if (ready <= 0) continue;
    now = NowNs();
    for (size_t i = 0; i < conns.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = conns[i];
      while (true) {
        const ssize_t n = ::read(c.fd, buf, sizeof(buf));
        if (n <= 0) break;
        c.in.append(buf, static_cast<size_t>(n));
      }
      size_t pos = 0;
      while (true) {
        const size_t nl = c.in.find('\n', pos);
        if (nl == std::string::npos) break;
        on_reply(c, pos, nl - pos, now);
        pos = nl + 1;
      }
      c.in.erase(0, pos);
    }
  }

  for (const Connection& c : conns) result.missing += c.fifo.size();
  if (result.missing > 0) Reconnect();  // Late replies must not leak.
  return result;
}

RateSearch SearchMaxRate(LoadGenerator* generator, const Traffic& traffic,
                         double start_rate, double budget_s, double probe_s,
                         double limit_us, uint64_t seed) {
  constexpr double kCoarse = 1.4;
  constexpr double kFine = 1.05;
  RateSearch search;
  const Clock::time_point begin = Clock::now();
  double rate = start_rate;
  double highest_sustained = 0.0;
  int first_outcome = -1;  // Of the coarse phase; -1 before any probe.
  bool fine = false;
  std::vector<double> staircase;
  char line[200];
  while (SecondsSince(begin) + probe_s < budget_s) {
    PhaseConfig config;
    config.rate = rate;
    config.seconds = probe_s;
    config.seed = seed + search.probes;
    config.limit_us = limit_us;
    config.window_s = probe_s / 8.0;
    PhaseResult probe = generator->Run(traffic, config);
    ++search.probes;
    search.sent += probe.sent;
    search.wrong += probe.wrong;
    search.late_us.insert(search.late_us.end(), probe.late_us.begin(),
                          probe.late_us.end());
    const bool ok = probe.sustained(limit_us);
    if (!ok && probe.fell_behind(limit_us)) search.generator_bound = true;
    if (ok) highest_sustained = std::max(highest_sustained, rate);
    std::snprintf(line, sizeof(line),
                  "probe %.0f rps: quietest window p99 %.0f us, backlog %llu, "
                  "shed %llu, missing %llu -> %s\n",
                  rate, probe.QuietestWindowQuantile(0.99),
                  static_cast<unsigned long long>(probe.outstanding_at_end),
                  static_cast<unsigned long long>(probe.shed),
                  static_cast<unsigned long long>(probe.missing),
                  ok ? "sustained" : "unsustained");
    search.log += line;
    if (fine) {
      staircase.push_back(rate);
      rate = ok ? rate * kFine : rate / kFine;
    } else if (first_outcome < 0 || first_outcome == static_cast<int>(ok)) {
      first_outcome = static_cast<int>(ok);
      rate = ok ? rate * kCoarse : rate / kCoarse;
    } else {
      // The outcome flipped between `rate` and the previous probe's rate.
      fine = true;
      rate = ok ? rate * std::sqrt(kCoarse) : rate / std::sqrt(kCoarse);
    }
  }
  search.staircase_probes = staircase.size();
  // Without a staircase (a short budget, or no flip) the highest
  // sustained probe is all there is.
  double log_sum = 0.0;
  for (double r : staircase) log_sum += std::log(r);
  search.max_rate =
      staircase.empty()
          ? highest_sustained
          : std::exp(log_sum / static_cast<double>(staircase.size()));
  return search;
}

}  // namespace perfbench
