// NetMetrics: counters and per-stage latency histograms for the TCP
// serving front-end. Same design as serve::ServeMetrics — writers touch
// only relaxed atomics (the hot per-row path costs nanoseconds), readers
// take a consistent-enough snapshot — and the histograms reuse the same
// pow2-bucket implementation, so the two metric families report percentiles
// with identical semantics.
//
// Stage attribution follows the pipeline: ingest/parse (bytes readable ->
// row submitted, on the poll thread), score (BatchScorer::Submit -> its
// completion callback: queueing, any coalescing behind a running batch, and
// inference), respond (completion callback -> reply bytes handed to the
// kernel).

#ifndef TARGAD_NET_METRICS_H_
#define TARGAD_NET_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/hot_path.h"
#include "serve/metrics.h"

namespace targad {
namespace net {

/// Point-in-time copy of every net metric, with derived percentiles.
struct NetMetricsSnapshot {
  uint64_t connections_accepted = 0;  ///< accept() handed us a socket.
  uint64_t connections_rejected = 0;  ///< Turned away at max_connections.
  uint64_t connections_active = 0;    ///< Currently open sessions (gauge).
  uint64_t connections_closed = 0;    ///< Sessions torn down (any reason).
  uint64_t idle_closed = 0;           ///< Closed by the idle timeout.
  uint64_t rows_in = 0;               ///< SCORE requests parsed.
  uint64_t rows_out = 0;              ///< Replies flushed to sockets.
  uint64_t shed = 0;                  ///< ERR overloaded replies (load shed).
  uint64_t protocol_errors = 0;       ///< Malformed request lines.
  uint64_t oversized_lines = 0;       ///< Connections killed by max_line.
  uint64_t drains = 0;                ///< Graceful-drain passes started.

  uint64_t parse_p50_us = 0, parse_p99_us = 0;
  uint64_t score_p50_us = 0, score_p99_us = 0, score_p999_us = 0;
  uint64_t respond_p50_us = 0, respond_p99_us = 0;
  std::array<uint64_t, serve::Pow2Histogram::kNumBuckets> parse_buckets{};
  std::array<uint64_t, serve::Pow2Histogram::kNumBuckets> score_buckets{};
  std::array<uint64_t, serve::Pow2Histogram::kNumBuckets> respond_buckets{};

  /// Multi-line human-readable report (the CLI prints this on exit).
  std::string ToText() const;

  /// Single-line "k=v k=v ..." rendering, the payload of a STATS reply.
  std::string ToStatsLine() const;
};

/// Shared metrics sink for one TCP listener. All methods are thread-safe
/// and non-blocking (atomics only — no mutex anywhere, so recording is
/// legal while holding any lock rank).
class NetMetrics {
 public:
  void RecordAccepted() {
    Add(&connections_accepted_);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordRejected() { Add(&connections_rejected_); }
  void RecordClosed() {
    Add(&connections_closed_);
    connections_active_.fetch_sub(1, std::memory_order_relaxed);
  }
  void RecordIdleClosed() { Add(&idle_closed_); }
  void RecordRowIn() { Add(&rows_in_); }
  void RecordRowsOut(uint64_t n) {
    rows_out_.fetch_add(n, std::memory_order_relaxed);
  }
  void RecordShed() { Add(&shed_); }
  void RecordProtocolError() { Add(&protocol_errors_); }
  void RecordOversized() { Add(&oversized_lines_); }
  void RecordDrain() { Add(&drains_); }

  TARGAD_HOT_PATH void RecordParseUs(uint64_t us) { parse_us_.Record(us); }
  TARGAD_HOT_PATH void RecordScoreUs(uint64_t us) { score_us_.Record(us); }
  TARGAD_HOT_PATH void RecordRespondUs(uint64_t us) { respond_us_.Record(us); }

  NetMetricsSnapshot Snapshot() const;

  /// Snapshot().ToText().
  std::string Report() const { return Snapshot().ToText(); }

 private:
  static void Add(std::atomic<uint64_t>* c) {
    c->fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> idle_closed_{0};
  std::atomic<uint64_t> rows_in_{0};
  std::atomic<uint64_t> rows_out_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> oversized_lines_{0};
  std::atomic<uint64_t> drains_{0};
  serve::Pow2Histogram parse_us_;
  serve::Pow2Histogram score_us_;
  serve::Pow2Histogram respond_us_;
};

}  // namespace net
}  // namespace targad

#endif  // TARGAD_NET_METRICS_H_
