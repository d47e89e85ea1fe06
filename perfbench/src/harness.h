// Shared plumbing of the repository benchmark: clocks and sample
// statistics, the result report (metrics, output checks, the final JSON
// line), the machine fingerprint, and the seed-driven row generation every
// workload feeds the program with.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/csv.h"
#include "data/profiles.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// p99 limit that defines a sustainable rate (max_rate_rps, goodput) on
  /// tcp_steady. Required on the command line.
  double p99_limit_us = 0.0;
  /// Scratch directory inside the checkout for model files.
  std::string workdir = ".bench_build/work";
  /// Source revision recorded in the fingerprint (git commit or digest).
  std::string source_rev = "unknown";
};

// ---------------------------------------------------------------------------
// Sample statistics.

/// Nearest-rank quantile of `samples` (sorted in place). 0 when empty.
double Quantile(std::vector<double>* samples, double q);
double Median(std::vector<double> samples);

/// The highest of the percentiles 99.9, 99, 95, 90 and 50 that has at
/// least ten samples beyond it, as "p99.9"-style label plus value.
struct TailPercentile {
  std::string label = "none";
  double value = 0.0;
};
TailPercentile HighestSupported(std::vector<double>* samples);

/// The q-quantile of each of `windows` that has at least ten samples
/// beyond q, so each is a real percentile of its stretch of the run.
std::vector<double> PerWindowQuantiles(
    const std::vector<std::vector<double>>& windows, double q);

/// The eighth of all 20-sample blocks (consecutive samples of one window)
/// with the lowest p95, pooled; at least 1,000 samples. A block's p95 is
/// its second-highest sample: a host stall delays a run of consecutive
/// requests and drops their blocks, while one slow sample in a block, the
/// host's or the program's own, does not. For independent samples the
/// pool's p99 reads as the series' p95.5 (simulated): a slow path taken by
/// 4.5% of requests or more shows in it, one taken by 4% does not. Ranking
/// by the block's maximum instead hides slow paths up to 7%; by its p90 or
/// its median, the figures stop holding on a busy host.
std::vector<double> QuietBlocks(
    const std::vector<std::vector<double>>& windows);

// ---------------------------------------------------------------------------
// Result report.

class Report {
 public:
  /// Records one metric. `samples` is the number of observations it
  /// summarises (1 for a single measurement).
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }

  /// Counts checked outputs: `attempted` operations of which `failed`
  /// produced a wrong or missing output.
  void Count(uint64_t attempted, uint64_t failed);
  /// A run-validity condition (enough samples, generator kept up, ...).
  /// A false condition fails the run and counts one failed operation.
  void Require(bool ok, const std::string& what);
  /// Free-form line printed in the run summary.
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failed_ == 0 && errors_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints the human-readable table (name, value, unit, samples), the
  /// notes and any failed checks, then the final JSON line restricted to
  /// `names` (the metric class the run reports).
  void Print(const std::vector<std::string>& names,
             const std::string& fingerprint_json) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Metric names of the two classes, as declared in BENCHMARK.json.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();
/// The unit a metric is declared with ("" for an unknown name).
std::string DeclaredUnit(const std::string& name);

// ---------------------------------------------------------------------------
// Machine fingerprint and process figures.

/// One-line JSON object: nproc, CPU model, kernel backend and tiling,
/// compiler, build type and flags, source revision.
std::string FingerprintJson(const Options& options);
double PeakRssMb();
/// User plus system CPU time of the process so far.
double CpuSeconds();

// ---------------------------------------------------------------------------
// Generated inputs. The program only ever receives these rows.

/// Scored rows of one schema: CSV feature cells per row plus the ground
/// truth (1 = target anomaly) used for AUPRC.
struct RowPool {
  std::vector<std::string> columns;  ///< Feature column names.
  std::vector<std::string> lines;    ///< Cells joined with ',' per row.
  std::vector<int> truth;
  targad::data::RawTable AsTable(size_t begin, size_t end) const;
  size_t size() const { return lines.size(); }
};

/// A model's training data: the bundle and its training table (feature
/// columns f0.. plus "label"; labeled rows carry "target_<class>",
/// unlabeled rows an empty label).
struct TrainingData {
  targad::data::DatasetBundle bundle;
  targad::data::RawTable table;
};
TrainingData MakeTrainingData(const targad::data::DatasetProfile& profile,
                              uint64_t seed);

/// Up to `max_rows` rows of `bundle`: the test split first, then the
/// unlabeled pool.
RowPool RowPoolFromBundle(const targad::data::DatasetBundle& bundle,
                          size_t max_rows);
/// RowPoolFromBundle of `profile`'s bundle for `seed`.
RowPool MakeRowPool(const targad::data::DatasetProfile& profile,
                    uint64_t seed, size_t max_rows);

/// Training configuration of the served models: small and fixed, so
/// set-up stays a few seconds.
targad::core::PipelineConfig ServingPipelineConfig(uint64_t seed);

/// AUPRC of `scores` against 0/1 `truth`.
double Auprc(const std::vector<double>& scores, const std::vector<int>& truth);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
