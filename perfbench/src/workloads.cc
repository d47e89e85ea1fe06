#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <streambuf>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/frozen_scorer.h"
#include "core/pipeline.h"
#include "ladder.h"
#include "loadgen.h"
#include "net/metrics.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/batch_scorer.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/stream.h"

namespace perfbench {

using namespace targad;  // NOLINT(build/namespaces)
namespace fs = std::filesystem;

namespace {

// The served models are trained on fixed data (a deployed model): the
// dataset scale and seed below do not depend on --seed, and test_auprc is
// the served model's AUPRC on that bundle's held-out test split. Only the
// traffic depends on --seed. At scale 0.1 the KDD-like model trains in
// ~1.5 s: a 0.5 s training's time swung 0.44-0.74 s between runs.
constexpr double kServingScale = 0.1;
constexpr uint64_t kModelSeed = 7;
constexpr double kTrafficScale = 0.3;
// Distinct rows each schema's row pool holds.
constexpr size_t kPoolRows = 16384;
// Set-up repetitions: setup_s is their median, train_s the fastest.
constexpr int kSetupRepeats = 5;

size_t GeneratorConnections() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<size_t>(std::clamp<long>(n, 1, 4));
}

double Since(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

// Segments a latency figure is measured in, spread over the run.
constexpr int kRounds = 3;
// A latency figure needs this many statistics windows of at least
// kWindowMin samples.
constexpr size_t kMinWindows = 8;
constexpr size_t kWindowMin = 1000;

/// lat_p50_us<suffix>: the lowest over statistics windows (from every
/// segment of the run, of at least kWindowMin samples) of each window's
/// p50; for independent samples that reads as about the series' p46.5
/// (simulated). lat_p99_us<suffix>: the p99 of the QuietBlocks pool. Notes
/// the median window figures and the whole series' beside them.
void SetLatency(const std::vector<std::vector<double>>& windows,
                const std::string& suffix, const char* what, Report* report) {
  std::vector<std::vector<double>> full;
  for (const std::vector<double>& window : windows) {
    if (window.size() >= kWindowMin) full.push_back(window);
  }
  std::vector<double> p50 = PerWindowQuantiles(full, 0.5);
  std::vector<double> pool = QuietBlocks(windows);
  report->Require(p50.size() >= kMinWindows && pool.size() >= 1000,
                  "fewer than " + std::to_string(kMinWindows) +
                      " latency windows or 1,000 quiet samples for " + what);
  std::vector<double> all;
  for (const std::vector<double>& window : windows) {
    all.insert(all.end(), window.begin(), window.end());
  }
  report->Set("lat_p50_us" + suffix, Quantile(&p50, 0.0), "us", all.size());
  report->Set("lat_p99_us" + suffix, Quantile(&pool, 0.99), "us",
              pool.size());
  std::vector<double> p99 = PerWindowQuantiles(full, 0.99);
  const TailPercentile tail = HighestSupported(&all);
  char note[320];
  std::snprintf(note, sizeof(note),
                "%s: %zu samples in %zu windows, %zu in quiet blocks; median "
                "window p50 %.1f us, p99 %.1f us; whole series p50 %.1f us, "
                "p99 %.1f us, highest supported %s = %.1f us",
                what, all.size(), windows.size(), pool.size(), Median(p50),
                Median(p99),
                Quantile(&all, 0.5), Quantile(&all, 0.99), tail.label.c_str(),
                tail.value);
  report->Note(note);
}

/// Expected wire reply ("OK <score>", newline stripped) per pool row.
std::vector<std::string> ExpectedReplies(const core::RowScorer& scorer,
                                         const RowPool& pool) {
  auto scores = scorer.Score(pool.AsTable(0, pool.size())).ValueOrDie();
  std::vector<std::string> out;
  out.reserve(scores.size());
  for (double s : scores) {
    std::string reply = net::FormatOkScore(s);
    reply.pop_back();
    out.push_back(std::move(reply));
  }
  return out;
}

/// AUPRC of `scorer` on the held-out test split of its training bundle.
double TestAuprc(const core::RowScorer& scorer, const TrainingData& train) {
  const RowPool test =
      RowPoolFromBundle(train.bundle, train.bundle.test.size());
  auto scores = scorer.Score(test.AsTable(0, test.size())).ValueOrDie();
  return Auprc(scores, test.truth);
}

/// The serving workloads run the kernels on one thread, so the served
/// models' training (set-up) does not depend on how many vCPUs a shared
/// host grants at that moment; serving itself never tiles. Must run before
/// the first kernel call; a TARGAD_KERNEL_THREADS the caller set wins.
void SingleThreadedKernels() { setenv("TARGAD_KERNEL_THREADS", "1", 0); }

core::TargAdPipeline TrainPipeline(const data::RawTable& table) {
  return core::TargAdPipeline::Train(table, ServingPipelineConfig(kModelSeed))
      .ValueOrDie();
}

void WriteArtifact(const core::TargAdPipeline& pipeline,
                   const std::string& path) {
  TARGAD_CHECK_OK(
      pipeline.Freeze(nn::Dtype::kFloat32).ValueOrDie().SaveArtifact(path));
}

// ---------------------------------------------------------------------------
// Trace-only scorer wrapper: counts Score calls, rows and busy time. One
// wrapper per underlying snapshot, so BatchScorer's pointer-based swap
// detection sees a swap only when the registry's snapshot really changed.

struct ScoreCounters {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> rows{0};
  std::atomic<uint64_t> busy_ns{0};
};

class CountingScorer : public core::RowScorer {
 public:
  CountingScorer(std::shared_ptr<const core::RowScorer> inner,
                 ScoreCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  Result<std::vector<double>> Score(
      const data::RawTable& table) const override {
    const int64_t start = NowNs();
    auto result = inner_->Score(table);
    const int64_t end = NowNs();
    counters_->calls.fetch_add(1, std::memory_order_relaxed);
    counters_->rows.fetch_add(table.rows.size(), std::memory_order_relaxed);
    counters_->busy_ns.fetch_add(static_cast<uint64_t>(end - start),
                                 std::memory_order_relaxed);
    return result;
  }
  const std::vector<std::string>& feature_columns() const override {
    return inner_->feature_columns();
  }
  const std::string& label_column() const override {
    return inner_->label_column();
  }

 private:
  std::shared_ptr<const core::RowScorer> inner_;
  ScoreCounters* counters_;
};

// ---------------------------------------------------------------------------
// The serving program as `targad serve` assembles it: a float32 registry
// over a model directory, a BatchScorer with a named provider, and (for the
// TCP workload) a TcpServer. With `traced`, the provider times each
// registry lookup and wraps each snapshot in a CountingScorer.

class ServingStack {
 public:
  ServingStack(const std::string& model_dir, serve::BatchScorerOptions options,
               bool tcp, bool traced)
      : traced_(traced) {
    registry_.set_serve_dtype(nn::Dtype::kFloat32);
    registry_.set_metrics(&serve_metrics_);
    TARGAD_CHECK_OK(registry_.LoadDirectory(model_dir));
    scorer_ = std::make_unique<serve::BatchScorer>(
        serve::BatchScorer::NamedSnapshotProvider(
            [this](const std::string& name) { return Lookup(name); }),
        options, &serve_metrics_,
        [this] { return registry_.ListNames(); });
    if (tcp) {
      net::TcpServerOptions server_options;
      server_options.serve_metrics = &serve_metrics_;
      server_ = std::make_unique<net::TcpServer>(scorer_.get(), &net_metrics_,
                                                 server_options);
      TARGAD_CHECK_OK(server_->Start());
    }
  }

  ~ServingStack() {
    if (server_) {
      server_->BeginDrain();
      server_->Wait();
    }
    scorer_->Shutdown();
  }

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  uint16_t port() const { return server_ ? server_->port() : 0; }
  serve::BatchScorer* scorer() { return scorer_.get(); }

  /// Per-layer counters read through the public snapshot functions.
  void RecordLayerMetrics(Report* report) const {
    const serve::MetricsSnapshot s = serve_metrics_.Snapshot();
    report->Set("serve.mean_batch_size", s.mean_batch_size, "rows", s.batches);
    report->Set("serve.rejected", static_cast<double>(s.requests_rejected),
                "count", 1);
    report->Set("serve.model_swaps", static_cast<double>(s.model_swaps),
                "count", 1);
    const uint64_t lookups = s.registry_hits + s.registry_misses;
    report->Set("serve.registry.hit_ratio",
                lookups == 0 ? 0.0
                             : static_cast<double>(s.registry_hits) /
                                   static_cast<double>(lookups),
                "ratio", lookups);
    report->Set("serve.registry.loads", static_cast<double>(s.registry_loads),
                "count", 1);
    report->Set("serve.registry.evictions",
                static_cast<double>(s.registry_evictions), "count", 1);
    char note[160];
    std::snprintf(note, sizeof(note),
                  "registry: %llu hits, %llu misses, load p50/p99 <= %llu/%llu "
                  "us (pow2 buckets)",
                  static_cast<unsigned long long>(s.registry_hits),
                  static_cast<unsigned long long>(s.registry_misses),
                  static_cast<unsigned long long>(s.registry_load_p50_us),
                  static_cast<unsigned long long>(s.registry_load_p99_us));
    report->Note(note);
    const net::NetMetricsSnapshot n = net_metrics_.Snapshot();
    report->Set("net.score_stage_us.p50", static_cast<double>(n.score_p50_us),
                "us", n.rows_in);
    report->Set("net.score_stage_us.p99", static_cast<double>(n.score_p99_us),
                "us", n.rows_in);
    report->Set("net.shed", static_cast<double>(n.shed), "count", 1);
    report->Set("net.protocol_errors", static_cast<double>(n.protocol_errors),
                "count", 1);
    const uint64_t calls = counters_.calls.load();
    report->Set("core.score_calls", static_cast<double>(calls), "count", 1);
    report->Set("core.score_rows_per_call",
                calls == 0 ? 0.0
                           : static_cast<double>(counters_.rows.load()) /
                                 static_cast<double>(calls),
                "rows", calls);
    report->Set("core.score_busy_ms",
                static_cast<double>(counters_.busy_ns.load()) / 1e6, "ms",
                calls);
    std::vector<double> lookup;
    {
      std::lock_guard<std::mutex> lock(trace_mu_);
      lookup = lookup_us_;
    }
    report->Set("serve.registry.lookup_us.p50", Quantile(&lookup, 0.5), "us",
                lookup.size());
    report->Set("serve.registry.lookup_us.p99", Quantile(&lookup, 0.99), "us",
                lookup.size());
    report->Set("trace.overhead_pct",
                TraceOverheadPct(static_cast<double>(lookup.size() + calls)),
                "%", lookup.size() + calls);
  }

 private:
  /// Tracing overhead as a share of the process's CPU time so far: the
  /// traced operations (lookups and wrapped Score calls) times the
  /// measured cost of timing and recording one.
  static double TraceOverheadPct(double traced_ops) {
    constexpr size_t kCalibration = 200000;
    std::mutex mu;
    std::vector<double> scratch;
    scratch.reserve(kCalibration);
    const int64_t start = NowNs();
    for (size_t i = 0; i < kCalibration; ++i) {
      const int64_t t = NowNs();
      std::lock_guard<std::mutex> lock(mu);
      scratch.push_back(static_cast<double>(NowNs() - t));
    }
    const double op_s = static_cast<double>(NowNs() - start) / 1e9 /
                        static_cast<double>(kCalibration);
    const double cpu_s = CpuSeconds();
    return cpu_s > 0 ? 100.0 * traced_ops * op_s / cpu_s : 0.0;
  }

  /// The BatchScorer provider: a registry lookup, timed and wrapped only
  /// when traced.
  std::shared_ptr<const core::RowScorer> Lookup(const std::string& name) {
    if (!traced_) {
      auto snapshot = registry_.GetScorer(name);
      return snapshot.ok() ? *snapshot : nullptr;
    }
    const int64_t start = NowNs();
    auto snapshot = registry_.GetScorer(name);
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(trace_mu_);
    lookup_us_.push_back(static_cast<double>(end - start) / 1e3);
    if (!snapshot.ok()) return nullptr;
    auto& wrapper = wrappers_[snapshot->get()];
    if (!wrapper) {
      wrapper = std::make_shared<CountingScorer>(*snapshot, &counters_);
    }
    return wrapper;
  }

  const bool traced_;
  serve::ModelRegistry registry_;
  serve::ServeMetrics serve_metrics_;
  net::NetMetrics net_metrics_;
  ScoreCounters counters_;
  mutable std::mutex trace_mu_;
  std::vector<double> lookup_us_;  ///< Guarded by trace_mu_.
  /// Keyed by the wrapped snapshot; the wrapper holds a reference, so the
  /// key's address cannot be reused while the entry exists. Guarded by
  /// trace_mu_.
  std::map<const void*, std::shared_ptr<CountingScorer>> wrappers_;
  std::unique_ptr<serve::BatchScorer> scorer_;
  std::unique_ptr<net::TcpServer> server_;
};

serve::BatchScorerOptions CliServeOptions() {
  serve::BatchScorerOptions options;  // `targad serve` defaults.
  options.max_batch_size = 64;
  options.max_queue_delay_us = 200;
  options.num_workers = 2;
  options.max_queue_rows = 4096;
  return options;
}

/// The program's set-up as a user pays it, repeated kSetupRepeats times.
struct SetUpResult {
  std::unique_ptr<core::TargAdPipeline> pipeline;  ///< The last one's.
  std::unique_ptr<ServingStack> stack;             ///< The last one's.
  std::string artifact;                            ///< Its model file.
  double setup_s = 0.0;  ///< Median of the repeated set-ups.
  double train_s = 0.0;  ///< Fastest training among them.
  double test_auprc = 0.0;
};

/// Each repetition trains on `train`, freezes the model to a float32
/// `<dir>/default.tgz1`, and starts a fresh stack over the directory.
/// Training is deterministic, so every repetition's artifact must give a
/// bit-identical test AUPRC; a difference fails the run.
SetUpResult SetUp(const TrainingData& train, const std::string& dir,
                  serve::BatchScorerOptions options, bool tcp, bool traced,
                  Report* report) {
  fs::create_directories(dir);
  SetUpResult out;
  out.artifact = dir + "/default.tgz1";
  std::vector<double> setup;
  std::vector<double> train_s;
  std::vector<double> auprc;
  for (int i = 0; i < kSetupRepeats; ++i) {
    out.stack.reset();
    const int64_t start = NowNs();
    out.pipeline =
        std::make_unique<core::TargAdPipeline>(TrainPipeline(train.table));
    train_s.push_back(Since(start));
    WriteArtifact(*out.pipeline, out.artifact);
    out.stack = std::make_unique<ServingStack>(dir, options, tcp, traced);
    setup.push_back(Since(start));
    auprc.push_back(TestAuprc(
        core::FrozenScorer::LoadArtifact(out.artifact).ValueOrDie(), train));
  }
  for (size_t i = 1; i < auprc.size(); ++i) {
    if (auprc[i] == auprc[0]) {
      report->Count(1, 0);
      continue;
    }
    char what[160];
    std::snprintf(what, sizeof(what),
                  "test AUPRC of set-up %zu (%.17g) differs from set-up 1's "
                  "(%.17g)",
                  i + 1, auprc[i], auprc[0]);
    report->Require(false, what);
  }
  out.setup_s = Median(setup);
  out.train_s = *std::min_element(train_s.begin(), train_s.end());
  out.test_auprc = auprc.back();
  return out;
}

void RecordSetUp(const SetUpResult& result, const TrainingData& train,
                 Report* report) {
  report->Set("setup_s", result.setup_s, "s", kSetupRepeats);
  report->Set("train_s", result.train_s, "s", kSetupRepeats);
  report->Set("test_auprc", result.test_auprc, "ratio",
              train.bundle.test.size());
}

// ---------------------------------------------------------------------------
// tcp_steady's open-loop schedule. The base and peak rates are below the
// knee; the shares are of --seconds.

constexpr double kBaseRate = 10000.0;
constexpr double kPeakRate = 30000.0;
constexpr double kBaseShare = 0.3;
constexpr double kPeakShare = 0.2;
constexpr double kSearchShare = 0.45;
constexpr double kSearchStartRate = 100000.0;
constexpr double kProbeS = 0.5;
// Expected replies per statistics window of the base and peak phases:
// enough that nearly every window has ten beyond p99.
constexpr double kWindowReplies = 1200.0;

struct LoadTotals {
  uint64_t sent = 0;
  std::vector<double> late_us;
};

void CountPhase(const PhaseResult& phase, const char* name, double limit_us,
                LoadTotals* totals, Report* report) {
  report->Count(phase.sent, phase.wrong + phase.shed + phase.missing);
  totals->sent += phase.sent;
  totals->late_us.insert(totals->late_us.end(), phase.late_us.begin(),
                         phase.late_us.end());
  if (phase.wrong > 0) {
    report->Note(std::string(name) + ": first wrong reply: " +
                 phase.first_wrong);
  }
  std::vector<double> late = phase.late_us;
  std::vector<double> lat = phase.latency_us;
  char line[280];
  std::snprintf(line, sizeof(line),
                "%s: %.0f rps, sent %llu (ok %llu, planted ERR %llu), late "
                "p50/p99/max %.0f/%.0f/%.0f us, latency p50/p90/p99 "
                "%.0f/%.0f/%.0f us",
                name, phase.rate, static_cast<unsigned long long>(phase.sent),
                static_cast<unsigned long long>(phase.ok),
                static_cast<unsigned long long>(phase.expected_err),
                Quantile(&late, 0.5), Quantile(&late, 0.99),
                Quantile(&late, 1.0), Quantile(&lat, 0.5), Quantile(&lat, 0.9),
                Quantile(&lat, 0.99));
  report->Note(line);
  report->Require(!phase.fell_behind(limit_us),
                  std::string(name) + ": generator fell behind its schedule");
  report->Require(!phase.backlog_growing(limit_us),
                  std::string(name) + ": backlog grew during the phase");
}

/// Warm-up, base, peak and max-rate phases against a running server.
void RunServingPhases(uint16_t port, const Traffic& traffic,
                      const Options& options, Report* report) {
  const double limit_us = options.p99_limit_us;
  LoadGenerator generator(port, GeneratorConnections());
  LoadTotals totals;

  PhaseConfig config;
  config.limit_us = limit_us;
  config.seed = options.seed * 1000;

  // Warm-up: connections, caches.
  config.rate = kBaseRate;
  config.seconds = 0.5;
  CountPhase(generator.Run(traffic, config), "warm-up", limit_us, &totals,
             report);

  // Base and peak alternate in kRounds segments, so each figure is
  // measured over several stretches of the run.
  std::vector<std::vector<double>> base_windows;
  std::vector<std::vector<double>> peak_windows;
  std::vector<double> goodput;
  uint64_t within_limit = 0;
  auto run = [&](double rate, double share, const char* name,
                 std::vector<std::vector<double>>* windows) {
    config.rate = rate;
    config.seconds = share * options.seconds / kRounds;
    config.window_s = kWindowReplies / rate;
    ++config.seed;
    PhaseResult phase = generator.Run(traffic, config);
    CountPhase(phase, name, limit_us, &totals, report);
    for (std::vector<double>& window : phase.window_latency_us) {
      windows->push_back(std::move(window));
    }
    return phase;
  };
  for (int round = 0; round < kRounds; ++round) {
    run(kBaseRate, kBaseShare, "base", &base_windows);
    const PhaseResult peak = run(kPeakRate, kPeakShare, "peak", &peak_windows);
    goodput.push_back(peak.goodput_rps());
    within_limit += peak.within_limit;
  }
  if (!options.trace) {
    SetLatency(base_windows, "", "base phase", report);
    SetLatency(peak_windows, ".peak", "peak phase", report);
    report->Set("rows_per_s", Median(goodput), "1/s", within_limit);
    // Memory of the serving phases; the overload probes below would make
    // it depend on how far past the knee the search stepped.
    report->Set("peak_rss_mb", PeakRssMb(), "MB", 1);
  }

  const RateSearch search =
      SearchMaxRate(&generator, traffic, kSearchStartRate,
                    kSearchShare * options.seconds, kProbeS, limit_us,
                    options.seed * 1000 + 500);
  report->Count(search.sent, search.wrong);
  totals.sent += search.sent;
  totals.late_us.insert(totals.late_us.end(), search.late_us.begin(),
                        search.late_us.end());
  std::printf("%s", search.log.c_str());
  if (search.generator_bound) {
    report->Note("max-rate search: a probe failed because the generator "
                 "fell behind; max_rate_rps may be a lower bound");
  }
  if (!options.trace) {
    report->Require(search.max_rate > 0.0, "no probed rate was sustained");
    report->Require(search.staircase_probes >= 8,
                    "the max-rate staircase had fewer than 8 probes");
    report->Set("max_rate_rps", search.max_rate, "1/s",
                search.staircase_probes);
  }
  report->Set("loadgen.sent", static_cast<double>(totals.sent), "count", 1);
  report->Set("loadgen.late_us.p99", Quantile(&totals.late_us, 0.99), "us",
              totals.late_us.size());
}

/// Per-layer metrics a workload does not exercise read 0.
void ZeroUnusedLayers(Report* report) {
  for (const std::string& name : PerLayerMetricNames()) {
    if (!report->Has(name)) report->Set(name, 0.0, DeclaredUnit(name), 0);
  }
}

LadderInputs ServingLadder(const core::TargAdPipeline& pipeline,
                           std::shared_ptr<const core::FrozenScorer> scorer,
                           const RowPool& rows, const TrainingData& train) {
  LadderInputs ladder;
  ladder.model = &pipeline.model();
  ladder.scorer = std::move(scorer);
  ladder.rows = &rows;
  ladder.train = &train.bundle.train;
  ladder.training = ServingPipelineConfig(kModelSeed).model;
  return ladder;
}

// ---------------------------------------------------------------------------

void TcpSteady(const Options& options, Report* report) {
  SingleThreadedKernels();
  const TrainingData train =
      MakeTrainingData(data::KddLikeProfile(kServingScale), kModelSeed);
  const RowPool rows = MakeRowPool(data::KddLikeProfile(kTrafficScale),
                                   options.seed, kPoolRows);

  // Set-up: train, freeze, write the artifact, then load and serve.
  const SetUpResult setup =
      SetUp(train, options.workdir + "/models", CliServeOptions(), true,
            options.trace, report);

  // Expected replies: the same artifact scored in process.
  auto reference = std::make_shared<const core::FrozenScorer>(
      core::FrozenScorer::LoadArtifact(setup.artifact).ValueOrDie());
  const std::vector<std::string> expected = ExpectedReplies(*reference, rows);

  Traffic traffic;
  traffic.model = "default";
  traffic.rows = &rows;
  traffic.expected = &expected;
  // Rare malformed rows: each must come back "ERR bad-request" and fail
  // only itself (BatchScorer's one-bad-row fallback).
  traffic.malformed_one_in = 1000;
  RunServingPhases(setup.stack->port(), traffic, options, report);

  if (!options.trace) {
    RecordSetUp(setup, train, report);
    return;
  }
  setup.stack->RecordLayerMetrics(report);
  const RowPool wide =
      MakeRowPool(data::UnswLikeProfile(0.01), options.seed, 256);
  LadderInputs ladder = ServingLadder(*setup.pipeline, reference, rows, train);
  ladder.narrow = &rows;
  ladder.wide = &wide;
  ladder.port = setup.stack->port();
  RunLadder(ladder, options.seed, report);
}

// ---------------------------------------------------------------------------
// stream_wide: per-row residence latency through ScoreCsvStream, observed
// from outside with stream buffers that stamp each line as ScoreCsvStream
// reads it and as it writes the row's score.

class StampedSource : public std::streambuf {
 public:
  StampedSource(const std::string& text, std::vector<int64_t>* stamps)
      : text_(text), stamps_(stamps) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (pos_ >= text_.size()) return traits_type::eof();
    size_t end = text_.find('\n', pos_);
    end = end == std::string::npos ? text_.size() : end + 1;
    // The get area is only ever read; streambuf's interface is non-const.
    char* base = const_cast<char*>(text_.data());
    setg(base + pos_, base + pos_, base + end);
    pos_ = end;
    stamps_->push_back(NowNs());
    return traits_type::to_int_type(*gptr());
  }

 private:
  const std::string& text_;
  std::vector<int64_t>* stamps_;
  size_t pos_ = 0;
};

class StampedSink : public std::streambuf {
 public:
  explicit StampedSink(std::vector<int64_t>* stamps) : stamps_(stamps) {}
  const std::string& text() const { return text_; }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return 0;
    text_.push_back(traits_type::to_char_type(c));
    if (c == '\n') stamps_->push_back(NowNs());
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text_.append(s, static_cast<size_t>(n));
    for (std::streamsize i = 0; i < n; ++i) {
      if (s[i] == '\n') stamps_->push_back(NowNs());
    }
    return n;
  }

 private:
  std::string text_;
  std::vector<int64_t>* stamps_;
};

std::string CsvText(const RowPool& pool, size_t first, size_t rows) {
  std::string text;
  for (size_t j = 0; j < pool.columns.size(); ++j) {
    if (j > 0) text.push_back(',');
    text += pool.columns[j];
  }
  text.push_back('\n');
  for (size_t i = 0; i < rows; ++i) {
    text += pool.lines[(first + i) % pool.size()];
    text.push_back('\n');
  }
  return text;
}

/// Compares the stream's output with the expected score lines; returns the
/// number of wrong or missing rows.
uint64_t CheckStreamOutput(const std::string& out,
                           const std::vector<std::string>& expected,
                           size_t first, size_t rows) {
  std::istringstream lines(out);
  std::string line;
  uint64_t wrong = 0;
  if (!std::getline(lines, line) || line != "s_tar") return rows;
  for (size_t i = 0; i < rows; ++i) {
    if (!std::getline(lines, line) ||
        line != expected[(first + i) % expected.size()]) {
      ++wrong;
    }
  }
  return wrong;
}

void StreamWide(const Options& options, Report* report) {
  SingleThreadedKernels();
  const TrainingData train =
      MakeTrainingData(data::UnswLikeProfile(0.02), kModelSeed);
  const RowPool rows = MakeRowPool(data::UnswLikeProfile(kTrafficScale / 2),
                                   options.seed, kPoolRows / 2);
  // Small files: one caller scoring 4-row files back to back; latency per
  // call, in statistics windows of kWindowCalls consecutive calls. Four
  // rows submit well inside the 200 us batching window, so each file is
  // one batch. Bulk: 8192-row files at full speed; rows/s per pass and
  // each row's residence time (read by ScoreCsvStream -> score written).
  constexpr size_t kSmallRows = 4;
  constexpr size_t kWindowCalls = kWindowMin;
  constexpr size_t kBulkRows = 8192;

  serve::BatchScorerOptions batch_options;
  batch_options.max_batch_size = 64;
  batch_options.num_workers = 2;
  const SetUpResult setup = SetUp(train, options.workdir + "/models",
                                  batch_options, false, options.trace, report);
  serve::BatchScorer* scorer = setup.stack->scorer();

  auto reference = std::make_shared<const core::FrozenScorer>(
      core::FrozenScorer::LoadArtifact(setup.artifact).ValueOrDie());
  const std::vector<double> scores =
      reference->Score(rows.AsTable(0, rows.size())).ValueOrDie();
  std::vector<std::string> expected;
  for (double s : scores) expected.push_back(FormatDouble(s, 6));
  const core::RowScorer& schema = *reference;
  const serve::StreamOptions stream_options;

  Rng rng(options.seed);
  std::vector<std::vector<double>> small_us;  // Statistics windows.
  auto run_small = [&](double seconds) {
    const Clock::time_point begin = Clock::now();
    while (SecondsSince(begin) < seconds) {
      if (small_us.empty() || small_us.back().size() == kWindowCalls) {
        small_us.emplace_back();
        small_us.back().reserve(kWindowCalls);
      }
      const size_t first = rng.UniformInt(rows.size());
      const std::string text = CsvText(rows, first, kSmallRows);
      std::istringstream in(text);
      std::ostringstream out;
      const int64_t start = NowNs();
      auto stats = serve::ScoreCsvStream(schema, scorer, in, out,
                                         stream_options);
      small_us.back().push_back(static_cast<double>(NowNs() - start) / 1e3);
      report->Count(kSmallRows,
                    stats.ok() ? CheckStreamOutput(out.str(), expected, first,
                                                   kSmallRows)
                               : kSmallRows);
    }
  };
  std::vector<double> pass_rps;
  std::vector<double> residence_us;
  auto run_bulk = [&](double seconds) {
    const Clock::time_point begin = Clock::now();
    while (SecondsSince(begin) < seconds || pass_rps.empty()) {
      const size_t first = rng.UniformInt(rows.size());
      const std::string text = CsvText(rows, first, kBulkRows);
      std::vector<int64_t> in_stamps;
      std::vector<int64_t> out_stamps;
      in_stamps.reserve(kBulkRows + 2);
      out_stamps.reserve(kBulkRows + 2);
      StampedSource source(text, &in_stamps);
      StampedSink sink(&out_stamps);
      std::istream in(&source);
      std::ostream out(&sink);
      const int64_t start = NowNs();
      auto stats = serve::ScoreCsvStream(schema, scorer, in, out,
                                         stream_options);
      const double seconds_pass = Since(start);
      report->Count(kBulkRows,
                    stats.ok() ? CheckStreamOutput(sink.text(), expected, first,
                                                   kBulkRows)
                               : kBulkRows);
      pass_rps.push_back(static_cast<double>(kBulkRows) / seconds_pass);
      // Stamp 0 is the header on both sides.
      report->Require(in_stamps.size() == kBulkRows + 1 &&
                          out_stamps.size() == kBulkRows + 1,
                      "stream stamps do not cover every row");
      for (size_t i = 1; i < in_stamps.size() && i < out_stamps.size(); ++i) {
        residence_us.push_back(
            static_cast<double>(out_stamps[i] - in_stamps[i]) / 1e3);
      }
    }
  };

  run_small(0.3);  // Warm-up.
  small_us.clear();
  if (options.trace) {
    run_bulk(0.4 * options.seconds);
    setup.stack->RecordLayerMetrics(report);
    const RowPool narrow =
        MakeRowPool(data::KddLikeProfile(0.01), options.seed, 256);
    LadderInputs ladder =
        ServingLadder(*setup.pipeline, reference, rows, train);
    ladder.narrow = &narrow;
    ladder.wide = &rows;
    RunLadder(ladder, options.seed, report);
    return;
  }
  for (int round = 0; round < kRounds; ++round) {
    run_small(0.3 * options.seconds / kRounds);
    run_bulk(0.65 * options.seconds / kRounds);
  }

  SetLatency(small_us, "", "small-file calls", report);
  // Residence is not stationary within a pass (the last window's rows
  // drain fast), so each pass is summarised whole and the median pass
  // reported.
  std::vector<double> pass_p50;
  std::vector<double> pass_p99;
  for (size_t begin = 0; begin + kBulkRows <= residence_us.size();
       begin += kBulkRows) {
    std::vector<double> pass(
        residence_us.begin() + static_cast<long>(begin),
        residence_us.begin() + static_cast<long>(begin + kBulkRows));
    pass_p50.push_back(Quantile(&pass, 0.5));
    pass_p99.push_back(Quantile(&pass, 0.99));
  }
  report->Set("lat_p50_us.peak", Median(pass_p50), "us", residence_us.size());
  report->Set("lat_p99_us.peak", Median(pass_p99), "us", residence_us.size());
  const double rps = Median(pass_rps);
  report->Set("rows_per_s", rps, "1/s", pass_rps.size());
  // A closed loop's highest sustainable rate is its throughput.
  report->Set("max_rate_rps", rps, "1/s", pass_rps.size());
  RecordSetUp(setup, train, report);
}

}  // namespace

bool RunWorkload(const Options& options, Report* report) {
  if (options.workload == "tcp_steady") {
    TcpSteady(options, report);
  } else if (options.workload == "stream_wide") {
    StreamWide(options, report);
  } else {
    return false;
  }
  if (options.trace) {
    ZeroUnusedLayers(report);
    return true;
  }
  report->Set("ok_ratio",
              report->attempted() == 0
                  ? 0.0
                  : 1.0 - static_cast<double>(report->failed()) /
                              static_cast<double>(report->attempted()),
              "ratio", report->attempted());
  if (!report->Has("peak_rss_mb")) {
    report->Set("peak_rss_mb", PeakRssMb(), "MB", 1);
  }
  return true;
}

}  // namespace perfbench
