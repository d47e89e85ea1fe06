#include "serve/batch_scorer.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/frozen_scorer.h"
#include "core/pipeline.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"

namespace targad {
namespace serve {
namespace {

// Small mixed numeric/categorical training table (mirrors pipeline_test).
data::RawTable MakeTrainingTable(uint64_t seed) {
  Rng rng(seed);
  data::RawTable table;
  table.column_names = {"amount", "rate", "channel", "label"};
  auto add_row = [&](double amount, double rate, const char* channel,
                     const std::string& label) {
    table.rows.push_back(
        {std::to_string(amount), std::to_string(rate), channel, label});
  };
  for (size_t i = 0; i < 400; ++i) {
    const bool mode = rng.Bernoulli(0.5);
    add_row(rng.Normal(mode ? 20.0 : 60.0, 4.0), rng.Normal(0.3, 0.05),
            mode ? "web" : "pos", "");
  }
  for (size_t i = 0; i < 25; ++i) {
    add_row(rng.Normal(150.0, 5.0), rng.Normal(0.9, 0.03), "web", "fraud");
  }
  return table;
}

// Trained once per seed and process: the pipelines are immutable, so the
// repeated runs of the dispatch tests (--gtest_repeat) share them.
std::shared_ptr<const core::TargAdPipeline> TrainPipeline(uint64_t seed) {
  static std::map<uint64_t, std::shared_ptr<const core::TargAdPipeline>>
      trained;
  std::shared_ptr<const core::TargAdPipeline>& pipeline = trained[seed];
  if (pipeline == nullptr) {
    core::PipelineConfig config;
    config.model.seed = seed;
    config.model.selection.k = 2;
    config.model.selection.autoencoder.epochs = 5;
    config.model.epochs = 8;
    auto fitted = core::TargAdPipeline::Train(MakeTrainingTable(seed), config);
    pipeline = std::make_shared<const core::TargAdPipeline>(
        std::move(fitted).ValueOrDie());
  }
  return pipeline;
}

// The served snapshot of a trained pipeline: frozen at float64, which
// scores bit-identically to the pipeline itself.
std::shared_ptr<const core::FrozenScorer> Frozen(
    const core::TargAdPipeline& pipeline) {
  return std::make_shared<const core::FrozenScorer>(
      pipeline.Freeze(nn::Dtype::kFloat64).ValueOrDie());
}

// Feature rows (no label column), the pipeline's serial scores (the
// float64 oracle) and the frozen snapshot a BatchScorer serves.
struct ScoringFixture {
  std::shared_ptr<const core::TargAdPipeline> pipeline;
  std::shared_ptr<const core::FrozenScorer> scorer;
  std::vector<std::vector<std::string>> rows;
  std::vector<double> serial_scores;
};

ScoringFixture MakeFixture(uint64_t seed, size_t n_rows) {
  ScoringFixture fx;
  fx.pipeline = TrainPipeline(seed);
  fx.scorer = Frozen(*fx.pipeline);
  Rng rng(seed + 1000);
  data::RawTable table;
  table.column_names = fx.pipeline->feature_columns();
  for (size_t i = 0; i < n_rows; ++i) {
    const char* channel = i % 3 == 0 ? "web" : (i % 3 == 1 ? "pos" : "app");
    fx.rows.push_back({std::to_string(rng.Normal(50.0, 30.0)),
                       std::to_string(rng.Normal(0.5, 0.2)), channel});
    table.rows.push_back(fx.rows.back());
  }
  fx.serial_scores = fx.pipeline->Score(table).ValueOrDie();
  return fx;
}

// Wraps a real scorer and parks its first Score call until Release(). A
// test sends one row to hold the worker that scores it, then queues rows
// behind that running batch: batch composition and admission backpressure
// become deterministic instead of depending on a long coalescing window.
class GatedScorer : public core::RowScorer {
 public:
  explicit GatedScorer(std::shared_ptr<const core::RowScorer> inner)
      : inner_(std::move(inner)) {}

  Result<std::vector<double>> Score(
      const data::RawTable& table) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!held_) {
        held_ = true;
        held_cv_.notify_all();
        release_cv_.wait(lock, [this] { return released_; });
      }
    }
    return inner_->Score(table);
  }
  const std::vector<std::string>& feature_columns() const override {
    return inner_->feature_columns();
  }
  const std::string& label_column() const override {
    return inner_->label_column();
  }

  /// Blocks until the first Score call is parked at the gate.
  void WaitUntilHeld() const {
    std::unique_lock<std::mutex> lock(mu_);
    held_cv_.wait(lock, [this] { return held_; });
  }
  void Release() const {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::shared_ptr<const core::RowScorer> inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable held_cv_;
  mutable std::condition_variable release_cv_;
  mutable bool held_ = false;
  mutable bool released_ = false;
};

// Opens a gate on scope exit. Declared after the BatchScorer, it runs first,
// so a failed ASSERT cannot leave ~BatchScorer draining a held batch.
class OpenAtExit {
 public:
  explicit OpenAtExit(const GatedScorer* gate) : gate_(gate) {}
  ~OpenAtExit() { gate_->Release(); }

 private:
  const GatedScorer* gate_;
};

// Model name of the gated scorer in the providers below. Its rows are
// counted under their own name, so per-model assertions on the other
// models are unchanged by the holding row.
constexpr const char kHoldModel[] = "hold";

// Serves `gate` as kHoldModel and every other name through `fallback`.
BatchScorer::NamedSnapshotProvider WithHoldModel(
    std::shared_ptr<const GatedScorer> gate,
    BatchScorer::NamedSnapshotProvider fallback) {
  return [gate = std::move(gate), fallback = std::move(fallback)](
             const std::string& name) -> std::shared_ptr<const core::RowScorer> {
    if (name == kHoldModel) return gate;
    return fallback(name);
  };
}

// Serves `scorer` as the default model; other names are unknown.
BatchScorer::NamedSnapshotProvider DefaultOnly(
    std::shared_ptr<const core::RowScorer> scorer) {
  return [scorer = std::move(scorer)](const std::string& name)
             -> std::shared_ptr<const core::RowScorer> {
    if (name != BatchScorer::kDefaultModel) return nullptr;
    return scorer;
  };
}

// Serves every registered model by name.
BatchScorer::NamedSnapshotProvider FromRegistry(ModelRegistry* registry) {
  return [registry](const std::string& name) {
    auto snapshot = registry->GetScorer(name);
    return snapshot.ok() ? *snapshot : std::shared_ptr<const core::RowScorer>();
  };
}

TEST(BatchScorerTest, SingleThreadMatchesSerialBitExact) {
  ScoringFixture fx = MakeFixture(7, 64);
  BatchScorerOptions options;
  options.max_batch_size = 16;
  BatchScorer scorer(DefaultOnly(fx.scorer), options);
  std::vector<std::future<Result<double>>> futures;
  for (const auto& row : fx.rows) futures.push_back(scorer.Submit(row));
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<double> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Bit-identical, not approximately equal: the float64 frozen scorer
    // replays the pipeline's arithmetic and every stage is row-independent,
    // so neither freezing nor batching may change a single ULP.
    EXPECT_EQ(*result, fx.serial_scores[i]) << "row " << i;
  }
}

TEST(BatchScorerTest, ConcurrentSubmittersMatchSerialBitExact) {
  ScoringFixture fx = MakeFixture(11, 96);
  BatchScorerOptions options;
  options.max_batch_size = 8;
  options.num_workers = 4;
  ServeMetrics metrics;
  BatchScorer scorer(DefaultOnly(fx.scorer), options, &metrics);

  constexpr size_t kThreads = 8;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = t; i < fx.rows.size(); i += kThreads) {
          Result<double> result = scorer.Submit(fx.rows[i]).get();
          if (!result.ok()) {
            failures.fetch_add(1);
          } else if (*result != fx.serial_scores[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.requests_completed, kThreads * kRounds * (96 / kThreads));
  EXPECT_EQ(snapshot.rows_scored, snapshot.requests_completed);
  EXPECT_GT(snapshot.batches, 0u);
}

TEST(BatchScorerTest, ScoresStayCorrectAcrossHotSwap) {
  // Two models over the same schema; swap while 4 submitter threads hammer
  // the scorer. Every score must match one of the two serial references —
  // no torn reads, no scores from a half-swapped model.
  ScoringFixture fx_a = MakeFixture(21, 48);
  std::shared_ptr<const core::TargAdPipeline> pipeline_b = TrainPipeline(22);
  data::RawTable table;
  table.column_names = pipeline_b->feature_columns();
  for (const auto& row : fx_a.rows) table.rows.push_back(row);
  const std::vector<double> serial_b = pipeline_b->Score(table).ValueOrDie();

  const auto frozen_b = Frozen(*pipeline_b);

  ModelRegistry registry;
  registry.Publish(BatchScorer::kDefaultModel, fx_a.scorer);
  BatchScorerOptions options;
  options.max_batch_size = 8;
  options.num_workers = 2;
  ServeMetrics metrics;
  BatchScorer scorer(FromRegistry(&registry), options, &metrics);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      while (!stop.load()) {
        for (size_t i = 0; i < fx_a.rows.size() && !stop.load(); ++i) {
          Result<double> result = scorer.Submit(fx_a.rows[i]).get();
          if (!result.ok()) {
            failures.fetch_add(1);
          } else if (*result != fx_a.serial_scores[i] &&
                     *result != serial_b[i]) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  // Swap back and forth while traffic flows.
  for (int swap = 0; swap < 6; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    registry.Publish(BatchScorer::kDefaultModel,
                     swap % 2 == 0 ? frozen_b : fx_a.scorer);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(metrics.Snapshot().model_swaps, 1u);
}

TEST(BatchScorerTest, OverloadRejectsWithResourceExhausted) {
  ScoringFixture fx = MakeFixture(31, 8);
  auto gate = std::make_shared<const GatedScorer>(fx.scorer);
  BatchScorerOptions options;
  // One held row parks the only worker at the gate, so every row after it
  // queues and the queue backs up past its bound of 4 deterministically.
  options.max_batch_size = 64;
  options.max_queue_rows = 4;
  options.max_queue_delay_us = 30'000'000;
  ServeMetrics metrics;
  BatchScorer scorer(WithHoldModel(gate, DefaultOnly(fx.scorer)), options,
                     &metrics);
  OpenAtExit open_gate(gate.get());

  std::future<Result<double>> held = scorer.Submit(kHoldModel, fx.rows[0]);
  gate->WaitUntilHeld();
  std::vector<std::future<Result<double>>> futures;
  bool saw_rejection = false;
  for (int i = 0; i < 64; ++i) {
    std::future<Result<double>> future = scorer.Submit(fx.rows[i % 8]);
    // Rejections resolve immediately; admitted rows stay pending.
    if (future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      Result<double> result = future.get();
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      saw_rejection = true;
    } else {
      futures.push_back(std::move(future));
    }
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_EQ(futures.size(), options.max_queue_rows);
  EXPECT_GT(metrics.Snapshot().requests_rejected, 0u);
  // Shutdown drains the admitted rows once the held batch finishes; every
  // admitted future must still resolve to a real score.
  gate->Release();
  scorer.Shutdown();
  futures.push_back(std::move(held));
  for (auto& future : futures) {
    Result<double> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
}

TEST(BatchScorerTest, MalformedRowFailsAloneInItsBatch) {
  ScoringFixture fx = MakeFixture(41, 8);
  auto gate = std::make_shared<const GatedScorer>(fx.scorer);
  BatchScorerOptions options;
  options.max_batch_size = 8;
  ServeMetrics metrics;
  BatchScorer scorer(WithHoldModel(gate, DefaultOnly(fx.scorer)), options,
                     &metrics);
  OpenAtExit open_gate(gate.get());

  // The four rows queue behind the held row and form one batch.
  std::future<Result<double>> held = scorer.Submit(kHoldModel, fx.rows[2]);
  gate->WaitUntilHeld();
  std::vector<std::future<Result<double>>> futures;
  futures.push_back(scorer.Submit(fx.rows[0]));
  futures.push_back(scorer.Submit({"not-a-number", "0.5", "web"}));
  futures.push_back(scorer.Submit({"1.0"}));  // Wrong arity.
  futures.push_back(scorer.Submit(fx.rows[1]));
  gate->Release();

  Result<double> good0 = futures[0].get();
  ASSERT_TRUE(good0.ok()) << good0.status().ToString();
  EXPECT_EQ(*good0, fx.serial_scores[0]);

  Result<double> bad_cell = futures[1].get();
  ASSERT_FALSE(bad_cell.ok());
  EXPECT_EQ(bad_cell.status().code(), StatusCode::kInvalidArgument);

  Result<double> bad_arity = futures[2].get();
  ASSERT_FALSE(bad_arity.ok());
  EXPECT_EQ(bad_arity.status().code(), StatusCode::kInvalidArgument);

  Result<double> good1 = futures[3].get();
  ASSERT_TRUE(good1.ok()) << good1.status().ToString();
  EXPECT_EQ(*good1, fx.serial_scores[1]);

  ASSERT_TRUE(held.get().ok());
  // The held batch plus ONE batch of the three rows of the right arity.
  scorer.Drain();
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.batches, 2u);
  EXPECT_EQ(snapshot.rows_scored, 4u);
}

TEST(BatchScorerTest, NoModelFailsWithFailedPrecondition) {
  BatchScorerOptions options;
  BatchScorer scorer(
      [](const std::string&) { return std::shared_ptr<const core::RowScorer>(); },
      options);
  Result<double> result = scorer.Submit({"1", "2", "web"}).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BatchScorerTest, RoutesRowsToNamedModels) {
  // Two models with the same schema but different parameters; rows tagged
  // with a model name must come back with THAT model's serial score even
  // when both groups share one micro-batch.
  ScoringFixture fx_a = MakeFixture(61, 16);
  std::shared_ptr<const core::TargAdPipeline> pipeline_b = TrainPipeline(62);
  data::RawTable table;
  table.column_names = pipeline_b->feature_columns();
  for (const auto& row : fx_a.rows) table.rows.push_back(row);
  const std::vector<double> serial_b = pipeline_b->Score(table).ValueOrDie();

  ModelRegistry registry;
  registry.Publish("default", fx_a.scorer);
  registry.Publish("candidate", Frozen(*pipeline_b));

  auto gate = std::make_shared<const GatedScorer>(fx_a.scorer);
  BatchScorerOptions options;
  options.max_batch_size = 32;  // Both models fit one batch.
  ServeMetrics metrics;
  BatchScorer scorer(WithHoldModel(gate, FromRegistry(&registry)), options,
                     &metrics);
  OpenAtExit open_gate(gate.get());

  // Every row queues behind the held row, so both models share a batch.
  std::future<Result<double>> held = scorer.Submit(kHoldModel, fx_a.rows[0]);
  gate->WaitUntilHeld();
  std::vector<std::future<Result<double>>> default_futures, routed_futures;
  for (const auto& row : fx_a.rows) {
    default_futures.push_back(scorer.Submit(row));
    routed_futures.push_back(scorer.Submit("candidate", row));
  }
  gate->Release();
  for (size_t i = 0; i < fx_a.rows.size(); ++i) {
    Result<double> from_default = default_futures[i].get();
    ASSERT_TRUE(from_default.ok()) << from_default.status().ToString();
    EXPECT_EQ(*from_default, fx_a.serial_scores[i]) << "row " << i;
    Result<double> from_candidate = routed_futures[i].get();
    ASSERT_TRUE(from_candidate.ok()) << from_candidate.status().ToString();
    EXPECT_EQ(*from_candidate, serial_b[i]) << "row " << i;
  }

  // Futures resolve before the worker records per-model counters; drain so
  // the snapshot below observes the finished batch.
  scorer.Drain();
  const MetricsSnapshot snapshot = metrics.Snapshot();
  ASSERT_EQ(snapshot.per_model.count("default"), 1u);
  ASSERT_EQ(snapshot.per_model.count("candidate"), 1u);
  EXPECT_EQ(snapshot.per_model.at("default").rows_scored, fx_a.rows.size());
  EXPECT_EQ(snapshot.per_model.at("default").rows_failed, 0u);
  EXPECT_EQ(snapshot.per_model.at("candidate").rows_scored, fx_a.rows.size());
  // The held batch plus one batch scored as two model groups.
  ASSERT_TRUE(held.get().ok());
  EXPECT_EQ(snapshot.batches, 3u);
}

TEST(BatchScorerTest, UnknownModelFailsItsRowsNotTheBatch) {
  ScoringFixture fx = MakeFixture(71, 8);
  ModelRegistry registry;
  registry.Publish("default", fx.scorer);

  auto gate = std::make_shared<const GatedScorer>(fx.scorer);
  BatchScorerOptions options;
  options.max_batch_size = 8;
  ServeMetrics metrics;
  BatchScorer scorer(WithHoldModel(gate, FromRegistry(&registry)), options,
                     &metrics);
  OpenAtExit open_gate(gate.get());

  // The three rows queue behind the held row: one batch mixing both groups.
  std::future<Result<double>> held = scorer.Submit(kHoldModel, fx.rows[3]);
  gate->WaitUntilHeld();
  std::future<Result<double>> good = scorer.Submit(fx.rows[0]);
  std::future<Result<double>> missing = scorer.Submit("no-such", fx.rows[1]);
  std::future<Result<double>> good2 = scorer.Submit(fx.rows[2]);
  gate->Release();

  Result<double> bad = missing.get();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);

  Result<double> ok0 = good.get();
  ASSERT_TRUE(ok0.ok()) << ok0.status().ToString();
  EXPECT_EQ(*ok0, fx.serial_scores[0]);
  Result<double> ok2 = good2.get();
  ASSERT_TRUE(ok2.ok()) << ok2.status().ToString();
  EXPECT_EQ(*ok2, fx.serial_scores[2]);

  scorer.Drain();
  const MetricsSnapshot snapshot = metrics.Snapshot();
  ASSERT_EQ(snapshot.per_model.count("no-such"), 1u);
  EXPECT_EQ(snapshot.per_model.at("no-such").rows_failed, 1u);
  EXPECT_EQ(snapshot.per_model.at("no-such").rows_scored, 0u);
  // The held batch plus the default group of the mixed batch, whose two
  // rows bracket the unknown-model row in submission order.
  ASSERT_TRUE(held.get().ok());
  EXPECT_EQ(snapshot.batches, 2u);
}

TEST(BatchScorerTest, Float32SnapshotsServeWithinTolerance) {
  ScoringFixture fx = MakeFixture(81, 32);
  auto frozen = std::make_shared<const core::FrozenScorer>(
      fx.pipeline->Freeze(nn::Dtype::kFloat32).ValueOrDie());

  BatchScorerOptions options;
  options.max_batch_size = 8;
  options.num_workers = 2;
  BatchScorer scorer(
      BatchScorer::NamedSnapshotProvider(
          [frozen](const std::string&)
              -> std::shared_ptr<const core::RowScorer> { return frozen; }),
      options);
  std::vector<std::future<Result<double>>> futures;
  for (const auto& row : fx.rows) futures.push_back(scorer.Submit(row));
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<double> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NEAR(*result, fx.serial_scores[i], 1e-4) << "row " << i;
  }
}

TEST(BatchScorerTest, SubmitAfterShutdownFails) {
  ScoringFixture fx = MakeFixture(51, 4);
  BatchScorer scorer(DefaultOnly(fx.scorer), BatchScorerOptions{});
  scorer.Shutdown();
  Result<double> result = scorer.Submit(fx.rows[0]).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// The dispatch rule: a worker that finds no batch being scored dispatches
// the queued rows at once; only behind a running batch does it coalesce up
// to max_batch_size or max_queue_delay_us.

TEST(BatchScorerDispatchTest, IdleScorerIgnoresTheWindow) {
  ScoringFixture fx = MakeFixture(91, 4);
  for (size_t workers : {1, 2}) {
    SCOPED_TRACE(workers);
    BatchScorerOptions options;
    options.max_batch_size = 64;
    options.max_queue_delay_us = 30'000'000;
    options.num_workers = workers;
    BatchScorer scorer(DefaultOnly(fx.scorer), options);
    for (size_t i = 0; i < fx.rows.size(); ++i) {
      std::future<Result<double>> future = scorer.Submit(fx.rows[i]);
      ASSERT_EQ(future.wait_for(std::chrono::seconds(1)),
                std::future_status::ready)
          << "a lone row waited out the coalescing window";
      Result<double> result = future.get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(*result, fx.serial_scores[i]);
    }
  }
}

TEST(BatchScorerDispatchTest, RowsCoalesceBehindARunningBatch) {
  constexpr size_t kQueued = 5;
  ScoringFixture fx = MakeFixture(93, kQueued);
  for (size_t workers : {1, 2}) {
    SCOPED_TRACE(workers);
    auto gate = std::make_shared<const GatedScorer>(fx.scorer);
    BatchScorerOptions options;
    options.max_batch_size = 8;  // More than kQueued: the batch never fills.
    options.max_queue_delay_us = 30'000'000;
    options.num_workers = workers;
    ServeMetrics metrics;
    BatchScorer scorer(WithHoldModel(gate, DefaultOnly(fx.scorer)), options,
                       &metrics);
    OpenAtExit open_gate(gate.get());

    std::future<Result<double>> held = scorer.Submit(kHoldModel, fx.rows[0]);
    gate->WaitUntilHeld();
    std::vector<std::future<Result<double>>> futures;
    for (const auto& row : fx.rows) futures.push_back(scorer.Submit(row));
    // A second worker coalesces behind the held batch instead of taking
    // the queued rows as they arrive.
    EXPECT_EQ(futures.back().wait_for(std::chrono::milliseconds(20)),
              std::future_status::timeout);
    gate->Release();
    for (size_t i = 0; i < futures.size(); ++i) {
      Result<double> result = futures[i].get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(*result, fx.serial_scores[i]);
    }
    ASSERT_TRUE(held.get().ok());
    // The worker that finished the held batch took all kQueued rows as one.
    scorer.Drain();
    const MetricsSnapshot snapshot = metrics.Snapshot();
    EXPECT_EQ(snapshot.batches, 2u);
    EXPECT_EQ(snapshot.rows_scored, 1 + kQueued);
  }
}

TEST(BatchScorerDispatchTest, RowBehindARunningBatchWaitsAtMostTheWindow) {
  ScoringFixture fx = MakeFixture(97, 2);
  auto gate = std::make_shared<const GatedScorer>(fx.scorer);
  BatchScorerOptions options;
  options.max_batch_size = 64;
  options.max_queue_delay_us = 20'000;
  options.num_workers = 2;
  BatchScorer scorer(WithHoldModel(gate, DefaultOnly(fx.scorer)), options);
  OpenAtExit open_gate(gate.get());

  std::future<Result<double>> held = scorer.Submit(kHoldModel, fx.rows[0]);
  gate->WaitUntilHeld();
  // The second worker coalesces behind the held batch, then dispatches the
  // lone row at its deadline while the held batch is still running.
  const auto start = std::chrono::steady_clock::now();
  std::future<Result<double>> behind = scorer.Submit(fx.rows[1]);
  ASSERT_EQ(behind.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::microseconds(options.max_queue_delay_us));
  Result<double> result = behind.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, fx.serial_scores[1]);
  gate->Release();
  ASSERT_TRUE(held.get().ok());
}

TEST(BatchScorerDispatchTest, ShutdownWhileCoalescingDrainsEveryRow) {
  constexpr size_t kQueued = 5;
  ScoringFixture fx = MakeFixture(95, kQueued);
  auto gate = std::make_shared<const GatedScorer>(fx.scorer);
  BatchScorerOptions options;
  options.max_batch_size = 64;
  options.max_queue_delay_us = 30'000'000;
  options.num_workers = 2;
  BatchScorer scorer(WithHoldModel(gate, DefaultOnly(fx.scorer)), options);
  OpenAtExit open_gate(gate.get());

  // One worker is held at the gate; the other coalesces behind it.
  std::future<Result<double>> held = scorer.Submit(kHoldModel, fx.rows[0]);
  gate->WaitUntilHeld();
  std::vector<std::future<Result<double>>> futures;
  for (const auto& row : fx.rows) futures.push_back(scorer.Submit(row));
  EXPECT_EQ(futures.back().wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);

  // Shutdown cuts the coalescing wait short: the queued rows are scored
  // while the held batch is still running, long before the 30 s window.
  std::thread shutdown([&scorer] { scorer.Shutdown(); });
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "row " << i;
  }
  gate->Release();
  shutdown.join();
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<double> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, fx.serial_scores[i]);
  }
  ASSERT_TRUE(held.get().ok());
  Result<double> late = scorer.Submit(fx.rows[0]).get();
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace serve
}  // namespace targad
