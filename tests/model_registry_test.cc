#include "serve/model_registry.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/frozen_scorer.h"
#include "core/pipeline.h"

namespace targad {
namespace serve {
namespace {

namespace fs = std::filesystem;

data::RawTable MakeTrainingTable(uint64_t seed) {
  Rng rng(seed);
  data::RawTable table;
  table.column_names = {"x", "y", "label"};
  for (size_t i = 0; i < 300; ++i) {
    table.rows.push_back({std::to_string(rng.Normal(0.0, 1.0)),
                          std::to_string(rng.Normal(0.0, 1.0)), ""});
  }
  for (size_t i = 0; i < 20; ++i) {
    table.rows.push_back({std::to_string(rng.Normal(5.0, 0.3)),
                          std::to_string(rng.Normal(5.0, 0.3)), "attack"});
  }
  return table;
}

core::PipelineConfig FastConfig(uint64_t seed) {
  core::PipelineConfig config;
  config.model.seed = seed;
  config.model.selection.k = 2;
  config.model.selection.autoencoder.epochs = 5;
  config.model.epochs = 5;
  return config;
}

core::TargAdPipeline TrainPipeline(uint64_t seed) {
  return core::TargAdPipeline::Train(MakeTrainingTable(seed), FastConfig(seed))
      .ValueOrDie();
}

// An in-memory serving snapshot: a trained pipeline frozen at `dtype`.
std::shared_ptr<const core::FrozenScorer> TrainFrozen(
    uint64_t seed, nn::Dtype dtype = nn::Dtype::kFloat64) {
  return std::make_shared<const core::FrozenScorer>(
      TrainPipeline(seed).Freeze(dtype).ValueOrDie());
}

// A serialized pipeline artifact, as `targad train` would write it.
std::string SavedArtifact(uint64_t seed) {
  auto pipeline = TrainPipeline(seed);
  std::stringstream buffer;
  TARGAD_CHECK_OK(pipeline.Save(buffer));
  return buffer.str();
}

// The registry's snapshots are FrozenScorers behind the RowScorer
// interface BatchScorer consumes.
const core::FrozenScorer* AsFrozen(
    const std::shared_ptr<const core::RowScorer>& scorer) {
  return dynamic_cast<const core::FrozenScorer*>(scorer.get());
}

// Feature rows (no label column) around both training clusters.
data::RawTable ScoringRows(uint64_t seed, size_t n) {
  Rng rng(seed);
  data::RawTable rows;
  rows.column_names = {"x", "y"};
  for (size_t i = 0; i < n; ++i) {
    const double center = rng.Bernoulli(0.2) ? 5.0 : 0.0;
    rows.rows.push_back({std::to_string(rng.Normal(center, 1.0)),
                         std::to_string(rng.Normal(center, 1.0))});
  }
  return rows;
}

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("targad_registry_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  static int counter_;
  fs::path path_;
};

int TempDir::counter_ = 0;

TEST(ModelRegistryTest, PublishGetScorerAndVersioning) {
  ModelRegistry registry;
  auto frozen_v1 = TrainFrozen(1);
  EXPECT_EQ(registry.Publish("fraud", frozen_v1), 1u);
  EXPECT_EQ(registry.size(), 1u);

  auto snapshot = registry.GetScorer("fraud");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(AsFrozen(*snapshot), frozen_v1.get());

  auto frozen_v2 = TrainFrozen(2);
  EXPECT_EQ(registry.Publish("fraud", frozen_v2), 2u);
  auto info = registry.Info("fraud");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 2u);

  // The old snapshot handed out before the swap stays fully usable.
  data::RawTable row;
  row.column_names = {"x", "y"};
  row.rows.push_back({"0.5", "0.5"});
  auto scores = (*snapshot)->Score(row);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  EXPECT_EQ(scores->size(), 1u);
}

TEST(ModelRegistryTest, GetScorerUnknownIsNotFound) {
  ModelRegistry registry;
  EXPECT_EQ(registry.GetScorer("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Info("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Remove("nope").code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, LoadDirectoryRegistersArtifactsByStem) {
  TempDir dir;
  {
    const std::string artifact = SavedArtifact(3);
    std::ofstream out(dir.path() / "alpha.targad");
    out << artifact;
    std::ofstream out2(dir.path() / "beta.model");
    out2 << artifact;
    std::ofstream ignored(dir.path() / "notes.txt");
    ignored << "not a model\n";
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadDirectory(dir.path().string()).ok());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.GetScorer("alpha").ok());
  EXPECT_TRUE(registry.GetScorer("beta").ok());
  EXPECT_EQ(registry.GetScorer("notes").status().code(),
            StatusCode::kNotFound);

  const std::vector<ModelInfo> models = registry.List();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].name, "alpha");
  EXPECT_EQ(models[1].name, "beta");
}

TEST(ModelRegistryTest, LoadDirectoryFailsOnCorruptArtifact) {
  TempDir dir;
  {
    std::ofstream out(dir.path() / "broken.targad");
    out << "this is not a pipeline\n";
  }
  ModelRegistry registry;
  EXPECT_FALSE(registry.LoadDirectory(dir.path().string()).ok());
}

TEST(ModelRegistryTest, LoadDirectoryOnMissingDirIsNotFound) {
  ModelRegistry registry;
  EXPECT_EQ(registry.LoadDirectory("/nonexistent/registry/dir").code(),
            StatusCode::kNotFound);
}

TEST(ModelRegistryTest, TextModelServesFrozenFloat64BitIdentical) {
  TempDir dir;
  const fs::path path = dir.path() / "m.targad";
  {
    std::ofstream out(path);
    out << SavedArtifact(6);
  }
  ModelRegistry registry;  // Default serve dtype: float64.
  ASSERT_TRUE(registry.PublishFile("m", path.string()).ok());
  auto scorer = registry.GetScorer("m");
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  // The text model was frozen at load: the snapshot is a FrozenScorer...
  const core::FrozenScorer* frozen = AsFrozen(*scorer);
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(frozen->dtype(), nn::Dtype::kFloat64);
  EXPECT_FALSE(frozen->mapped());

  // ...whose scores equal, bit for bit, the pipeline parsed from the same
  // file — the float64 oracle `targad score` runs.
  std::ifstream in(path);
  const auto pipeline = core::TargAdPipeline::Load(in).ValueOrDie();
  const data::RawTable rows = ScoringRows(60, 200);
  const std::vector<double> exact = pipeline.Score(rows).ValueOrDie();
  const std::vector<double> served = (*scorer)->Score(rows).ValueOrDie();
  ASSERT_EQ(served.size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(served[i], exact[i]) << "row " << i;
  }
}

TEST(ModelRegistryTest, TextModelServesFrozenFloat32WithinTolerance) {
  TempDir dir;
  const fs::path path = dir.path() / "m.targad";
  {
    std::ofstream out(path);
    out << SavedArtifact(7);
  }
  ModelRegistry registry;
  registry.set_serve_dtype(nn::Dtype::kFloat32);
  ASSERT_TRUE(registry.PublishFile("m", path.string()).ok());
  auto scorer = registry.GetScorer("m");
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  const core::FrozenScorer* frozen = AsFrozen(*scorer);
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(frozen->dtype(), nn::Dtype::kFloat32);

  std::ifstream in(path);
  const auto pipeline = core::TargAdPipeline::Load(in).ValueOrDie();
  const data::RawTable rows = ScoringRows(70, 200);
  const std::vector<double> exact = pipeline.Score(rows).ValueOrDie();
  const std::vector<double> served = (*scorer)->Score(rows).ValueOrDie();
  ASSERT_EQ(served.size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(served[i], exact[i], 1e-4) << "row " << i;
  }

  // serve_dtype applies to text loads only: an in-memory publish keeps the
  // dtype it was frozen at.
  registry.Publish("wide", TrainFrozen(8, nn::Dtype::kFloat64));
  EXPECT_EQ(AsFrozen(registry.GetScorer("wide").ValueOrDie())->dtype(),
            nn::Dtype::kFloat64);
}

TEST(ModelRegistryTest, RefreshIfChangedReloadsOverwrittenArtifacts) {
  TempDir dir;
  const fs::path path = dir.path() / "live.targad";
  {
    std::ofstream out(path);
    out << SavedArtifact(8);
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.PublishFile("live", path.string()).ok());
  EXPECT_EQ(registry.Info("live")->version, 1u);

  // Nothing changed: a refresh is a no-op.
  auto refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 0u);

  // Overwrite the artifact and force a newer mtime (filesystem timestamp
  // granularity can swallow a fast rewrite).
  auto old_snapshot = registry.GetScorer("live").ValueOrDie();
  {
    std::ofstream out(path);
    out << SavedArtifact(9);
  }
  fs::last_write_time(path,
                      fs::last_write_time(path) + std::chrono::seconds(2));

  refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 1u);
  EXPECT_EQ(registry.Info("live")->version, 2u);
  // Hot-swap semantics: the new snapshot differs, the old one stays valid.
  auto new_snapshot = registry.GetScorer("live").ValueOrDie();
  EXPECT_NE(new_snapshot.get(), old_snapshot.get());
  data::RawTable row;
  row.column_names = {"x", "y"};
  row.rows.push_back({"1.0", "1.0"});
  EXPECT_TRUE(old_snapshot->Score(row).ok());

  // A second refresh with no further writes is again a no-op.
  refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(*refreshed, 0u);
}

TEST(ModelRegistryTest, RefreshCatchesSameTimestampRewrite) {
  // Regression: the refresh poll used to compare only the (coarse) mtime,
  // so a rewrite landing within the filesystem's timestamp granularity was
  // invisible. The stat signature now pairs nanosecond mtime with size;
  // pinning the mtime back to its pre-rewrite value forces the poll to
  // notice via the size alone.
  TempDir dir;
  const fs::path path = dir.path() / "fast.targad";
  const std::string v1 = SavedArtifact(13);
  {
    std::ofstream out(path);
    out << v1;
  }
  const auto original_mtime = fs::last_write_time(path);

  ModelRegistry registry;
  ASSERT_TRUE(registry.PublishFile("fast", path.string()).ok());
  auto old_snapshot = registry.GetScorer("fast").ValueOrDie();

  // Rewrite with different bytes (a second pipeline differs in size: the
  // serialized weights are decimal text) and restore the old timestamp, as
  // if the rewrite happened within the same clock tick.
  const std::string v2 = SavedArtifact(14);
  ASSERT_NE(v1.size(), v2.size());
  {
    std::ofstream out(path, std::ios::trunc);
    out << v2;
  }
  fs::last_write_time(path, original_mtime);

  auto refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 1u);
  EXPECT_EQ(registry.Info("fast")->version, 2u);
  EXPECT_NE(registry.GetScorer("fast").ValueOrDie().get(), old_snapshot.get());
}

TEST(ModelRegistryTest, RefreshIfChangedPicksUpNewFilesInWatchedDirs) {
  TempDir dir;
  {
    std::ofstream out(dir.path() / "first.targad");
    out << SavedArtifact(10);
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadDirectory(dir.path().string()).ok());
  EXPECT_EQ(registry.size(), 1u);

  {
    std::ofstream out(dir.path() / "second.targad");
    out << SavedArtifact(11);
  }
  auto refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 1u);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.GetScorer("second").ok());
}

TEST(ModelRegistryTest, RefreshIfChangedKeepsVanishedArtifactsServing) {
  TempDir dir;
  const fs::path path = dir.path() / "gone.targad";
  {
    std::ofstream out(path);
    out << SavedArtifact(12);
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.PublishFile("gone", path.string()).ok());
  fs::remove(path);
  auto refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(*refreshed, 0u);
  // The last good snapshot stays registered and scoreable.
  EXPECT_TRUE(registry.GetScorer("gone").ok());
}

TEST(ModelRegistryTest, ConcurrentPublishAndGetScorerKeepSnapshotsIntact) {
  ModelRegistry registry;
  auto frozen_a = TrainFrozen(4);
  auto frozen_b = TrainFrozen(5);
  registry.Publish("m", frozen_a);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto snapshot = registry.GetScorer("m");
        ASSERT_TRUE(snapshot.ok());
        const core::FrozenScorer* raw = AsFrozen(*snapshot);
        // Every observed snapshot is one of the two published scorers.
        ASSERT_TRUE(raw == frozen_a.get() || raw == frozen_b.get());
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    registry.Publish("m", i % 2 == 0 ? frozen_b : frozen_a);
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.Info("m")->version, 51u);
}

}  // namespace
}  // namespace serve
}  // namespace targad
