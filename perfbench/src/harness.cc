#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"
#include "eval/metrics.h"
#include "nn/kernels/kernels.h"

namespace perfbench {

using namespace targad;  // NOLINT(build/namespaces)

double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const double rank = std::ceil(q * static_cast<double>(samples->size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return (*samples)[std::min(index, samples->size() - 1)];
}

double Median(std::vector<double> samples) { return Quantile(&samples, 0.5); }

TailPercentile HighestSupported(std::vector<double>* samples) {
  static const std::pair<const char*, double> kCandidates[] = {
      {"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90},
      {"p50", 0.50}};
  TailPercentile out;
  const double n = static_cast<double>(samples->size());
  for (const auto& [label, q] : kCandidates) {
    if (n * (1.0 - q) >= 10.0) {
      out.label = label;
      out.value = Quantile(samples, q);
      return out;
    }
  }
  return out;
}

std::vector<double> PerWindowQuantiles(
    const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> out;
  for (const std::vector<double>& window : windows) {
    if (static_cast<double>(window.size()) * (1.0 - q) < 10.0) continue;
    std::vector<double> copy = window;
    out.push_back(Quantile(&copy, q));
  }
  return out;
}

std::vector<double> QuietBlocks(
    const std::vector<std::vector<double>>& windows) {
  constexpr size_t kBlock = 20;
  constexpr size_t kMinBlocks = 1000 / kBlock;
  // Nearest-rank p95 of a block: its second-highest sample.
  constexpr size_t kP95 = kBlock * 19 / 20 - 1;
  // (block p95, first sample of the block)
  std::vector<std::pair<double, const double*>> ranked;
  double block[kBlock];
  for (const std::vector<double>& w : windows) {
    for (size_t begin = 0; begin + kBlock <= w.size(); begin += kBlock) {
      std::copy(w.data() + begin, w.data() + begin + kBlock, block);
      std::nth_element(block, block + kP95, block + kBlock);
      ranked.emplace_back(block[kP95], w.data() + begin);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  const size_t keep =
      std::min(ranked.size(), std::max(kMinBlocks, ranked.size() / 8));
  std::vector<double> pool;
  pool.reserve(keep * kBlock);
  for (size_t i = 0; i < keep; ++i) {
    pool.insert(pool.end(), ranked[i].second, ranked[i].second + kBlock);
  }
  return pool;
}

// ---------------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  TARGAD_CHECK(DeclaredUnit(name) == unit)
      << "metric " << name << " reported in '" << unit << "', declared '"
      << DeclaredUnit(name) << "'";
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Require(bool ok, const std::string& what) {
  if (ok) return;
  errors_.push_back(what);
  ++attempted_;
  ++failed_;
}

void Report::Print(const std::vector<std::string>& names,
                   const std::string& fingerprint_json) const {
  std::printf("%-40s %16s %-8s %9s\n", "metric", "value", "unit", "samples");
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      std::printf("%-40s %16s\n", name.c_str(), "(missing)");
      continue;
    }
    std::printf("%-40s %16.6g %-8s %9zu\n", name.c_str(), it->second.value,
                it->second.unit.c_str(), it->second.samples);
  }
  for (const std::string& note : notes_) std::printf("note: %s\n", note.c_str());
  for (const std::string& error : errors_) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("fingerprint %s\n", fingerprint_json.c_str());

  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    const double v = std::isfinite(it->second.value) ? it->second.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
         << ", \"unit\": \"" << it->second.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; perfbench/run.py checks every run against it.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"lat_p50_us", "us"},
    {"lat_p99_us", "us"},       {"lat_p50_us.peak", "us"},
    {"lat_p99_us.peak", "us"},  {"max_rate_rps", "1/s"},
    {"ok_ratio", "ratio"},      {"rows_per_s", "1/s"},
    {"train_s", "s"},           {"test_auprc", "ratio"},
    {"peak_rss_mb", "MB"}};

constexpr MetricSpec kPerLayer[] = {
    {"kernels.fused_affine_ns_per_row.b1", "ns"},
    {"kernels.fused_affine_ns_per_row.b64", "ns"},
    {"kernels.flops_per_row", "flop"},
    {"kernels.gemm_gflops.t1", "GFLOP/s"},
    {"kernels.gemm_gflops.tN", "GFLOP/s"},
    {"nn.frozen_infer_ns_per_row.b1", "ns"},
    {"nn.frozen_infer_ns_per_row.b64", "ns"},
    {"data.encode_ns_per_row.narrow", "ns"},
    {"data.encode_ns_per_row.wide", "ns"},
    {"core.frozen_score_ns_per_row.b1", "ns"},
    {"core.frozen_score_ns_per_row.b64", "ns"},
    {"core.score_calls", "count"},
    {"core.score_rows_per_call", "rows"},
    {"core.score_busy_ms", "ms"},
    {"core.select_candidates_s", "s"},
    {"core.classifier_epoch_ms", "ms"},
    {"serve.row_parse_ns_per_row", "ns"},
    {"serve.batch_scorer_ns_per_row.b1", "ns"},
    {"serve.batch_scorer_ns_per_row.b64", "ns"},
    {"serve.mean_batch_size", "rows"},
    {"serve.rejected", "count"},
    {"serve.model_swaps", "count"},
    {"serve.registry.lookup_us.p50", "us"},
    {"serve.registry.lookup_us.p99", "us"},
    {"serve.registry.hit_ratio", "ratio"},
    {"serve.registry.loads", "count"},
    {"serve.registry.evictions", "count"},
    {"net.frame_decode_ns_per_line", "ns"},
    {"net.rtt_us.p50", "us"},
    {"net.score_stage_us.p50", "us"},
    {"net.score_stage_us.p99", "us"},
    {"net.shed", "count"},
    {"net.protocol_errors", "count"},
    {"loadgen.late_us.p99", "us"},
    {"loadgen.sent", "count"},
    {"trace.overhead_pct", "%"}};

template <size_t N>
std::vector<std::string> Names(const MetricSpec (&specs)[N]) {
  std::vector<std::string> names;
  for (const MetricSpec& spec : specs) names.push_back(spec.name);
  return names;
}

}  // namespace

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> kNames = Names(kEndToEnd);
  return kNames;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> kNames = Names(kPerLayer);
  return kNames;
}

std::string DeclaredUnit(const std::string& name) {
  for (const MetricSpec& spec : kEndToEnd) {
    if (name == spec.name) return spec.unit;
  }
  for (const MetricSpec& spec : kPerLayer) {
    if (name == spec.name) return spec.unit;
  }
  return "";
}

// ---------------------------------------------------------------------------

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return std::string(Trim(line.substr(colon + 1)));
    }
  }
  return "unknown";
}

}  // namespace

std::string FingerprintJson(const Options& options) {
  const nn::kernels::TilingConfig& tiling = nn::kernels::Tiling();
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu\": \""
      << JsonEscape(CpuModel()) << "\", \"kernel_backend\": \""
      << nn::kernels::BackendName() << "\", \"tiling\": {\"threads\": "
      << tiling.threads << ", \"min_flops\": " << tiling.min_flops
      << ", \"min_rows_per_tile\": " << tiling.min_rows_per_tile
      << "}, \"compiler\": \"" << JsonEscape(PERFBENCH_COMPILER)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"flags\": \""
      << JsonEscape(std::string(Trim(PERFBENCH_CXX_FLAGS))) << "\", \"avx2_build\": "
      << (PERFBENCH_AVX2 ? "true" : "false") << ", \"source_rev\": \""
      << JsonEscape(options.source_rev) << "\"}";
  return out.str();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

// ---------------------------------------------------------------------------

data::RawTable RowPool::AsTable(size_t begin, size_t end) const {
  data::RawTable table;
  table.column_names = columns;
  table.rows.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    table.rows.push_back(data::SplitCsvRecord(lines[i]));
  }
  return table;
}

namespace {

/// Raw text cells of a feature matrix row (6 decimals, like the exports).
std::vector<std::string> FormatRow(const double* values, size_t n) {
  std::vector<std::string> cells;
  cells.reserve(n);
  for (size_t j = 0; j < n; ++j) cells.push_back(FormatDouble(values[j], 6));
  return cells;
}

std::string JoinCells(const std::vector<std::string>& cells) {
  std::string line;
  for (size_t j = 0; j < cells.size(); ++j) {
    if (j > 0) line.push_back(',');
    line += cells[j];
  }
  return line;
}

}  // namespace

TrainingData MakeTrainingData(const data::DatasetProfile& profile,
                              uint64_t seed) {
  TrainingData out;
  out.bundle = data::MakeBundle(profile, seed).ValueOrDie();
  const data::TrainingSet& train = out.bundle.train;
  const size_t dim = train.dim();
  for (size_t j = 0; j < dim; ++j) {
    out.table.column_names.push_back("f" + std::to_string(j));
  }
  out.table.column_names.push_back("label");
  for (size_t i = 0; i < train.num_labeled(); ++i) {
    auto cells = FormatRow(train.labeled_x.RowPtr(i), dim);
    cells.push_back("target_" + std::to_string(train.labeled_class[i]));
    out.table.rows.push_back(std::move(cells));
  }
  for (size_t i = 0; i < train.num_unlabeled(); ++i) {
    auto cells = FormatRow(train.unlabeled_x.RowPtr(i), dim);
    cells.push_back("");
    out.table.rows.push_back(std::move(cells));
  }
  return out;
}

RowPool MakeRowPool(const data::DatasetProfile& profile, uint64_t seed,
                    size_t max_rows) {
  return RowPoolFromBundle(data::MakeBundle(profile, seed).ValueOrDie(),
                           max_rows);
}

RowPool RowPoolFromBundle(const data::DatasetBundle& bundle, size_t max_rows) {
  const size_t dim = bundle.dim();
  RowPool pool;
  for (size_t j = 0; j < dim; ++j) pool.columns.push_back("f" + std::to_string(j));
  const data::EvalSet& test = bundle.test;
  const std::vector<int> test_truth = test.BinaryTargetLabels();
  for (size_t i = 0; i < test.size() && pool.size() < max_rows; ++i) {
    pool.lines.push_back(JoinCells(FormatRow(test.x.RowPtr(i), dim)));
    pool.truth.push_back(test_truth[i]);
  }
  const data::TrainingSet& train = bundle.train;
  for (size_t i = 0; i < train.num_unlabeled() && pool.size() < max_rows;
       ++i) {
    pool.lines.push_back(
        JoinCells(FormatRow(train.unlabeled_x.RowPtr(i), dim)));
    pool.truth.push_back(
        train.unlabeled_truth[i] == data::InstanceKind::kTarget ? 1 : 0);
  }
  return pool;
}

core::PipelineConfig ServingPipelineConfig(uint64_t seed) {
  core::PipelineConfig config;
  config.model.seed = seed;
  config.model.selection.k = 2;
  // One thread: set-up time should not depend on how many vCPUs a shared
  // host grants at that moment.
  config.model.selection.parallel = false;
  config.model.selection.autoencoder.epochs = 10;
  config.model.epochs = 15;
  return config;
}

double Auprc(const std::vector<double>& scores, const std::vector<int>& truth) {
  auto result = eval::Auprc(scores, truth);
  return result.ok() ? *result : 0.0;
}

}  // namespace perfbench
