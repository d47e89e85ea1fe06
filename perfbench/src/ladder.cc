#include "ladder.h"

#include <algorithm>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/candidate_selection.h"
#include "core/targad.h"
#include "data/preprocess.h"
#include "net/client.h"
#include "net/metrics.h"
#include "net/protocol.h"
#include "net/server.h"
#include "nn/frozen.h"
#include "nn/kernels/kernels.h"
#include "serve/batch_scorer.h"
#include "serve/row_parse.h"

namespace perfbench {

using namespace targad;  // NOLINT(build/namespaces)

namespace {

constexpr size_t kBatch = 64;

/// Median over seven ~20 ms repeats of the cost of `fn` per processed row;
/// `fn(i)` runs call number i and processes `rows_per_call` rows.
template <typename Fn>
double NsPerRow(Fn&& fn, size_t rows_per_call) {
  for (size_t i = 0; i < 3; ++i) fn(i);  // Warm caches and lazy state.
  std::vector<double> per_row;
  size_t call = 0;
  for (int repeat = 0; repeat < 7; ++repeat) {
    const int64_t start = NowNs();
    size_t calls = 0;
    int64_t elapsed = 0;
    do {
      fn(call++);
      ++calls;
      elapsed = NowNs() - start;
    } while (elapsed < 20000000);
    per_row.push_back(static_cast<double>(elapsed) /
                      static_cast<double>(calls * rows_per_call));
  }
  return Median(per_row);
}

nn::kernels::Act ToKernelAct(nn::Activation act) {
  switch (act) {
    case nn::Activation::kNone: return nn::kernels::Act::kNone;
    case nn::Activation::kReLU: return nn::kernels::Act::kReLU;
    case nn::Activation::kLeakyReLU: return nn::kernels::Act::kLeakyReLU;
    case nn::Activation::kSigmoid: return nn::kernels::Act::kSigmoid;
    case nn::Activation::kTanh: return nn::kernels::Act::kTanh;
  }
  return nn::kernels::Act::kNone;
}

/// Encoder fit on the pool itself: every cell is numeric, so this is the
/// served model's encoder schema.
data::OneHotEncoder FitEncoder(const RowPool& pool) {
  data::OneHotEncoder encoder;
  TARGAD_CHECK_OK(encoder.Fit(pool.AsTable(0, std::min(pool.size(), kBatch))));
  return encoder;
}

double EncodeNsPerRow(const RowPool& pool) {
  const data::OneHotEncoder encoder = FitEncoder(pool);
  const data::RawTable table = pool.AsTable(0, std::min(pool.size(), kBatch));
  return NsPerRow(
      [&](size_t) {
        auto out = encoder.TransformT<float>(table);
        TARGAD_CHECK(out.ok());
      },
      table.rows.size());
}

void KernelAndNetRungs(const LadderInputs& in, Report* report) {
  auto net = nn::FrozenNetT<float>::Freeze(
                 in.model->classifier().mlp().net())
                 .ValueOrDie();
  const data::OneHotEncoder encoder = FitEncoder(*in.rows);
  const nn::MatrixT<float> x64 =
      encoder.TransformT<float>(in.rows->AsTable(0, kBatch)).ValueOrDie();
  std::vector<nn::MatrixT<float>> x1;
  for (size_t i = 0; i < kBatch; ++i) {
    x1.push_back(encoder.TransformT<float>(in.rows->AsTable(i, i + 1))
                     .ValueOrDie());
  }

  double flops = 0.0;
  size_t widest = net.input_dim();
  for (const auto& step : net.steps()) {
    flops += 2.0 * static_cast<double>(step.in * step.out);
    widest = std::max(widest, step.out);
  }
  report->Set("kernels.flops_per_row", flops, "flop", 1);

  std::vector<float> a(kBatch * widest);
  std::vector<float> b(kBatch * widest);
  auto fused = [&](const float* x, size_t rows) {
    const float* src = x;
    float* dst = a.data();
    for (const auto& step : net.steps()) {
      nn::kernels::FusedAffineActivation<float>(rows, step.out, step.in, src,
                                            step.weight, step.bias,
                                            ToKernelAct(step.act),
                                            step.leaky_slope, dst);
      src = dst;
      dst = dst == a.data() ? b.data() : a.data();
    }
  };
  report->Set("kernels.fused_affine_ns_per_row.b1",
              NsPerRow([&](size_t i) { fused(x1[i % kBatch].data().data(), 1); },
                       1),
              "ns", 7);
  report->Set("kernels.fused_affine_ns_per_row.b64",
              NsPerRow([&](size_t) { fused(x64.data().data(), kBatch); },
                       kBatch),
              "ns", 7);
  report->Set("nn.frozen_infer_ns_per_row.b1",
              NsPerRow([&](size_t i) { (void)net.Infer(x1[i % kBatch]); }, 1),
              "ns", 7);
  report->Set("nn.frozen_infer_ns_per_row.b64",
              NsPerRow([&](size_t) { (void)net.Infer(x64); }, kBatch), "ns",
              7);
}

void CoreAndServeRungs(const LadderInputs& in, Report* report) {
  const core::FrozenScorer& scorer = *in.scorer;
  const data::RawTable t64 = in.rows->AsTable(0, kBatch);
  std::vector<data::RawTable> t1;
  for (size_t i = 0; i < kBatch; ++i) t1.push_back(in.rows->AsTable(i, i + 1));
  report->Set("data.encode_ns_per_row.narrow", EncodeNsPerRow(*in.narrow),
              "ns", 7);
  report->Set("data.encode_ns_per_row.wide", EncodeNsPerRow(*in.wide), "ns",
              7);
  report->Set("core.frozen_score_ns_per_row.b1",
              NsPerRow([&](size_t i) {
                TARGAD_CHECK(scorer.Score(t1[i % kBatch]).ok());
              }, 1),
              "ns", 7);
  report->Set("core.frozen_score_ns_per_row.b64",
              NsPerRow([&](size_t) { TARGAD_CHECK(scorer.Score(t64).ok()); },
                       kBatch),
              "ns", 7);
  report->Set("serve.row_parse_ns_per_row",
              NsPerRow([&](size_t i) {
                auto record = serve::SplitDataRecord(
                    in.rows->lines[i % kBatch], -1);
                TARGAD_CHECK(!record.cells.empty());
              }, 1),
              "ns", 7);

  std::vector<std::vector<std::string>> cells;
  for (size_t i = 0; i < kBatch; ++i) cells.push_back(t64.rows[i]);
  for (size_t max_batch : {size_t{1}, kBatch}) {
    serve::BatchScorerOptions options;
    options.max_batch_size = max_batch;
    options.num_workers = 1;
    std::shared_ptr<const core::RowScorer> snapshot = in.scorer;
    serve::BatchScorer batcher(
        serve::BatchScorer::NamedSnapshotProvider(
            [snapshot](const std::string&) { return snapshot; }),
        options);
    // 64 rows in flight per call, so the rung is the per-row cost of the
    // batching path at this max_batch, not one handoff's wake-up latency
    // (net.rtt_us.p50 shows that).
    const double ns = NsPerRow(
        [&](size_t) {
          std::vector<std::future<Result<double>>> futures;
          futures.reserve(kBatch);
          for (const auto& row : cells) futures.push_back(batcher.Submit(row));
          for (auto& f : futures) TARGAD_CHECK(f.get().ok());
        },
        kBatch);
    report->Set(max_batch == 1 ? "serve.batch_scorer_ns_per_row.b1"
                               : "serve.batch_scorer_ns_per_row.b64",
                ns, "ns", 7);
  }
}

void NetRungs(const LadderInputs& in, Report* report) {
  std::string blob;
  for (size_t i = 0; i < kBatch; ++i) {
    blob += "SCORE default " + in.rows->lines[i] + "\n";
  }
  net::FrameDecoder decoder(64 * 1024);
  std::string line;
  report->Set("net.frame_decode_ns_per_line",
              NsPerRow([&](size_t) {
                decoder.Append(blob.data(), blob.size());
                size_t n = 0;
                while (decoder.ReadLine(&line) ==
                       net::FrameDecoder::Outcome::kLine) {
                  ++n;
                }
                TARGAD_CHECK(n == kBatch);
              }, kBatch),
              "ns", 7);

  // Round trip through a server: the workload's own, or one started here
  // with the CLI's serving defaults.
  std::unique_ptr<serve::BatchScorer> batcher;
  std::unique_ptr<net::NetMetrics> net_metrics;
  std::unique_ptr<net::TcpServer> server;
  uint16_t port = in.port;
  if (port == 0) {
    std::shared_ptr<const core::RowScorer> snapshot = in.scorer;
    serve::BatchScorerOptions options;
    options.num_workers = 2;
    batcher = std::make_unique<serve::BatchScorer>(
        serve::BatchScorer::NamedSnapshotProvider(
            [snapshot](const std::string&) { return snapshot; }),
        options);
    net_metrics = std::make_unique<net::NetMetrics>();
    server = std::make_unique<net::TcpServer>(batcher.get(), net_metrics.get(),
                                              net::TcpServerOptions{});
    TARGAD_CHECK_OK(server->Start());
    port = server->port();
  }
  net::LineClient client;
  TARGAD_CHECK_OK(client.Connect("127.0.0.1", port));
  std::vector<double> rtt;
  for (size_t i = 0; i < 1200; ++i) {
    const int64_t start = NowNs();
    TARGAD_CHECK_OK(client.SendLine("SCORE default " + in.rows->lines[i % kBatch]));
    auto reply = client.RecvLine();
    TARGAD_CHECK(reply.ok() && reply->rfind("OK ", 0) == 0);
    if (i >= 200) rtt.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  client.Close();
  report->Set("net.rtt_us.p50", Median(rtt), "us", rtt.size());
  if (server) {
    server->BeginDrain();
    server->Wait();
    batcher->Shutdown();
  }
}

void TrainingRungs(const LadderInputs& in, uint64_t seed, Report* report) {
  // Double Gemm at the autoencoder's forward shapes: a 256-row minibatch
  // through input -> 64 -> 16 -> 64 -> input (SadAutoencoderConfig).
  const size_t rows = 256;
  const size_t d = in.train->dim();
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {d, 64}, {64, 16}, {16, 64}, {64, d}};
  Rng rng(seed);
  std::vector<std::vector<double>> a, w, c;
  double flops = 0.0;
  for (const auto& [k, n] : shapes) {
    a.emplace_back(rows * k);
    w.emplace_back(k * n);
    c.emplace_back(rows * n);
    for (double& v : a.back()) v = rng.Uniform();
    for (double& v : w.back()) v = rng.Normal(0.0, 0.1);
    flops += 2.0 * static_cast<double>(rows * k * n);
  }
  // tN is every hardware thread, whatever the workload's own tiling (the
  // serving workloads train single-threaded); the kernel pool is sized on
  // its first tiled call.
  const nn::kernels::TilingConfig saved = nn::kernels::Tiling();
  const size_t all_threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  for (size_t threads : {size_t{1}, all_threads}) {
    nn::kernels::TilingConfig tiling = saved;
    tiling.threads = threads;
    nn::kernels::SetTilingForTest(tiling);
    const double ns = NsPerRow(
        [&](size_t) {
          for (size_t s = 0; s < shapes.size(); ++s) {
            nn::kernels::Gemm<double>(nn::kernels::Trans::kNo, nn::kernels::Trans::kNo,
                                  rows, shapes[s].second, shapes[s].first,
                                  a[s].data(), w[s].data(), c[s].data());
          }
        },
        1);
    report->Set(threads == 1 ? "kernels.gemm_gflops.t1"
                             : "kernels.gemm_gflops.tN",
                flops / ns, "GFLOP/s", 7);
  }
  nn::kernels::SetTilingForTest(saved);

  core::TargADConfig config = in.training;
  config.seed = seed;
  config.selection.seed = seed;
  const int64_t start = NowNs();
  auto selected = core::SelectCandidates(in.train->unlabeled_x,
                                         in.train->labeled_x, config.selection);
  TARGAD_CHECK(selected.ok()) << selected.status().ToString();
  report->Set("core.select_candidates_s",
              static_cast<double>(NowNs() - start) / 1e9, "s", 1);

  // Classifier epochs: the gaps between EpochHook calls of a short fit.
  config.epochs = 6;
  auto model = core::TargAD::Make(config).ValueOrDie();
  std::vector<double> gaps_ms;
  int64_t last = 0;
  TARGAD_CHECK_OK(model.Fit(*in.train, [&](int, core::TargAD&) {
    const int64_t now = NowNs();
    if (last != 0) gaps_ms.push_back(static_cast<double>(now - last) / 1e6);
    last = now;
  }));
  report->Set("core.classifier_epoch_ms", Median(gaps_ms), "ms",
              gaps_ms.size());
}

}  // namespace

void RunLadder(const LadderInputs& inputs, uint64_t seed, Report* report) {
  TARGAD_CHECK(inputs.model && inputs.scorer && inputs.rows &&
               inputs.narrow && inputs.wide && inputs.train);
  TARGAD_CHECK(inputs.rows->size() >= kBatch);
  KernelAndNetRungs(inputs, report);
  CoreAndServeRungs(inputs, report);
  NetRungs(inputs, report);
  TrainingRungs(inputs, seed, report);
}

}  // namespace perfbench
