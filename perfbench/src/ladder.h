// The layer ladder: direct calls into each layer on the workload's own
// model and rows, at batch 1 and 64. The difference between adjacent rungs
// is the cost of the upper layer:
//
//   kernels.fused_affine   FusedAffineActivation over the frozen steps
//   nn.frozen_infer        FrozenNetT<float>::Infer
//   data.encode            OneHotEncoder::TransformT<float>
//   core.frozen_score      FrozenScorer::Score (encode + infer + head)
//   serve.row_parse        SplitDataRecord
//   serve.batch_scorer     BatchScorer round trip, one client
//   net.frame_decode       FrameDecoder over request lines
//   net.rtt                one connection, closed loop, through TcpServer
//
// plus the training-side rungs (double Gemm at the autoencoder's shapes
// at 1 and N kernel threads, a standalone SelectCandidates call, the
// classifier epochs of a short TargAD::Fit).
//
// This file is the only place the benchmark calls layer internals; the
// workloads reach the program only through its stable entry points.

#ifndef PERFBENCH_SRC_LADDER_H_
#define PERFBENCH_SRC_LADDER_H_

#include <cstdint>
#include <memory>

#include "core/frozen_scorer.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "harness.h"

namespace perfbench {

struct LadderInputs {
  /// The workload's fitted model: its classifier net is frozen for the
  /// kernel and nn rungs.
  const targad::core::TargAD* model = nullptr;
  /// The workload's served scorer (float32) and its rows.
  std::shared_ptr<const targad::core::FrozenScorer> scorer;
  const RowPool* rows = nullptr;
  /// Narrow (32-feature) and wide (196-feature) rows for the encode rung.
  const RowPool* narrow = nullptr;
  const RowPool* wide = nullptr;
  /// Training data and configuration of the workload's model, for the Gemm
  /// shapes, the SelectCandidates rung and a short TargAD::Fit whose epoch
  /// hook times the classifier epochs.
  const targad::data::TrainingSet* train = nullptr;
  targad::core::TargADConfig training;
  /// Port of a running TcpServer serving `scorer` as model "default";
  /// 0 makes the ladder start its own.
  uint16_t port = 0;
};

/// Runs every rung and records the per-layer metrics in `report`.
void RunLadder(const LadderInputs& inputs, uint64_t seed, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LADDER_H_
