#include "nn/frozen.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/sequential.h"

namespace targad {
namespace nn {
namespace {

Matrix RandomBatch(Rng* rng, size_t rows, size_t cols) {
  Matrix x(rows, cols);
  for (double& v : x.data()) v = rng->Normal(0.0, 2.0);
  return x;
}

// A network exercising every supported layer type, including Dropout
// (identity at inference) and each activation.
Sequential MakeZoo(Rng* rng) {
  Sequential net;
  net.Add(std::make_unique<Linear>(6, 10, rng));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<Dropout>(0.5, 42));
  net.Add(std::make_unique<Linear>(10, 9, rng));
  net.Add(std::make_unique<LeakyReLU>(0.02));
  net.Add(std::make_unique<Linear>(9, 8, rng));
  net.Add(std::make_unique<Sigmoid>());
  net.Add(std::make_unique<Dropout>(0.3, 43));
  net.Add(std::make_unique<Linear>(8, 7, rng));
  net.Add(std::make_unique<Tanh>());
  net.Add(std::make_unique<Linear>(7, 4, rng));
  return net;
}

TEST(FrozenNetTest, DoubleFreezeIsBitIdenticalToInfer) {
  Rng rng(1);
  Sequential net = MakeZoo(&rng);
  // Training-mode Dropout state must not leak into the frozen plan.
  net.SetTraining(true);

  auto plan = FrozenNet::Freeze(net);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->owns_storage());
  EXPECT_EQ(plan->input_dim(), 6u);
  EXPECT_EQ(plan->output_dim(), 4u);
  // Dropout vanishes, activations fuse: one step per Linear.
  EXPECT_EQ(plan->num_steps(), 5u);

  const Matrix x = RandomBatch(&rng, 17, 6);
  const Matrix expected = net.Infer(x);
  const Matrix got = plan->Infer(x);
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (size_t i = 0; i < expected.size(); ++i) {
    // Bit-identical, not approximately equal: the double-frozen plan keeps
    // the exact accumulation order of the layer-by-layer forward.
    EXPECT_EQ(got.data()[i], expected.data()[i]) << "element " << i;
  }
}

TEST(FrozenNetTest, EachActivationFreezesBitIdentical) {
  const Activation activations[] = {Activation::kReLU, Activation::kLeakyReLU,
                                    Activation::kSigmoid, Activation::kTanh,
                                    Activation::kNone};
  for (Activation act : activations) {
    Rng rng(7 + static_cast<int>(act));
    Sequential net = Sequential::MakeMlp({5, 8, 3}, act, Activation::kNone, &rng);
    auto plan = FrozenNet::Freeze(net);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const Matrix x = RandomBatch(&rng, 9, 5);
    const Matrix expected = net.Infer(x);
    const Matrix got = plan->Infer(x);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got.data()[i], expected.data()[i])
          << "activation " << static_cast<int>(act) << " element " << i;
    }
  }
}

TEST(FrozenNetTest, Float32FreezeIsCloseToDouble) {
  Rng rng(2);
  Sequential net = MakeZoo(&rng);
  auto plan = FrozenNetF::Freeze(net);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->num_steps(), 5u);

  const Matrix x = RandomBatch(&rng, 33, 6);
  const Matrix expected = net.Infer(x);
  // Narrow the input, run the float32 fused loop, widen the output back.
  const Matrix got = CastMatrix<double>(plan->Infer(CastMatrix<float>(x)));
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  double max_abs_delta = 0.0;
  for (size_t i = 0; i < expected.size(); ++i) {
    const double delta = std::abs(got.data()[i] - expected.data()[i]);
    if (delta > max_abs_delta) max_abs_delta = delta;
  }
  // Outputs pass through Tanh/Sigmoid squashing and a final affine map of
  // O(10) bounded terms: single-precision drift stays well under 1e-4.
  EXPECT_LT(max_abs_delta, 1e-4);
  EXPECT_GT(max_abs_delta, 0.0);  // It IS a different precision.
}

// Both element types share one Freeze; each must reject the same nets.
template <typename T>
void ExpectUnsupportedArchitecturesRejected() {
  Rng rng(3);
  {
    Sequential leading_activation;
    leading_activation.Add(std::make_unique<ReLU>());
    leading_activation.Add(std::make_unique<Linear>(4, 2, &rng));
    auto plan = FrozenNetT<T>::Freeze(leading_activation);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  }
  {
    Sequential double_activation;
    double_activation.Add(std::make_unique<Linear>(4, 2, &rng));
    double_activation.Add(std::make_unique<ReLU>());
    double_activation.Add(std::make_unique<Tanh>());
    auto plan = FrozenNetT<T>::Freeze(double_activation);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  }
  {
    Sequential empty;
    auto plan = FrozenNetT<T>::Freeze(empty);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FrozenNetTest, RejectsUnsupportedArchitectures) {
  ExpectUnsupportedArchitecturesRejected<double>();
  ExpectUnsupportedArchitecturesRejected<float>();
}

TEST(FrozenNetTest, ReportsFrozenDimensions) {
  Rng rng(4);
  Sequential net = Sequential::MakeMlp({5, 8, 3}, Activation::kReLU,
                                       Activation::kNone, &rng);
  auto plan = FrozenNet::Freeze(net);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->input_dim(), 5u);
  EXPECT_EQ(plan->output_dim(), 3u);
  EXPECT_EQ(plan->num_steps(), 2u);
  auto narrow = FrozenNetF::Freeze(net);
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow->input_dim(), 5u);
  EXPECT_EQ(narrow->output_dim(), 3u);
  EXPECT_EQ(narrow->num_steps(), 2u);
}

// Concurrent scoring of one shared frozen plan; run under TSan (the
// check-tsan target) this proves the plan is genuinely immutable — no
// hidden caches, no lazy initialization.
TEST(FrozenNetTest, ConcurrentInferenceIsRaceFreeAndDeterministic) {
  Rng rng(5);
  Sequential net = MakeZoo(&rng);
  auto plan = FrozenNetF::Freeze(net);
  ASSERT_TRUE(plan.ok());
  const MatrixT<float> x = CastMatrix<float>(RandomBatch(&rng, 8, 6));
  const MatrixT<float> reference = plan->Infer(x);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        const MatrixT<float> y = plan->Infer(x);
        for (size_t i = 0; i < reference.size(); ++i) {
          if (y.data()[i] != reference.data()[i]) {
            mismatches.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(FrozenDtypeTest, ParseAndName) {
  EXPECT_EQ(ParseDtype("float32").ValueOrDie(), Dtype::kFloat32);
  EXPECT_EQ(ParseDtype("f32").ValueOrDie(), Dtype::kFloat32);
  EXPECT_EQ(ParseDtype("FLOAT64").ValueOrDie(), Dtype::kFloat64);
  EXPECT_EQ(ParseDtype("double").ValueOrDie(), Dtype::kFloat64);
  EXPECT_FALSE(ParseDtype("bfloat16").ok());
  EXPECT_STREQ(DtypeName(Dtype::kFloat32), "float32");
  EXPECT_STREQ(DtypeName(Dtype::kFloat64), "float64");
}

}  // namespace
}  // namespace nn
}  // namespace targad
