// TargAD: the paper's model (Algorithm 1), assembled from candidate
// selection (k-means + SAD autoencoders), the pseudo-labeled classifier
// with the L_CE + lambda1*L_OE + lambda2*L_RE objective, and the Eq. (4)/(5)
// weight-updating mechanism.
//
// Typical use:
//   core::TargADConfig config;
//   config.seed = 7;
//   TARGAD_ASSIGN_OR_RETURN(core::TargAD model, core::TargAD::Make(config));
//   TARGAD_RETURN_NOT_OK(model.Fit(bundle.train));
//   std::vector<double> scores = model.Score(bundle.test.x);   // S^tar

#ifndef TARGAD_CORE_TARGAD_H_
#define TARGAD_CORE_TARGAD_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "common/result.h"
#include "core/candidate_selection.h"
#include "core/classifier.h"
#include "core/ood.h"
#include "core/scores.h"
#include "data/dataset.h"

namespace targad {
namespace core {

/// How the L_OE instance weights evolve (ablations of the Eq. 4/5
/// mechanism; the paper's RQ4 studies the dynamic strategy).
enum class WeightMode {
  /// Eq. (5) at epoch 1, Eq. (4) afterwards — the paper's strategy.
  kDynamic,
  /// All candidate weights fixed at 1 (no noise mitigation).
  kFixedOnes,
  /// Eq. (5) initialization, never updated.
  kInitialOnly,
};

const char* WeightModeName(WeightMode mode);

/// Full model configuration. Defaults follow Section IV-C (alpha = 5%,
/// eta = 1, lambda2 = 1, Adam); see DESIGN.md §2.0 for the documented
/// deviations (learning rates, epochs, lambda1).
struct TargADConfig {
  CandidateSelectionConfig selection;
  ClassifierConfig classifier;
  /// Weight-updating strategy for the non-target candidates.
  WeightMode weight_mode = WeightMode::kDynamic;
  /// Classifier training epochs (Algorithm 1's `epochs`). Paper: 30 at
  /// Table I data sizes; the default here is larger because carving the
  /// non-target candidate regions out of the target classes' extrapolation
  /// needs more optimizer steps on the scaled-down pools.
  int epochs = 100;
  /// Master seed; fans out to clustering, autoencoders, and classifier.
  uint64_t seed = 0;
  /// Record per-epoch candidate weights (Fig. 5 diagnostics). Costs one
  /// forward pass over D_U^A per epoch.
  bool trace_weights = false;
};

/// Training diagnostics for the convergence/weight figures.
struct TargADDiagnostics {
  /// Candidate-selection outcome (clusters, reconstruction errors, splits).
  CandidateSelection selection;
  /// Classifier loss breakdown per epoch (Fig. 3(a)).
  std::vector<EpochLoss> epoch_losses;
  /// Per-epoch weights of the anomaly candidates, if trace_weights is on
  /// (Fig. 5): weight_history[epoch][candidate].
  std::vector<std::vector<double>> weight_history;
};

/// The TargAD model.
class TargAD {
 public:
  /// Validates the configuration.
  [[nodiscard]] static Result<TargAD> Make(const TargADConfig& config);

  /// Called after every classifier epoch (1-based); used by benches to
  /// trace test AUPRC per epoch (Fig. 3(b)). The model is usable for
  /// scoring inside the hook.
  using EpochHook = std::function<void(int epoch, TargAD& model)>;

  /// Algorithm 1: candidate selection, then `epochs` classifier epochs with
  /// per-epoch weight updates.
  [[nodiscard]] Status Fit(const data::TrainingSet& train, const EpochHook& hook = nullptr);

  /// Fit plus best-epoch model selection: after every epoch the validation
  /// AUPRC (target-vs-rest) is computed and the best-scoring classifier
  /// snapshot is restored at the end. This mirrors Section IV-C's use of a
  /// separate validation set for model selection and stabilizes the
  /// scaled-down training runs.
  [[nodiscard]] Status FitWithValidation(const data::TrainingSet& train,
                           const data::EvalSet& validation,
                           const EpochHook& hook = nullptr);

  /// S^tar anomaly scores (Eq. 9). Requires Fit. Const and thread-safe on a
  /// fitted model — serving shares one immutable model across threads.
  std::vector<double> Score(const nn::Matrix& x) const;

  /// Raw classifier logits (m + k columns). Requires Fit. Const and
  /// thread-safe on a fitted model.
  nn::Matrix Logits(const nn::Matrix& x) const;

  /// Fits the Section III-C three-way rule on validation data.
  [[nodiscard]] Result<ThreeWayClassifier> FitThreeWay(const data::EvalSet& validation,
                                         OodStrategy strategy);

  /// Serializes everything inference needs (m, k, classifier architecture
  /// and parameters) as versioned text. Requires Fit. Train once, Save,
  /// then Load in the serving process and call Score/Logits.
  [[nodiscard]] Status Save(std::ostream& out);

  /// Restores a model written by Save; the result is ready to Score.
  [[nodiscard]] static Result<TargAD> Load(std::istream& in);

  /// The fitted classifier. Requires Fit.
  const TargAdClassifier& classifier() const;

  bool fitted() const { return fitted_; }
  int m() const { return m_; }
  /// k actually used (after elbow selection); valid after Fit.
  int k() const { return k_; }
  const TargADConfig& config() const { return config_; }
  const TargADDiagnostics& diagnostics() const { return diagnostics_; }

 private:
  TargAD() = default;

  [[nodiscard]] Status FitImpl(const data::TrainingSet& train, const data::EvalSet* validation,
                 const EpochHook& hook);

  TargADConfig config_;
  bool fitted_ = false;
  int m_ = 0;
  int k_ = 0;
  std::unique_ptr<TargAdClassifier> classifier_;
  TargADDiagnostics diagnostics_;
};

}  // namespace core
}  // namespace targad

#endif  // TARGAD_CORE_TARGAD_H_
