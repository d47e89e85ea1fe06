// RowScorer: the minimal scoring contract BatchScorer and ScoreCsvStream
// depend on. The library's one implementation is FrozenScorer, the model
// the registry serves; the interface lets tests and benches wrap or fake a
// scorer without a trained model.

#ifndef TARGAD_CORE_SCORER_H_
#define TARGAD_CORE_SCORER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/csv.h"

namespace targad {
namespace core {

/// Immutable, thread-safe row scoring: implementations must allow Score to
/// be called concurrently on one shared instance.
class RowScorer {
 public:
  virtual ~RowScorer() = default;

  /// Scores a table carrying the training feature columns (the label
  /// column, if present, is dropped). Returns S^tar per row.
  [[nodiscard]] virtual Result<std::vector<double>> Score(
      const data::RawTable& table) const = 0;

  /// Feature columns a scoring table must carry, in training order.
  virtual const std::vector<std::string>& feature_columns() const = 0;

  /// Name of the (optional, ignored at scoring time) label column.
  virtual const std::string& label_column() const = 0;
};

}  // namespace core
}  // namespace targad

#endif  // TARGAD_CORE_SCORER_H_
