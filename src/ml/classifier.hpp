// Common interface of the HID's classifier zoo (paper §III-A: MLP, a
// deeper TensorFlow-style NN, Logistic Regression and a linear SVM).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/matrix.hpp"

namespace crs::ml {

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains from scratch (refitting replaces the previous model).
  virtual void fit(const Matrix& x, const std::vector<int>& y) = 0;

  /// Online-learning update: continues training the CURRENT model on the
  /// new batch only (sklearn partial_fit semantics). Unlike a full refit
  /// this adapts gradually — and can partially forget older regions, which
  /// is the weakness a defense-aware moving-target attack exploits.
  /// Default: falls back to fit() when the model was never fitted.
  virtual void partial_fit(const Matrix& x, const std::vector<int>& y) = 0;

  /// P(attack | x) in [0, 1].
  virtual double predict_proba(std::span<const double> x) const = 0;

  virtual std::string name() const = 0;

  /// Deep copy: the clone predicts identically and trains independently
  /// (weights, optimiser state and step counters are copied, not shared).
  virtual std::unique_ptr<Classifier> clone() const = 0;

  /// Label with a 0.5 threshold.
  int predict(std::span<const double> x) const {
    return predict_proba(x) >= 0.5 ? 1 : 0;
  }

  std::vector<int> predict_batch(const Matrix& x) const {
    std::vector<int> out(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) out[i] = predict(x.row(i));
    return out;
  }
};

}  // namespace crs::ml
