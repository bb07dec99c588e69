// Linear classifiers: logistic regression (SGD, L2) and a linear SVM
// trained with the Pegasos-style hinge-loss subgradient method — the
// "LR" and "SVM" detectors of the paper's HID zoo.
#pragma once

#include <cstdint>

#include "ml/classifier.hpp"
#include "support/rng.hpp"

namespace crs::ml {

struct LinearConfig {
  int epochs = 120;
  int partial_epochs = 10;  ///< epochs per partial_fit batch
  double learning_rate = 0.05;
  double l2 = 1e-4;
  std::uint64_t seed = 1;
};

class LogisticRegression final : public Classifier {
 public:
  explicit LogisticRegression(const LinearConfig& config = {});

  void fit(const Matrix& x, const std::vector<int>& y) override;
  void partial_fit(const Matrix& x, const std::vector<int>& y) override;
  double predict_proba(std::span<const double> x) const override;
  std::string name() const override { return "LR"; }
  std::unique_ptr<Classifier> clone() const override {
    return std::make_unique<LogisticRegression>(*this);
  }

  std::span<const double> weights() const { return weights_; }
  double bias() const { return bias_; }

 private:
  void run_epochs(const Matrix& x, const std::vector<int>& y, int epochs);

  LinearConfig config_;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

class LinearSvm final : public Classifier {
 public:
  explicit LinearSvm(const LinearConfig& config = {});

  void fit(const Matrix& x, const std::vector<int>& y) override;
  void partial_fit(const Matrix& x, const std::vector<int>& y) override;
  /// Margin squashed through a sigmoid so the common interface holds;
  /// classification is sign(margin).
  double predict_proba(std::span<const double> x) const override;
  std::string name() const override { return "SVM"; }
  std::unique_ptr<Classifier> clone() const override {
    return std::make_unique<LinearSvm>(*this);
  }

  double margin(std::span<const double> x) const;

 private:
  void run_epochs(const Matrix& x, const std::vector<int>& y, int epochs);

  LinearConfig config_;
  std::vector<double> weights_;
  double bias_ = 0.0;
  std::uint64_t pegasos_t_ = 1;  ///< continues across partial_fit batches
};

}  // namespace crs::ml
