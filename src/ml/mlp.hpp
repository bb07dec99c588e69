// Multi-layer perceptron with ReLU hidden layers and a sigmoid output,
// trained with minibatch Adam — the paper's "MLP (Sklearn)" (3-layer) and
// "NN from TensorFlow" (6-layer, ReLU) detectors are both instances.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/classifier.hpp"
#include "support/rng.hpp"

namespace crs::ml {

struct MlpConfig {
  std::vector<int> hidden = {24, 12};
  int epochs = 60;
  int partial_epochs = 6;  ///< epochs per partial_fit batch
  int batch_size = 32;
  double learning_rate = 0.01;
  double l2 = 1e-5;
  std::uint64_t seed = 7;
  std::string display_name = "MLP";
};

class Mlp final : public Classifier {
 public:
  explicit Mlp(const MlpConfig& config = {});

  void fit(const Matrix& x, const std::vector<int>& y) override;
  void partial_fit(const Matrix& x, const std::vector<int>& y) override;
  double predict_proba(std::span<const double> x) const override;
  std::string name() const override { return config_.display_name; }
  std::unique_ptr<Classifier> clone() const override {
    return std::make_unique<Mlp>(*this);
  }

  /// Total trainable parameters (after fit).
  std::size_t parameter_count() const;

 private:
  struct Layer {
    Matrix w;                 // (in x out)
    std::vector<double> b;    // out
    // Adam state.
    Matrix mw, vw;
    std::vector<double> mb, vb;
  };

  /// Forward pass writing into a caller-owned workspace: `acts[0]` is the
  /// input, `acts[li + 1]` layer li's activations. The workspace's buffers
  /// are reused across calls (no per-sample allocation on the training
  /// path — the vectors keep their capacity between samples and epochs).
  void forward_into(std::span<const double> x,
                    std::vector<std::vector<double>>& acts) const;
  void train_epochs(const Matrix& x, const std::vector<int>& y, int epochs,
                    Rng& rng);

  MlpConfig config_;
  std::vector<Layer> layers_;
  std::uint64_t adam_t_ = 0;
};

/// Paper §III-A configurations.
MlpConfig mlp3_config();  ///< "the MLP is 3-layer network-based classifier"
MlpConfig nn6_config();   ///< "the neural networks have 6-layers using Relu"

/// Factory covering the paper's detector zoo: "MLP", "NN", "LR", "SVM".
std::unique_ptr<Classifier> make_classifier(const std::string& kind,
                                            std::uint64_t seed);

/// The zoo's display names in paper order.
std::vector<std::string> classifier_zoo();

}  // namespace crs::ml
