#include <gtest/gtest.h>

#include <cmath>

#include "ml/dataset.hpp"
#include "ml/linear.hpp"
#include "ml/matrix.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace crs::ml {
namespace {

// Two Gaussian blobs, linearly separable when `gap` is large.
Dataset make_blobs(std::size_t n_per_class, double gap, std::uint64_t seed,
                   std::size_t dims = 4) {
  Rng rng(seed);
  Dataset d;
  std::vector<double> row(dims);
  for (std::size_t i = 0; i < 2 * n_per_class; ++i) {
    const int label = i < n_per_class ? 0 : 1;
    for (std::size_t j = 0; j < dims; ++j) {
      row[j] = rng.next_gaussian(label == 0 ? 0.0 : gap, 1.0);
    }
    d.append(row, label);
  }
  return d;
}

// XOR-style dataset: not linearly separable.
Dataset make_xor(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.next_gaussian(rng.next_bernoulli(0.5) ? 2 : -2, 0.4);
    const double y = rng.next_gaussian(rng.next_bernoulli(0.5) ? 2 : -2, 0.4);
    d.append(std::vector<double>{x, y}, (x > 0) != (y > 0) ? 1 : 0);
  }
  return d;
}

double accuracy_on(const Classifier& c, const Dataset& d) {
  const auto pred = c.predict_batch(d.x);
  return confusion(d.y, pred).accuracy();
}

TEST(Matrix, BasicAccessAndAppend) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.at(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 7.0);
  m.append_row(std::vector<double>{1, 2, 3});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_THROW(m.append_row(std::vector<double>{1}), Error);
  EXPECT_THROW(m.at(3, 0), Error);
}

TEST(Matrix, MultiplyMatchesHandComputation) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 6);
}

TEST(Dataset, SplitPreservesSamplesAndRatio) {
  const Dataset d = make_blobs(100, 3.0, 1);
  Rng rng(2);
  const auto split = train_test_split(d, 0.7, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), d.size());
  EXPECT_NEAR(static_cast<double>(split.train.size()) / d.size(), 0.7, 0.01);
}

TEST(Dataset, ScalerNormalisesTrainData) {
  const Dataset d = make_blobs(200, 5.0, 3);
  StandardScaler s;
  s.fit(d.x);
  const Matrix t = s.transform(d.x);
  OnlineStats col0;
  for (std::size_t i = 0; i < t.rows(); ++i) col0.add(t.at(i, 0));
  EXPECT_NEAR(col0.mean(), 0.0, 1e-9);
  EXPECT_NEAR(col0.stddev(), 1.0, 0.01);
}

TEST(Dataset, ScalerHandlesConstantColumns) {
  Dataset d;
  d.append(std::vector<double>{1.0, 5.0}, 0);
  d.append(std::vector<double>{1.0, 7.0}, 1);
  StandardScaler s;
  s.fit(d.x);
  EXPECT_NO_THROW(s.transform(d.x));  // zero-variance column: no div by 0
}

TEST(Dataset, FisherRanksSeparatingFeatureFirst) {
  Rng rng(5);
  Dataset d;
  for (int i = 0; i < 400; ++i) {
    const int label = i % 2;
    // Feature 0: noise; feature 1: separates; feature 2: weakly separates.
    d.append(std::vector<double>{rng.next_gaussian(),
                                 rng.next_gaussian(label * 6.0, 1.0),
                                 rng.next_gaussian(label * 1.0, 1.0)},
             label);
  }
  const auto top = top_k_features(d, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 2u);
}

TEST(Dataset, SelectFeaturesProjects) {
  Dataset d;
  d.append(std::vector<double>{1, 2, 3}, 0);
  const Dataset p = select_features(d, {2, 0});
  EXPECT_DOUBLE_EQ(p.x.at(0, 0), 3);
  EXPECT_DOUBLE_EQ(p.x.at(0, 1), 1);
}

class LinearlySeparable : public ::testing::TestWithParam<std::string> {};

TEST_P(LinearlySeparable, ReachesHighAccuracy) {
  const Dataset train = make_blobs(300, 4.0, 11);
  const Dataset test = make_blobs(100, 4.0, 12);
  auto c = make_classifier(GetParam(), 1);
  c->fit(train.x, train.y);
  EXPECT_GT(accuracy_on(*c, test), 0.95) << GetParam();
}

TEST_P(LinearlySeparable, ProbabilitiesAreCalibratedToSides) {
  const Dataset train = make_blobs(300, 5.0, 21);
  auto c = make_classifier(GetParam(), 1);
  c->fit(train.x, train.y);
  const std::vector<double> far0{-2, -2, -2, -2};
  const std::vector<double> far1{7, 7, 7, 7};
  EXPECT_LT(c->predict_proba(far0), 0.5);
  EXPECT_GT(c->predict_proba(far1), 0.5);
}

TEST_P(LinearlySeparable, DeterministicAcrossRefits) {
  const Dataset train = make_blobs(100, 3.0, 31);
  auto a = make_classifier(GetParam(), 9);
  auto b = make_classifier(GetParam(), 9);
  a->fit(train.x, train.y);
  b->fit(train.x, train.y);
  const std::vector<double> probe{1.0, 2.0, 0.5, 1.5};
  EXPECT_DOUBLE_EQ(a->predict_proba(probe), b->predict_proba(probe));
}

TEST_P(LinearlySeparable, PartialFitAdaptsToNewRegion) {
  // Train on blobs near origin/gap, then partial_fit a new attack cluster
  // far away: the model must start flagging it.
  const Dataset train = make_blobs(300, 4.0, 41);
  auto c = make_classifier(GetParam(), 1);
  c->fit(train.x, train.y);
  Dataset cluster;
  Rng rng(42);
  for (int i = 0; i < 120; ++i) {
    std::vector<double> row(4);
    for (auto& v : row) v = rng.next_gaussian(-6.0, 0.5);
    cluster.append(row, 1);  // a new attack region at (-6,-6,-6,-6)
  }
  const std::vector<double> probe{-6, -6, -6, -6};
  c->partial_fit(cluster.x, cluster.y);
  for (int r = 0; r < 4 && c->predict(probe) != 1; ++r) {
    c->partial_fit(cluster.x, cluster.y);  // a few more online batches
  }
  EXPECT_EQ(c->predict(probe), 1) << GetParam();
}

// Every P(attack) over a dataset, for exact (bitwise) model comparison.
std::vector<double> probabilities(const Classifier& c, const Dataset& d) {
  std::vector<double> out;
  for (std::size_t i = 0; i < d.size(); ++i) {
    out.push_back(c.predict_proba(d.x.row(i)));
  }
  return out;
}

// An online batch the fitted blobs model has not seen: attack windows far
// from both classes, so a partial_fit visibly moves the model.
Dataset novel_attack_batch() {
  Dataset cluster;
  Rng rng(43);
  for (int i = 0; i < 60; ++i) {
    std::vector<double> row(4);
    for (auto& v : row) v = rng.next_gaussian(-6.0, 0.5);
    cluster.append(row, 1);
  }
  return cluster;
}

TEST_P(LinearlySeparable, ClonePredictsIdentically) {
  const Dataset train = make_blobs(150, 3.0, 51);
  auto c = make_classifier(GetParam(), 5);
  c->fit(train.x, train.y);
  const auto copy = c->clone();
  EXPECT_EQ(copy->name(), c->name());
  EXPECT_EQ(probabilities(*copy, train), probabilities(*c, train));
}

TEST_P(LinearlySeparable, PartialFitOnCloneLeavesOriginalUnchanged) {
  const Dataset train = make_blobs(150, 3.0, 52);
  auto c = make_classifier(GetParam(), 5);
  c->fit(train.x, train.y);
  const auto before = probabilities(*c, train);
  const auto copy = c->clone();
  const Dataset batch = novel_attack_batch();
  copy->partial_fit(batch.x, batch.y);
  EXPECT_NE(probabilities(*copy, train), before) << "the update must move it";
  EXPECT_EQ(probabilities(*c, train), before);
}

TEST_P(LinearlySeparable, CloneAndOriginalStayInLockstep) {
  // The clone carries the optimiser state (Adam moments, step counters,
  // the Pegasos step), so the same online batches keep the two identical.
  const Dataset train = make_blobs(150, 3.0, 53);
  auto c = make_classifier(GetParam(), 5);
  c->fit(train.x, train.y);
  const auto copy = c->clone();
  const Dataset batch = novel_attack_batch();
  for (int round = 0; round < 3; ++round) {
    c->partial_fit(batch.x, batch.y);
    copy->partial_fit(batch.x, batch.y);
    EXPECT_EQ(probabilities(*copy, train), probabilities(*c, train))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, LinearlySeparable,
                         ::testing::Values("LR", "SVM", "MLP", "NN"),
                         [](const auto& info) { return info.param; });

TEST(Mlp, SolvesXorUnlikeLinearModels) {
  const Dataset train = make_xor(600, 7);
  const Dataset test = make_xor(200, 8);
  Mlp mlp(mlp3_config());
  mlp.fit(train.x, train.y);
  EXPECT_GT(accuracy_on(mlp, test), 0.95);

  LogisticRegression lr;
  lr.fit(train.x, train.y);
  EXPECT_LT(accuracy_on(lr, test), 0.75) << "XOR should defeat a linear model";
}

TEST(Mlp, Nn6IsDeeperThanMlp3) {
  const Dataset train = make_blobs(50, 3.0, 9);
  Mlp small(mlp3_config());
  Mlp big(nn6_config());
  small.fit(train.x, train.y);
  big.fit(train.x, train.y);
  EXPECT_GT(big.parameter_count(), small.parameter_count());
  EXPECT_EQ(small.name(), "MLP");
  EXPECT_EQ(big.name(), "NN");
}

TEST(Mlp, RejectsBadConfigs) {
  MlpConfig cfg;
  cfg.hidden = {};
  EXPECT_THROW(Mlp m(cfg), Error);
  cfg.hidden = {0};
  EXPECT_THROW(Mlp m(cfg), Error);
}

TEST(Mlp, PredictBeforeFitThrows) {
  Mlp m;
  EXPECT_THROW(m.predict_proba(std::vector<double>{1.0}), Error);
}

TEST(Classifier, FactoryRejectsUnknownKind) {
  EXPECT_THROW(make_classifier("RandomForest", 1), Error);
}

TEST(Classifier, ZooListsPaperDetectors) {
  const auto zoo = classifier_zoo();
  ASSERT_EQ(zoo.size(), 4u);
  EXPECT_EQ(zoo[0], "MLP");
  EXPECT_EQ(zoo[1], "NN");
  EXPECT_EQ(zoo[2], "LR");
  EXPECT_EQ(zoo[3], "SVM");
}

TEST(Metrics, ConfusionAndDerivedScores) {
  const std::vector<int> truth{1, 1, 1, 1, 0, 0, 0, 0};
  const std::vector<int> pred{1, 1, 1, 0, 0, 0, 1, 0};
  const auto cm = confusion(truth, pred);
  EXPECT_EQ(cm.tp, 3u);
  EXPECT_EQ(cm.fn, 1u);
  EXPECT_EQ(cm.fp, 1u);
  EXPECT_EQ(cm.tn, 3u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.75);
  EXPECT_DOUBLE_EQ(cm.recall(), 0.75);
  EXPECT_DOUBLE_EQ(cm.precision(), 0.75);
  EXPECT_DOUBLE_EQ(cm.balanced_accuracy(), 0.75);
  EXPECT_NE(cm.describe().find("acc=75.0%"), std::string::npos);
}

TEST(Metrics, BalancedAccuracyResistsImbalance) {
  // 99 benign correct + 1 attack wrong: plain accuracy 0.99, balanced 0.5.
  std::vector<int> truth(100, 0), pred(100, 0);
  truth[99] = 1;
  const auto cm = confusion(truth, pred);
  EXPECT_GT(cm.accuracy(), 0.98);
  EXPECT_DOUBLE_EQ(cm.balanced_accuracy(), 0.5);
}

TEST(Metrics, SizeMismatchThrows) {
  const std::vector<int> a{1};
  const std::vector<int> b{1, 0};
  EXPECT_THROW(confusion(a, b), Error);
}

}  // namespace
}  // namespace crs::ml
