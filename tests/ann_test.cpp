// ANN library tests: matrix algebra, activations, scaler, dataset,
// training convergence and serialisation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "ann/activation.hpp"
#include "ann/dataset.hpp"
#include "ann/matrix.hpp"
#include "ann/network.hpp"
#include "ann/scaler.hpp"

namespace ks::ann {
namespace {

TEST(Matrix, MatmulKnownValues) {
  auto a = Matrix::from_rows({{1, 2}, {3, 4}});
  auto b = Matrix::from_rows({{5, 6}, {7, 8}});
  auto c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, MatmulTransposed) {
  auto a = Matrix::from_rows({{1, 2, 3}});
  auto b = Matrix::from_rows({{4, 5, 6}, {7, 8, 9}});  // 2x3.
  auto c = a.matmul_transposed(b);                     // 1x2.
  EXPECT_DOUBLE_EQ(c(0, 0), 32);
  EXPECT_DOUBLE_EQ(c(0, 1), 50);
}

TEST(Matrix, TransposedMatmul) {
  auto a = Matrix::from_rows({{1, 2}, {3, 4}});  // 2x2.
  auto b = Matrix::from_rows({{5}, {6}});        // 2x1.
  auto c = a.transposed_matmul(b);               // 2x1 = A^T * b.
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 5 + 3 * 6);
  EXPECT_DOUBLE_EQ(c(1, 0), 2 * 5 + 4 * 6);
}

TEST(Matrix, AddRowVector) {
  auto m = Matrix::from_rows({{1, 1}, {2, 2}});
  auto bias = Matrix::from_rows({{10, 20}});
  m.add_row_vector(bias);
  EXPECT_DOUBLE_EQ(m(0, 0), 11);
  EXPECT_DOUBLE_EQ(m(1, 1), 22);
}

TEST(Matrix, Axpy) {
  auto m = Matrix::from_rows({{1, 2}});
  auto g = Matrix::from_rows({{10, 10}});
  m.axpy(-0.1, g);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
}

TEST(Matrix, GatherRows) {
  auto m = Matrix::from_rows({{0, 0}, {1, 1}, {2, 2}});
  auto g = m.gather_rows({2, 0});
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_DOUBLE_EQ(g(0, 0), 2);
  EXPECT_DOUBLE_EQ(g(1, 0), 0);
}

TEST(Matrix, HeInitialisationBounded) {
  Rng rng(1);
  Matrix m(50, 50);
  m.randomize_he(rng, 50);
  const double limit = std::sqrt(6.0 / 50.0);
  for (double v : m.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

TEST(Activations, ReluForwardAndGrad) {
  auto z = Matrix::from_rows({{-1, 0, 2}});
  apply_activation(Activation::kRelu, z);
  EXPECT_DOUBLE_EQ(z(0, 0), 0);
  EXPECT_DOUBLE_EQ(z(0, 2), 2);
  auto grad = Matrix::from_rows({{5, 5, 5}});
  apply_activation_grad(Activation::kRelu, z, grad);
  EXPECT_DOUBLE_EQ(grad(0, 0), 0);
  EXPECT_DOUBLE_EQ(grad(0, 2), 5);
}

TEST(Activations, SigmoidRangeAndGrad) {
  auto z = Matrix::from_rows({{0.0, 100.0, -100.0}});
  apply_activation(Activation::kSigmoid, z);
  EXPECT_DOUBLE_EQ(z(0, 0), 0.5);
  EXPECT_NEAR(z(0, 1), 1.0, 1e-9);
  EXPECT_NEAR(z(0, 2), 0.0, 1e-9);
  auto grad = Matrix::from_rows({{1.0, 1.0, 1.0}});
  apply_activation_grad(Activation::kSigmoid, z, grad);
  EXPECT_DOUBLE_EQ(grad(0, 0), 0.25);  // s(1-s) at s=0.5.
}

TEST(Activations, TanhGrad) {
  auto z = Matrix::from_rows({{0.0}});
  apply_activation(Activation::kTanh, z);
  auto grad = Matrix::from_rows({{2.0}});
  apply_activation_grad(Activation::kTanh, z, grad);
  EXPECT_DOUBLE_EQ(grad(0, 0), 2.0);  // 1 - tanh(0)^2 = 1.
}

TEST(Activations, RoundTripNames) {
  for (auto a : {Activation::kIdentity, Activation::kRelu,
                 Activation::kSigmoid, Activation::kTanh}) {
    EXPECT_EQ(activation_from_string(to_string(a)), a);
  }
  EXPECT_THROW(activation_from_string("bogus"), std::invalid_argument);
}

TEST(Scaler, TransformsToUnitRange) {
  MinMaxScaler scaler;
  auto x = Matrix::from_rows({{0, 100}, {5, 200}, {10, 300}});
  auto t = scaler.fit_transform(x);
  EXPECT_DOUBLE_EQ(t(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(t(1, 1), 0.5);
}

TEST(Scaler, ConstantColumnMapsToZero) {
  MinMaxScaler scaler;
  auto x = Matrix::from_rows({{7, 1}, {7, 2}});
  auto t = scaler.fit_transform(x);
  EXPECT_DOUBLE_EQ(t(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t(1, 0), 0.0);
}

TEST(Scaler, InverseRoundTrip) {
  MinMaxScaler scaler;
  auto x = Matrix::from_rows({{1, 10}, {3, 30}, {2, 20}});
  auto t = scaler.fit_transform(x);
  auto back = scaler.inverse(t);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(back(r, c), x(r, c), 1e-12);
    }
  }
}

TEST(Scaler, TransformOne) {
  MinMaxScaler scaler;
  scaler.fit(Matrix::from_rows({{0.0}, {10.0}}));
  const auto t = scaler.transform_one({5.0});
  EXPECT_DOUBLE_EQ(t[0], 0.5);
}

TEST(Scaler, SaveLoadRoundTrip) {
  MinMaxScaler scaler;
  scaler.fit(Matrix::from_rows({{1, -5}, {9, 5}}));
  std::stringstream ss;
  scaler.save(ss);
  auto loaded = MinMaxScaler::load(ss);
  const auto a = scaler.transform_one({4.0, 0.0});
  const auto b = loaded.transform_one({4.0, 0.0});
  EXPECT_DOUBLE_EQ(a[0], b[0]);
  EXPECT_DOUBLE_EQ(a[1], b[1]);
}

TEST(Dataset, AddFinalizeSplit) {
  Dataset ds;
  for (int i = 0; i < 10; ++i) {
    ds.add({static_cast<double>(i)}, {static_cast<double>(i * 2)});
  }
  ds.finalize();
  EXPECT_EQ(ds.size(), 10u);
  auto [train, test] = ds.split(0.3);
  EXPECT_EQ(train.size(), 7u);
  EXPECT_EQ(test.size(), 3u);
}

TEST(Dataset, ShufflePreservesPairs) {
  Dataset ds;
  for (int i = 0; i < 100; ++i) {
    ds.add({static_cast<double>(i)}, {static_cast<double>(i * 3)});
  }
  Rng rng(2);
  ds.shuffle(rng);
  for (std::size_t r = 0; r < 100; ++r) {
    EXPECT_DOUBLE_EQ(ds.y(r, 0), ds.x(r, 0) * 3);
  }
}

TEST(Dataset, CsvRoundTrip) {
  Dataset ds;
  ds.add({1.5, 2.5}, {0.25});
  ds.add({3.0, 4.0}, {0.75});
  ds.finalize();
  const std::string path = ::testing::TempDir() + "/ks_ds.csv";
  ds.save_csv(path, {"a", "b"}, {"y"});
  auto loaded = Dataset::load_csv(path, 2, 1);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.x(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(loaded.y(1, 0), 0.75);
  std::remove(path.c_str());
}

TEST(Network, ShapesFromLayerSpec) {
  Rng rng(3);
  Network net({4, 16, 8, 2}, rng);
  EXPECT_EQ(net.input_size(), 4u);
  EXPECT_EQ(net.output_size(), 2u);
  EXPECT_EQ(net.layers().size(), 3u);
}

TEST(Network, PaperArchitecture) {
  Rng rng(4);
  auto net = Network::paper_architecture(5, 2, rng);
  ASSERT_EQ(net.layers().size(), 5u);
  EXPECT_EQ(net.layers()[0].weights.cols(), 200u);
  EXPECT_EQ(net.layers()[1].weights.cols(), 200u);
  EXPECT_EQ(net.layers()[2].weights.cols(), 200u);
  EXPECT_EQ(net.layers()[3].weights.cols(), 64u);
  EXPECT_EQ(net.layers()[4].weights.cols(), 2u);
  EXPECT_EQ(net.layers()[4].activation, Activation::kSigmoid);
}

TEST(Network, SigmoidOutputStaysInUnitInterval) {
  // The paper worries about negative predicted probabilities; the sigmoid
  // head makes them impossible.
  Rng rng(5);
  auto net = Network::paper_architecture(3, 2, rng);
  Matrix x(10, 3);
  for (auto& v : x.data()) v = rng.uniform(-100, 100);
  const auto out = net.predict(x);
  for (double v : out.data()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Network, LearnsLinearFunction) {
  Rng rng(6);
  Network net({1, 16, 1}, rng, Activation::kRelu, Activation::kIdentity);
  Matrix x(64, 1), y(64, 1);
  for (std::size_t i = 0; i < 64; ++i) {
    x(i, 0) = rng.uniform01();
    y(i, 0) = 0.3 * x(i, 0) + 0.2;
  }
  TrainConfig tc;
  tc.epochs = 400;
  tc.learning_rate = 0.05;
  tc.batch_size = 16;
  net.train(x, y, tc, rng);
  EXPECT_LT(net.mae(x, y), 0.02);
}

TEST(Network, LearnsXor) {
  Rng rng(7);
  Network net({2, 16, 16, 1}, rng, Activation::kTanh, Activation::kSigmoid);
  auto x = Matrix::from_rows({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  auto y = Matrix::from_rows({{0.0}, {1.0}, {1.0}, {0.0}});
  TrainConfig tc;
  tc.epochs = 3000;
  tc.learning_rate = 0.5;
  tc.batch_size = 4;
  tc.target_mse = 1e-3;
  const auto report = net.train(x, y, tc, rng);
  EXPECT_LT(report.final_mse, 1e-2);
  const auto out = net.predict(x);
  EXPECT_LT(out(0, 0), 0.3);
  EXPECT_GT(out(1, 0), 0.7);
  EXPECT_GT(out(2, 0), 0.7);
  EXPECT_LT(out(3, 0), 0.3);
}

TEST(Network, EarlyStopOnTarget) {
  Rng rng(8);
  Network net({1, 8, 1}, rng, Activation::kRelu, Activation::kIdentity);
  Matrix x(16, 1), y(16, 1);
  for (std::size_t i = 0; i < 16; ++i) {
    x(i, 0) = static_cast<double>(i) / 16.0;
    y(i, 0) = x(i, 0);
  }
  TrainConfig tc;
  tc.epochs = 100000;
  tc.learning_rate = 0.05;
  tc.target_mse = 1e-4;
  const auto report = net.train(x, y, tc, rng);
  EXPECT_LT(report.epochs_run, 100000u);
  EXPECT_LT(report.final_mse, 1e-4);
}

TEST(Network, SaveLoadExactPredictions) {
  Rng rng(9);
  Network net({3, 8, 2}, rng);
  std::stringstream ss;
  net.save(ss);
  auto loaded = Network::load(ss);
  const std::vector<double> input = {0.1, 0.5, 0.9};
  const auto a = net.predict_one(input);
  const auto b = loaded.predict_one(input);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Network, LoadRejectsGarbage) {
  std::stringstream ss("not a network");
  EXPECT_THROW(Network::load(ss), std::runtime_error);
  // A header with no layer count is truncated, not an empty network.
  std::stringstream header_only("ksann v1\n");
  EXPECT_THROW(Network::load(header_only), std::runtime_error);
}

TEST(Network, MomentumTrainsToo) {
  Rng rng(10);
  Network net({1, 12, 1}, rng, Activation::kRelu, Activation::kIdentity);
  Matrix x(32, 1), y(32, 1);
  for (std::size_t i = 0; i < 32; ++i) {
    x(i, 0) = rng.uniform01();
    y(i, 0) = 2.0 * x(i, 0) - 0.5;
  }
  TrainConfig tc;
  tc.epochs = 300;
  tc.learning_rate = 0.02;
  tc.momentum = 0.9;
  net.train(x, y, tc, rng);
  EXPECT_LT(net.mae(x, y), 0.05);
}

}  // namespace
}  // namespace ks::ann
