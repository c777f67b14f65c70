#include "ann/network.hpp"

#include <cassert>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace ks::ann {

Network::Network(const std::vector<std::size_t>& layer_sizes, Rng& rng,
                 Activation hidden, Activation output) {
  assert(layer_sizes.size() >= 2);
  layers_.reserve(layer_sizes.size() - 1);
  for (std::size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    DenseLayer layer;
    layer.weights = Matrix(layer_sizes[i], layer_sizes[i + 1]);
    layer.weights.randomize_he(rng, layer_sizes[i]);
    layer.bias = Matrix(1, layer_sizes[i + 1]);
    layer.activation =
        (i + 2 == layer_sizes.size()) ? output : hidden;
    layers_.push_back(std::move(layer));
  }
}

Network Network::paper_architecture(std::size_t inputs, std::size_t outputs,
                                    Rng& rng) {
  return Network({inputs, 200, 200, 200, 64, outputs}, rng);
}

std::size_t Network::input_size() const {
  return layers_.empty() ? 0 : layers_.front().weights.rows();
}

std::size_t Network::output_size() const {
  return layers_.empty() ? 0 : layers_.back().weights.cols();
}

Matrix Network::predict(const Matrix& x) const {
  Matrix a = x;
  for (const auto& layer : layers_) {
    Matrix z = a.matmul(layer.weights);
    z.add_row_vector(layer.bias);
    apply_activation(layer.activation, z);
    a = std::move(z);
  }
  return a;
}

std::vector<double> Network::predict_one(const std::vector<double>& x) const {
  Matrix row(1, x.size());
  for (std::size_t i = 0; i < x.size(); ++i) row(0, i) = x[i];
  Matrix out = predict(row);
  return {out.data().begin(), out.data().end()};
}

double Network::train_batch(const Matrix& xb, const Matrix& yb, double lr,
                            double momentum) {
  const std::size_t n = xb.rows();
  // Forward pass, caching activations per layer.
  std::vector<Matrix> activations;
  activations.reserve(layers_.size() + 1);
  activations.push_back(xb);
  for (const auto& layer : layers_) {
    Matrix z = activations.back().matmul(layer.weights);
    z.add_row_vector(layer.bias);
    apply_activation(layer.activation, z);
    activations.push_back(std::move(z));
  }

  // Loss gradient for MSE: dL/da = 2 (a - y) / (n * outputs).
  const Matrix& out = activations.back();
  Matrix grad(out.rows(), out.cols());
  double loss = 0.0;
  const double norm =
      1.0 / (static_cast<double>(n) * static_cast<double>(out.cols()));
  for (std::size_t i = 0; i < out.data().size(); ++i) {
    const double diff = out.data()[i] - yb.data()[i];
    loss += diff * diff;
    grad.data()[i] = 2.0 * diff * norm;
  }
  loss *= norm;

  // Backward pass.
  for (std::size_t li = layers_.size(); li-- > 0;) {
    auto& layer = layers_[li];
    apply_activation_grad(layer.activation, activations[li + 1], grad);

    Matrix dw = activations[li].transposed_matmul(grad);  // (in x out)
    Matrix db(1, grad.cols());
    for (std::size_t r = 0; r < grad.rows(); ++r) {
      const double* g = grad.row(r);
      for (std::size_t c = 0; c < grad.cols(); ++c) db(0, c) += g[c];
    }
    Matrix next_grad;
    if (li > 0) next_grad = grad.matmul_transposed(layer.weights);

    if (momentum > 0.0) {
      if (layer.weight_velocity.empty()) {
        layer.weight_velocity = Matrix(dw.rows(), dw.cols());
        layer.bias_velocity = Matrix(1, db.cols());
      }
      for (std::size_t i = 0; i < dw.data().size(); ++i) {
        auto& v = layer.weight_velocity.data()[i];
        v = momentum * v - lr * dw.data()[i];
        layer.weights.data()[i] += v;
      }
      for (std::size_t i = 0; i < db.data().size(); ++i) {
        auto& v = layer.bias_velocity.data()[i];
        v = momentum * v - lr * db.data()[i];
        layer.bias.data()[i] += v;
      }
    } else {
      layer.weights.axpy(-lr, dw);
      layer.bias.axpy(-lr, db);
    }
    grad = std::move(next_grad);
  }
  return loss;
}

TrainReport Network::train(const Matrix& x, const Matrix& y,
                           const TrainConfig& config, Rng& rng) {
  assert(x.rows() == y.rows());
  TrainReport report;
  std::vector<std::size_t> order(x.rows());
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle) {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
      }
    }
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += config.batch_size) {
      const std::size_t end =
          std::min(start + config.batch_size, order.size());
      std::vector<std::size_t> idx(order.begin() + static_cast<std::ptrdiff_t>(start),
                                   order.begin() + static_cast<std::ptrdiff_t>(end));
      epoch_loss += train_batch(x.gather_rows(idx), y.gather_rows(idx),
                                config.learning_rate, config.momentum);
      ++batches;
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(1, batches));
    report.epochs_run = epoch + 1;
    report.final_mse = epoch_loss;
    if (config.report_every != 0 && (epoch + 1) % config.report_every == 0) {
      report.history.emplace_back(epoch + 1, epoch_loss);
    }
    if (config.target_mse > 0.0 && epoch_loss < config.target_mse) break;
  }
  return report;
}

double Network::mse(const Matrix& x, const Matrix& y) const {
  const Matrix out = predict(x);
  double sum = 0.0;
  for (std::size_t i = 0; i < out.data().size(); ++i) {
    const double diff = out.data()[i] - y.data()[i];
    sum += diff * diff;
  }
  return out.data().empty() ? 0.0 : sum / static_cast<double>(out.data().size());
}

double Network::mae(const Matrix& x, const Matrix& y) const {
  const Matrix out = predict(x);
  double sum = 0.0;
  for (std::size_t i = 0; i < out.data().size(); ++i) {
    sum += std::abs(out.data()[i] - y.data()[i]);
  }
  return out.data().empty() ? 0.0 : sum / static_cast<double>(out.data().size());
}

void Network::save(std::ostream& out) const {
  out << "ksann v1\n" << layers_.size() << "\n";
  out.precision(17);
  for (const auto& layer : layers_) {
    out << layer.weights.rows() << ' ' << layer.weights.cols() << ' '
        << to_string(layer.activation) << "\n";
    for (double v : layer.weights.data()) out << v << ' ';
    out << "\n";
    for (double v : layer.bias.data()) out << v << ' ';
    out << "\n";
  }
}

Network Network::load(std::istream& in) {
  std::string magic, version;
  in >> magic >> version;
  if (magic != "ksann" || version != "v1") {
    throw std::runtime_error("bad network file header");
  }
  std::size_t n_layers = 0;
  in >> n_layers;
  if (!in) throw std::runtime_error("truncated network file");
  Network net;
  net.layers_.reserve(n_layers);
  for (std::size_t i = 0; i < n_layers; ++i) {
    std::size_t rows = 0, cols = 0;
    std::string act;
    in >> rows >> cols >> act;
    DenseLayer layer;
    layer.activation = activation_from_string(act.c_str());
    layer.weights = Matrix(rows, cols);
    for (auto& v : layer.weights.data()) in >> v;
    layer.bias = Matrix(1, cols);
    for (auto& v : layer.bias.data()) in >> v;
    if (!in) throw std::runtime_error("truncated network file");
    net.layers_.push_back(std::move(layer));
  }
  return net;
}

void Network::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  save(out);
}

Network Network::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return load(in);
}

}  // namespace ks::ann
