// Trains kpi::synthetic_predictor()'s model once and saves it into the
// directory given as the only argument, for test processes that load it
// through kpi::kSyntheticPredictorDirEnv instead of training their own.
//
//   train_synthetic_predictor OUT_DIR
#include <cstdio>
#include <exception>
#include <filesystem>

#include "kpi/online_controller.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT_DIR\n", argv[0]);
    return 2;
  }
  try {
    std::filesystem::create_directories(argv[1]);
    ks::kpi::train_synthetic_predictor().save(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
