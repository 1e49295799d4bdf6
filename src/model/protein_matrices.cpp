#include "model/protein_matrices.hpp"

#include <cmath>
#include <string>

#include "util/rng.hpp"

namespace plfoc {

SubstitutionModel synthetic_protein_model(std::uint64_t seed) {
  constexpr unsigned kStates = 20;
  Rng rng(seed);
  SubstitutionModel model;
  model.name = "Synthetic20-" + std::to_string(seed);
  model.type = DataType::kProtein;
  model.exchangeabilities.resize(kStates * (kStates - 1) / 2);
  // Log-uniform exchangeabilities over ~3 orders of magnitude mimic the
  // heterogeneity of empirical matrices.
  for (double& rho : model.exchangeabilities)
    rho = std::exp(rng.uniform(-3.0, 3.0));
  model.frequencies.resize(kStates);
  double total = 0.0;
  for (double& f : model.frequencies) {
    f = 0.01 + rng.uniform();  // bounded away from zero
    total += f;
  }
  for (double& f : model.frequencies) f /= total;
  model.validate();
  return model;
}

}  // namespace plfoc
