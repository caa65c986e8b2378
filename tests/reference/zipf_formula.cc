#include "reference/zipf_formula.h"

#include <cassert>
#include <cmath>

namespace fglb::reference {

// Follows W. Hormann and G. Derflinger, "Rejection-inversion to generate
// variates from monotone discrete distributions" (1996), as popularized
// by the Apache Commons RejectionInversionZipfSampler. Samples ranks in
// [1, n] with P(k) proportional to 1/k^theta, returned zero-based.

namespace {

// Computes (exp(x) - 1) / x with stable behaviour near x = 0.
double Helper1(double x) {
  if (std::fabs(x) > 1e-8) return std::expm1(x) / x;
  return 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + x * 0.25));
}

// Computes log(1 + x) / x with stable behaviour near x = 0.
double Helper2(double x) {
  if (std::fabs(x) > 1e-8) return std::log1p(x) / x;
  return 1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25));
}

}  // namespace

FormulaZipf::FormulaZipf(uint64_t n, double theta) : n_(n), theta_(theta) {
  assert(n > 0);
  assert(theta >= 0);
  // H is the integral of the density h(x) = 1/x^theta.
  h_integral_x1_ = H(1.5) - 1.0;
  h_integral_num_elements_ = H(static_cast<double>(n) + 0.5);
  s_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -theta));
}

double FormulaZipf::H(double x) const {
  // Integral of x^-theta: ((x^(1-theta)) - 1) / (1-theta), expressed
  // as helper1((1-theta) ln x) * ln x for stability near theta = 1.
  const double log_x = std::log(x);
  return Helper1((1.0 - theta_) * log_x) * log_x;
}

double FormulaZipf::HInverse(double x) const {
  const double t = x * (1.0 - theta_);
  // Clamp to keep log1p's argument above -1 in the face of rounding.
  const double tt = t < -1.0 ? -1.0 : t;
  return std::exp(Helper2(tt) * x);
}

uint64_t FormulaZipf::Sample(Rng& rng) const {
  if (n_ == 1) return 0;
  for (;;) {
    const double u = h_integral_num_elements_ +
                     rng.NextDouble() *
                         (h_integral_x1_ - h_integral_num_elements_);
    const double x = HInverse(u);
    double k = x + 0.5;
    if (k < 1.0) k = 1.0;
    if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
    const uint64_t ki = static_cast<uint64_t>(k);
    const double kd = static_cast<double>(ki);
    if (kd - x <= s_ ||
        u >= H(kd + 0.5) - std::exp(-theta_ * std::log(kd))) {
      return ki - 1;
    }
  }
}

bool FormulaZipf::Round(double r, uint64_t* rank) const {
  const double u = h_integral_num_elements_ +
                   r * (h_integral_x1_ - h_integral_num_elements_);
  const double x = HInverse(u);
  double k = x + 0.5;
  if (k < 1.0) k = 1.0;
  if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
  const uint64_t ki = static_cast<uint64_t>(k);
  const double kd = static_cast<double>(ki);
  if (kd - x <= s_ ||
      u >= H(kd + 0.5) - std::exp(-theta_ * std::log(kd))) {
    *rank = ki - 1;
    return true;
  }
  return false;
}

double FormulaZipf::DrawOfU(double u) const {
  return (h_integral_num_elements_ - u) /
         (h_integral_num_elements_ - h_integral_x1_);
}

}  // namespace fglb::reference
