#ifndef FGLB_TESTS_REFERENCE_ZIPF_FORMULA_H_
#define FGLB_TESTS_REFERENCE_ZIPF_FORMULA_H_

#include <cstdint>

#include "common/random.h"

namespace fglb::reference {

// Formula-only Zipf(theta) sampler over [0, n): Hormann rejection-
// inversion evaluated from scratch on every draw, exactly as
// ZipfGenerator did before it tabulated small domains. The oracle of
// zipf_table_test: ZipfGenerator must return the same ranks and leave
// the Rng in the same state for every (n, theta) and seed.
class FormulaZipf {
 public:
  FormulaZipf(uint64_t n, double theta);

  uint64_t Sample(Rng& rng) const;

  // One round of Sample's loop on the uniform draw r: true with the
  // zero-based rank if the round accepts r, false if it rejects r.
  bool Round(double r, uint64_t* rank) const;

  // The u-space value of rank coordinate x, and the draw r that maps
  // to u. Lets a test aim draws at rank boundaries such as x = k - 0.5.
  double H(double x) const;
  double DrawOfU(double u) const;
  double s() const { return s_; }

 private:
  double HInverse(double x) const;

  uint64_t n_;
  double theta_;
  double h_integral_x1_;
  double h_integral_num_elements_;
  double s_;
};

}  // namespace fglb::reference

#endif  // FGLB_TESTS_REFERENCE_ZIPF_FORMULA_H_
