#ifndef FGLB_COMMON_RANDOM_H_
#define FGLB_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace fglb {

// Deterministic, seedable pseudo-random number generator
// (xoshiro256** by Blackman & Vigna). All stochastic behaviour in the
// simulator flows through instances of this class so that every
// experiment is reproducible from its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Raw 64 random bits.
  uint64_t Next();

  // Uniform integer in [0, n). Requires n > 0.
  uint64_t NextUint64(uint64_t n);

  // Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  // Exponentially distributed double with the given mean (> 0).
  double Exponential(double mean);

  // Normally distributed double (Box-Muller).
  double Normal(double mean, double stddev);

  // Bernoulli trial: true with probability p.
  bool Bernoulli(double p);

  // Binomial(n, p): number of successes in n trials. O(n*p + 1) via
  // geometric gaps between successes, so drawing "how many of a
  // million thinking clients wake this batch" does not cost a million
  // Bernoulli draws.
  uint64_t Binomial(uint64_t n, double p);

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Requires a non-empty vector with a positive total weight.
  size_t Discrete(const std::vector<double>& weights);

 private:
  uint64_t s_[4];
};

// Largest domain the samplers below tabulate. Tables cost O(n) memory
// and are read at random, so past this size they stop fitting in cache;
// their uint16_t entries also stop fitting.
inline constexpr uint64_t kMaxTabulatedDomain = uint64_t{1} << 16;

// Zipf(theta) sampler over the domain [0, n). Uses Hormann's
// rejection-inversion method so sampling is O(1) regardless of n,
// which matters for multi-gigabyte table footprints (millions of
// pages). theta = 0 degenerates to uniform; theta around 0.8-1.2
// models typical hot/cold database page popularity.
//
// Domains of 2..kMaxTabulatedDomain ranks with theta <= 8 (far beyond
// page-popularity skews) sample through a table of where each rank's
// accept and reject intervals start in draw space, built at
// construction and shared by every generator of the same (n, theta) in
// the process. Draws near a tabulated edge fall back to the formula, so
// the table returns exactly the formula's rank and consumes exactly
// the formula's draws.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  uint64_t Sample(Rng& rng) const;

  // One rejection-inversion round on the uniform draw r in [0, 1):
  // true with the zero-based rank in *rank if the round accepts r,
  // false if it rejects r. Sample repeats rounds on rng.NextDouble()
  // until one accepts.
  bool TryDraw(double r, uint64_t* rank) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }
  bool tabulated() const { return table_ != nullptr; }

 private:
  struct Table;

  double H(double x) const;
  double HInverse(double x) const;
  // TryDraw by the closed form alone: the whole sampler for untabulated
  // domains, and the tabulated path's answer near a table edge.
  bool TryDrawByFormula(double r, uint64_t* rank) const;
  std::shared_ptr<const Table> BuildTable() const;

  uint64_t n_;
  double theta_;
  double h_integral_x1_;
  double h_integral_num_elements_;
  double s_;
  std::shared_ptr<const Table> table_;
};

// Scrambles a Zipf rank into a page id within [0, n) so that hot pages
// are spread across the table instead of clustered at its start.
// Bijective for any n (cycle-walking on a mixed 64-bit permutation).
uint64_t ScrambleToDomain(uint64_t value, uint64_t n);

// ScrambleToDomain(·, n) restricted to [0, n). Domains up to
// kMaxTabulatedDomain read a permutation table built at construction
// and shared process-wide; larger ones call ScrambleToDomain.
class DomainScrambler {
 public:
  explicit DomainScrambler(uint64_t n);

  // Requires value < n.
  uint64_t operator()(uint64_t value) const {
    return perm_ != nullptr ? (*perm_)[value] : ScrambleToDomain(value, n_);
  }

 private:
  uint64_t n_;
  std::shared_ptr<const std::vector<uint16_t>> perm_;
};

}  // namespace fglb

#endif  // FGLB_COMMON_RANDOM_H_
