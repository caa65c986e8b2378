#include "common/random.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <numbers>
#include <utility>

namespace fglb {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Stafford variant 13 of the 64-bit finalizer; bijective on uint64_t.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Process-wide memo of immutable tables: every caller asking for the
// same key while a copy is alive shares that copy. One memo per call
// site (each passes its own `build` lambda type).
template <typename T, typename Key, typename Build>
std::shared_ptr<const T> SharedTable(const Key& key, Build build) {
  static std::mutex mu;
  static std::map<Key, std::weak_ptr<const T>> memo;
  std::lock_guard<std::mutex> lock(mu);
  std::weak_ptr<const T>& slot = memo[key];
  std::shared_ptr<const T> table = slot.lock();
  if (table == nullptr) {
    table = build();
    slot = table;
  }
  return table;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t n) {
  assert(n > 0);
  // Rejection to avoid modulo bias.
  const uint64_t threshold = -n % n;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextUint64(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::Exponential(double mean) {
  assert(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  double u1 = NextDouble();
  if (u1 <= 0) u1 = 0x1.0p-53;
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

uint64_t Rng::Binomial(uint64_t n, double p) {
  if (n == 0 || p <= 0) return 0;
  if (p >= 1) return n;
  // Walk the trial sequence by Geometric(p) gaps: each gap lands on
  // the next success. Expected iterations: n*p + 1.
  const double log_q = std::log1p(-p);  // < 0
  uint64_t count = 0;
  double position = 0;
  while (true) {
    double u = NextDouble();
    if (u <= 0) u = 0x1.0p-53;
    position += std::floor(std::log(u) / log_q) + 1;
    if (position > static_cast<double>(n)) break;
    ++count;
  }
  return count;
}

size_t Rng::Discrete(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0;
  for (double w : weights) total += w;
  assert(total > 0);
  double x = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0) return i;
  }
  return weights.size() - 1;
}

// --- ZipfGenerator (Hormann rejection-inversion) ---
//
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

// The table works in draw positions: r = NextDouble() scaled to
// [0, 2^31), floored. u falls as r rises, so in position order ranks run
// n, n-1, ..., 1, and each rank k owns two cells: first the draws the
// formula accepts as k (u >= min(quick-accept start, squeeze
// threshold)), then the draws it rejects (u below both). edges[2p] and
// edges[2p + 1] are where pair p = n - k's accept and reject cells
// start; edges[2n] = 2^31 closes the last cell. A reject cell is empty
// when the formula accepts all of rank k's interval.
//
// Edges are rounded and computed with libm, so they can be off by a
// position or two; the formula's own x = HInverse(u) is off by far less
// than one position. A draw at least kGuardPositions (~4e-9 of the
// u range) from both edges of its cell therefore gets the formula's
// answer from the table; one closer runs the formula itself.
struct ZipfGenerator::Table {
  std::vector<uint32_t> edges;
  // guide[pos >> guide_shift]: the pair whose cells hold the bucket's
  // first position. At least n buckets, so a lookup scans ~1 edge.
  std::vector<uint16_t> guide;
  int guide_shift = 0;
};

namespace {

constexpr double kDrawPositions = 0x1.0p31;
constexpr uint32_t kGuardPositions = 8;
// The formula's u-space error near rank 1 grows like 2^(theta - 1)
// ulps; up to this theta it stays ~1e4x inside the guard band.
constexpr double kMaxTabulatedTheta = 8.0;

}  // namespace

ZipfGenerator::ZipfGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  assert(n > 0);
  assert(theta >= 0);
  // H is the integral of the density h(x) = 1/x^theta.
  h_integral_x1_ = H(1.5) - 1.0;
  h_integral_num_elements_ = H(static_cast<double>(n) + 0.5);
  s_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -theta));
  if (n >= 2 && n <= kMaxTabulatedDomain && theta <= kMaxTabulatedTheta) {
    table_ = SharedTable<Table>(
        std::make_pair(n, std::bit_cast<uint64_t>(theta)),
        [this] { return BuildTable(); });
  }
}

double ZipfGenerator::H(double x) const {
  // Integral of x^-theta: ((x^(1-theta)) - 1) / (1-theta), expressed
  // as helper1((1-theta) ln x) * ln x for stability near theta = 1.
  const double log_x = std::log(x);
  return Helper1((1.0 - theta_) * log_x) * log_x;
}

double ZipfGenerator::HInverse(double x) const {
  const double t = x * (1.0 - theta_);
  // Clamp to keep log1p's argument above -1 in the face of rounding.
  const double tt = t < -1.0 ? -1.0 : t;
  return std::exp(Helper2(tt) * x);
}

bool ZipfGenerator::TryDrawByFormula(double r, uint64_t* rank) const {
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

std::shared_ptr<const ZipfGenerator::Table> ZipfGenerator::BuildTable()
    const {
  const double span = h_integral_num_elements_ - h_integral_x1_;
  auto position = [&](double u) {
    const double p = (h_integral_num_elements_ - u) / span * kDrawPositions;
    return static_cast<uint32_t>(std::clamp(std::round(p), 0.0,
                                            kDrawPositions));
  };
  auto table = std::make_shared<Table>();
  std::vector<uint32_t>& edges = table->edges;
  edges.resize(2 * n_ + 1);
  // Walk ranks n..1: u-space intervals [H(k - 0.5), H(k + 0.5)) downward.
  // Rounding can reorder near-equal edges by a position; `last` keeps
  // them ascending for the scan (such cells lie inside guard bands).
  double upper = h_integral_num_elements_;
  uint32_t last = 0;
  for (uint64_t p = 0; p < n_; ++p) {
    const double kd = static_cast<double>(n_ - p);
    const double lower = kd > 1.0
                             ? std::min(H(kd - 0.5), upper)
                             : -std::numeric_limits<double>::infinity();
    const double quick = H(kd - s_);
    const double squeeze = H(kd + 0.5) - std::exp(-theta_ * std::log(kd));
    const double accept = std::clamp(std::min(quick, squeeze), lower, upper);
    last = edges[2 * p] = std::max(last, position(upper));
    last = edges[2 * p + 1] = std::max(last, position(accept));
    upper = lower;
  }
  edges[2 * n_] = static_cast<uint32_t>(kDrawPositions);

  const uint64_t buckets = std::bit_ceil(n_);
  table->guide_shift = 31 - std::countr_zero(buckets);
  table->guide.resize(buckets);
  uint32_t cell = 0;
  for (uint64_t g = 0; g < buckets; ++g) {
    const uint32_t start = static_cast<uint32_t>(g << table->guide_shift);
    while (start >= edges[cell + 1]) ++cell;
    table->guide[g] = static_cast<uint16_t>(cell / 2);
  }
  return table;
}

bool ZipfGenerator::TryDraw(double r, uint64_t* rank) const {
  if (n_ == 1) {
    *rank = 0;
    return true;
  }
  if (table_ != nullptr) {
    const uint32_t* edges = table_->edges.data();
    const uint32_t pos = static_cast<uint32_t>(r * kDrawPositions);
    uint32_t cell = 2u * table_->guide[pos >> table_->guide_shift];
    while (pos >= edges[cell + 1]) ++cell;
    if (pos - edges[cell] >= kGuardPositions &&
        edges[cell + 1] - pos > kGuardPositions) {
      *rank = n_ - 1 - cell / 2;
      return cell % 2 == 0;
    }
  }
  return TryDrawByFormula(r, rank);
}

uint64_t ZipfGenerator::Sample(Rng& rng) const {
  if (n_ == 1) return 0;
  uint64_t rank = 0;
  while (!TryDraw(rng.NextDouble(), &rank)) {
  }
  return rank;
}

namespace {

// Balanced Feistel permutation on [0, 2^(2*half_bits)). Always a
// bijection regardless of the round function, so cycle-walking over it
// terminates (iterating a permutation from a point < n must return to
// that point, visiting another element < n on the way or ending there).
uint64_t Feistel(uint64_t v, int half_bits) {
  const uint64_t half_mask = (half_bits >= 64) ? ~0ULL
                                               : ((1ULL << half_bits) - 1);
  uint64_t left = (v >> half_bits) & half_mask;
  uint64_t right = v & half_mask;
  for (int round = 0; round < 4; ++round) {
    const uint64_t f =
        Mix64(right + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(round)) &
        half_mask;
    const uint64_t new_left = right;
    right = left ^ f;
    left = new_left;
  }
  return (left << half_bits) | right;
}

}  // namespace

uint64_t ScrambleToDomain(uint64_t value, uint64_t n) {
  assert(n > 0);
  if (n == 1) return 0;
  int bits = 2;  // even number of bits covering n
  while (bits < 64 && (1ULL << bits) < n) bits += 2;
  const int half_bits = bits / 2;
  uint64_t v = value % n;
  do {
    v = Feistel(v, half_bits);
  } while (v >= n);
  return v;
}

DomainScrambler::DomainScrambler(uint64_t n) : n_(n) {
  assert(n > 0);
  if (n > kMaxTabulatedDomain) return;
  perm_ = SharedTable<std::vector<uint16_t>>(n, [n] {
    auto perm = std::make_shared<std::vector<uint16_t>>(n);
    for (uint64_t v = 0; v < n; ++v) {
      (*perm)[v] = static_cast<uint16_t>(ScrambleToDomain(v, n));
    }
    return perm;
  });
}

}  // namespace fglb
