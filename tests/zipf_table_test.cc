// Differential test of ZipfGenerator's tabulated sampling and
// DomainScrambler's permutation tables against the closed forms they
// replace: the formula-only sampler kept in tests/reference/ and
// ScrambleToDomain. Tables may only change speed, never a draw.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "reference/zipf_formula.h"
#include "workload/oltp.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

using reference::FormulaZipf;

struct Domain {
  uint64_t n;
  double theta;
};

// Every (region, theta) the shipped applications sample point lookups
// over: TPC-W in all mixes with and without the O_DATE index, RUBiS,
// the OLTP app, and SearchByTitle as the wrong-arguments bench
// rewrites it (25x region, theta 0.2).
std::vector<Domain> AppDomains() {
  std::set<std::pair<uint64_t, double>> seen;
  auto add = [&](const ApplicationSpec& app) {
    for (const QueryTemplate& tmpl : app.templates) {
      for (const AccessComponent& c : tmpl.components) {
        if (c.kind != AccessComponent::Kind::kPointLookups) continue;
        seen.emplace(c.EffectiveRegionPages(), c.zipf_theta);
        if (tmpl.id == kTpcwSearchByTitle && app.id == TpcwOptions{}.app_id) {
          seen.emplace(c.EffectiveRegionPages() * 25, 0.2);
        }
      }
    }
  };
  for (TpcwMix mix :
       {TpcwMix::kBrowsing, TpcwMix::kShopping, TpcwMix::kOrdering}) {
    for (bool o_date_index : {true, false}) {
      TpcwOptions options;
      options.mix = mix;
      options.o_date_index = o_date_index;
      add(MakeTpcw(options));
    }
  }
  add(MakeRubis());
  add(MakeOltp());
  std::vector<Domain> domains;
  for (const auto& [n, theta] : seen) domains.push_back({n, theta});
  return domains;
}

// The edges of the tabulated range and of theta's interesting values.
std::vector<Domain> EdgeDomains() {
  std::vector<Domain> domains;
  for (uint64_t n : {uint64_t{1}, uint64_t{2}, kMaxTabulatedDomain,
                     kMaxTabulatedDomain + 1}) {
    for (double theta : {0.0, 1.0, 1.2}) domains.push_back({n, theta});
  }
  return domains;
}

std::string DomainName(const testing::TestParamInfo<Domain>& info) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "n%llu_theta%g",
                static_cast<unsigned long long>(info.param.n),
                info.param.theta);
  std::string name(buf);
  for (char& c : name) {
    if (c == '.') c = 'p';
  }
  return name;
}

class ZipfTableTest : public testing::TestWithParam<Domain> {};

TEST_P(ZipfTableTest, DrawsWhatTheFormulaDraws) {
  const Domain d = GetParam();
  const ZipfGenerator zipf(d.n, d.theta);
  const FormulaZipf formula(d.n, d.theta);
  EXPECT_EQ(zipf.tabulated(), d.n >= 2 && d.n <= kMaxTabulatedDomain &&
                                 d.theta <= 8);
  constexpr int kDraws = 10'000'000;
  Rng table_rng(d.n * 1000003 + static_cast<uint64_t>(d.theta * 1000));
  Rng formula_rng = table_rng;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t got = zipf.Sample(table_rng);
    const uint64_t want = formula.Sample(formula_rng);
    if (got != want) {
      FAIL() << "draw " << i << ": table " << got << ", formula " << want;
    }
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(table_rng.Next(), formula_rng.Next());
}

TEST_P(ZipfTableTest, BoundaryDrawsMatchTheFormula) {
  // Aims draws at every rank's u-space edges: where the rank starts
  // (x = k - 0.5), where quick acceptance starts (x = k - s) and the
  // squeeze threshold. Each aim is probed at and within a few ulps,
  // and stepped across the table's guard band (a few 2^-31 steps).
  const Domain d = GetParam();
  const ZipfGenerator zipf(d.n, d.theta);
  const FormulaZipf formula(d.n, d.theta);
  if (d.n == 1) {
    // Sample never draws on a one-rank domain; every draw is rank 0.
    uint64_t rank = ~0ULL;
    EXPECT_TRUE(zipf.TryDraw(0.5, &rank));
    EXPECT_EQ(rank, 0u);
    return;
  }
  std::vector<double> aims;
  for (uint64_t k = 1; k <= d.n; ++k) {
    const double kd = static_cast<double>(k);
    aims.push_back(formula.DrawOfU(formula.H(kd - 0.5)));
    aims.push_back(formula.DrawOfU(formula.H(kd - formula.s())));
    aims.push_back(formula.DrawOfU(
        formula.H(kd + 0.5) - std::exp(-d.theta * std::log(kd))));
  }
  int probes = 0;
  for (const double aim : aims) {
    if (!(aim >= 0.0 && aim < 1.0)) continue;
    auto probe = [&](double r) {
      if (!(r >= 0.0 && r < 1.0)) return;
      uint64_t got = ~0ULL, want = ~0ULL;
      const bool got_accept = zipf.TryDraw(r, &got);
      const bool want_accept = formula.Round(r, &want);
      ++probes;
      ASSERT_EQ(got_accept, want_accept) << "r=" << r;
      if (want_accept) {
        ASSERT_EQ(got, want) << "r=" << r;
      }
    };
    double up = aim, down = aim;
    for (int ulp = 0; ulp <= 3; ++ulp) {
      probe(up);
      probe(down);
      up = std::nextafter(up, 1.0);
      down = std::nextafter(down, 0.0);
    }
    for (int step = -12; step <= 12; ++step) probe(aim + step * 0x1.0p-31);
  }
  EXPECT_GT(probes, 0);
}

TEST_P(ZipfTableTest, PermutationIsScrambleToDomain) {
  const uint64_t n = GetParam().n;
  const DomainScrambler scramble(n);
  for (uint64_t v = 0; v < n; ++v) {
    ASSERT_EQ(scramble(v), ScrambleToDomain(v, n)) << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, ZipfTableTest, testing::ValuesIn(AppDomains()),
                         DomainName);
INSTANTIATE_TEST_SUITE_P(Edges, ZipfTableTest,
                         testing::ValuesIn(EdgeDomains()), DomainName);

TEST(ZipfTableSharingTest, ConcurrentConstructionDrawsIdentically) {
  // Several threads build samplers and scramblers over the same
  // domains at once, so every table comes out of the process-wide memo
  // while other threads are inserting into it or reading it.
  const std::vector<Domain> domains = AppDomains();
  constexpr int kDraws = 20000;
  std::vector<std::vector<uint64_t>> want(domains.size());
  for (size_t i = 0; i < domains.size(); ++i) {
    const FormulaZipf formula(domains[i].n, domains[i].theta);
    Rng rng(i + 1);
    for (int j = 0; j < kDraws; ++j) {
      want[i].push_back(
          ScrambleToDomain(formula.Sample(rng), domains[i].n));
    }
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<uint64_t>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Threads walk the domains in different orders so they race on
      // different keys.
      got[t].resize(domains.size());
      for (size_t k = 0; k < domains.size(); ++k) {
        const size_t i = (k + t * 7) % domains.size();
        const ZipfGenerator zipf(domains[i].n, domains[i].theta);
        const DomainScrambler scramble(domains[i].n);
        Rng rng(i + 1);
        for (int j = 0; j < kDraws; ++j) {
          got[t][i].push_back(scramble(zipf.Sample(rng)));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < domains.size(); ++i) {
      EXPECT_EQ(got[t][i], want[i])
          << "thread " << t << " n=" << domains[i].n
          << " theta=" << domains[i].theta;
    }
  }
}

TEST(ZipfTableSharingTest, RebuiltTableDrawsIdentically) {
  // The memo keeps no table alive by itself: a table whose last owner
  // is gone is rebuilt on next use, and must draw as the first did.
  Rng a(5), b(5);
  std::vector<uint64_t> first;
  {
    const ZipfGenerator zipf(777, 0.9);
    for (int i = 0; i < 1000; ++i) first.push_back(zipf.Sample(a));
  }
  const ZipfGenerator rebuilt(777, 0.9);
  const ZipfGenerator shared(777, 0.9);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t rank = (i % 2 == 0 ? rebuilt : shared).Sample(b);
    ASSERT_EQ(rank, first[i]) << "draw " << i;
  }
}

}  // namespace
}  // namespace fglb
