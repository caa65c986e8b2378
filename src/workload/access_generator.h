#ifndef FGLB_WORKLOAD_ACCESS_GENERATOR_H_
#define FGLB_WORKLOAD_ACCESS_GENERATOR_H_

#include <map>
#include <vector>

#include "common/random.h"
#include "storage/page.h"
#include "workload/query_class.h"

namespace fglb {

// Expands a query template into the concrete page-reference string one
// execution of it produces. Zipf samplers and rank scramblers are cached
// per (region size, theta): the same components recur millions of
// times, and their tables are shared by every generator in the process.
class AccessGenerator {
 public:
  AccessGenerator() = default;
  AccessGenerator(const AccessGenerator&) = delete;
  AccessGenerator& operator=(const AccessGenerator&) = delete;

  // Appends this execution's page accesses to `out` (not cleared).
  void Generate(const QueryTemplate& tmpl, Rng& rng,
                std::vector<PageAccess>* out);

 private:
  struct Sampler {
    ZipfGenerator zipf;
    DomainScrambler scramble;
  };

  const Sampler& SamplerFor(uint64_t n, double theta);

  void GeneratePointLookups(const AccessComponent& component, Rng& rng,
                            std::vector<PageAccess>* out);
  void GenerateSequentialScan(const AccessComponent& component, Rng& rng,
                              std::vector<PageAccess>* out);

  std::map<std::pair<uint64_t, double>, Sampler> samplers_;
};

}  // namespace fglb

#endif  // FGLB_WORKLOAD_ACCESS_GENERATOR_H_
