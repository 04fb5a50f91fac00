// The traced run's per-layer probes: one timed call into each rstlab
// layer on the running workload's own data, so every per-layer metric
// is measured on every workload.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "bench.h"
#include "extmem/storage.h"
#include "problems/instance.h"

namespace perfbench {

/// One value-list pair of the workload with its ground truth.
struct LabeledInstance {
  rstlab::problems::Instance instance;
  /// The sort-based decider question asked of it, and the answer.
  rstlab::problems::Problem problem = rstlab::problems::Problem::kMultisetEquality;
  bool verdict = false;
  /// Whether the two lists are equal as multisets (the fingerprint
  /// tester must then accept: its error is one-sided).
  bool multisets_equal = false;
};

/// The workload's data in the forms the layers take.
struct LayerInputs {
  /// Value-list pairs (sorting, fingerprint, parallel probes).
  std::vector<LabeledInstance> instances;
  /// Tape contents the workload loads, and the backend it loads them on
  /// (stmodel and extmem probes).
  std::vector<std::string> native_inputs;
  rstlab::extmem::StorageOptions native_storage;
  /// Query probe input: a Section 4 XML document (`query_xml`) or a
  /// Theorem 11 tuple stream of relations set1/set2, with the exact
  /// |set1 Δ set2| it must produce.
  std::string query_input;
  bool query_xml = false;
  rstlab::extmem::StorageOptions query_storage;
  std::size_t query_symdiff = 0;
  /// Trials of the Claim 1 estimator probe.
  std::size_t claim1_trials = 0;
  /// (m, n) shapes whose PrimePool the fingerprint layer builds.
  std::vector<std::pair<std::size_t, std::size_t>> prime_shapes;
};

/// The Theorem 11 stream of relations set1 = first list and
/// set2 = second list, and |set1 Δ set2| under set semantics.
std::string InstanceAsRelations(const rstlab::problems::Instance& instance,
                                std::size_t* symdiff);

/// Claim 1 probe trial count: a fixed budget of 2^21 value-trials
/// (m values per side), clamped to [64, 4096] and rounded to 8 lanes.
std::size_t Claim1ProbeTrials(std::size_t m);

/// Runs every probe, records the per-layer metrics on `run` and checks
/// each probe's output against the ground truth in `inputs`.
void RunLayerProbes(Run& run, const LayerInputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
