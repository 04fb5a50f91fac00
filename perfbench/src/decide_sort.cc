// decide_sort: the deterministic Θ(log N)-scan sort deciders on the mem
// backend. The sorting layer does nearly all the work; extmem none.
#include <string>
#include <utility>

#include "bench.h"
#include "probes.h"
#include "problems/generators.h"
#include "sorting/deciders.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr std::size_t kValues = std::size_t{1} << 15;
constexpr std::size_t kBits = 20;

struct Inputs {
  rstlab::problems::Instance sorted;     // CHECK-SORT, answer yes
  rstlab::problems::Instance perturbed;  // MULTISET-EQUALITY, answer no
};

Inputs MakeInputs(std::uint64_t seed) {
  rstlab::Rng rng(seed);
  Inputs in;
  in.sorted = rstlab::problems::SortedPair(kValues, kBits, rng);
  in.perturbed = rstlab::problems::PerturbedMultisets(kValues, kBits, 1, rng);
  return in;
}

}  // namespace

void RunDecideSort(Run& run) {
  using rstlab::problems::Problem;
  using rstlab::stmodel::StContext;
  const std::uint64_t seed = run.options().seed;
  run.log() << "decide_sort: m=" << kValues << " n=" << kBits
            << " on mem tapes, check-sort (yes) + multiset-equality (no)\n";
  rstlab::tape::ResourceReport first_bill[2];
  bool have_bill = false;

  TimedLoop(run, 3, [&](bool traced) {
    SpanRecorder* spans = traced ? run.spans() : nullptr;
    IterationTimes t;
    const auto setup_start = std::chrono::steady_clock::now();
    StContext sort_ctx(rstlab::sorting::kDeciderTapes);
    StContext eq_ctx(rstlab::sorting::kDeciderTapes);
    {
      SpanRecorder::Scope setup(spans, "setup");
      std::string sorted;
      std::string perturbed;
      {
        SpanRecorder::Scope span(spans, "problems.generate");
        const Inputs in = MakeInputs(seed);
        sorted = in.sorted.Encode();
        perturbed = in.perturbed.Encode();
      }
      SpanRecorder::Scope span(spans, "stmodel.load");
      sort_ctx.LoadInput(std::move(sorted));
      eq_ctx.LoadInput(std::move(perturbed));
    }
    t.setup_s = Since(setup_start);

    const auto job_start = std::chrono::steady_clock::now();
    rstlab::Result<bool> check_sort = false;
    rstlab::Result<bool> multiset_eq = true;
    {
      SpanRecorder::Scope job(spans, "job");
      {
        SpanRecorder::Scope span(spans, "sorting.decide");
        check_sort =
            rstlab::sorting::DecideOnTapes(Problem::kCheckSort, sort_ctx);
      }
      SpanRecorder::Scope span(spans, "sorting.decide");
      multiset_eq =
          rstlab::sorting::DecideOnTapes(Problem::kMultisetEquality, eq_ctx);
    }
    t.job_s = Since(job_start);

    run.ledger().Check(check_sort.ok() && check_sort.value(),
                       "check-sort said no on a sorted pair");
    run.ledger().Check(multiset_eq.ok() && !multiset_eq.value(),
                       "multiset-equality said yes on a perturbed pair");
    const rstlab::tape::ResourceReport bill[2] = {sort_ctx.Report(),
                                                  eq_ctx.Report()};
    if (!have_bill) {
      first_bill[0] = bill[0];
      first_bill[1] = bill[1];
      have_bill = true;
      run.log() << "  bill check-sort: " << bill[0].ToString()
                << "\n  bill multiset-equality: " << bill[1].ToString()
                << "\n";
    }
    for (int i = 0; i < 2; ++i) {
      run.ledger().Check(
          bill[i].scan_bound == first_bill[i].scan_bound &&
              bill[i].internal_space == first_bill[i].internal_space &&
              bill[i].external_space == first_bill[i].external_space,
          "decider (r, s) bill changed between identical runs");
    }
    return t;
  });

  if (!run.options().trace) return;
  const Inputs in = MakeInputs(seed);
  LayerInputs layers;
  layers.instances = {{in.sorted, Problem::kCheckSort, true, true},
                      {in.perturbed, Problem::kMultisetEquality, false,
                       false}};
  layers.native_inputs = {in.sorted.Encode(), in.perturbed.Encode()};
  layers.native_storage = rstlab::extmem::DefaultStorageOptions();
  layers.query_input =
      InstanceAsRelations(in.perturbed, &layers.query_symdiff);
  layers.query_storage = rstlab::extmem::DefaultStorageOptions();
  layers.claim1_trials = Claim1ProbeTrials(kValues);
  layers.prime_shapes = {{kValues, kBits}};
  RunLayerProbes(run, layers);
}

}  // namespace perfbench
