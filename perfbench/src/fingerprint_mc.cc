// fingerprint_mc: the randomized side of Theorem 8(a). The fingerprint
// kernels and the parallel trial runner do the work; the sort does none.
#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "bench.h"
#include "fingerprint/batch.h"
#include "fingerprint/fingerprint.h"
#include "parallel/trial_runner.h"
#include "probes.h"
#include "problems/generators.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr std::size_t kValues = 4096;
constexpr std::size_t kBits = 32;
constexpr std::size_t kLanes = 8;
constexpr std::size_t kClaim1Trials = 1024;

struct Inputs {
  rstlab::problems::Instance equal;
  rstlab::problems::Instance perturbed;
};

Inputs MakeInputs(std::uint64_t seed) {
  rstlab::Rng rng(seed);
  Inputs in;
  in.equal = rstlab::problems::EqualMultisets(kValues, kBits, rng);
  in.perturbed = rstlab::problems::PerturbedMultisets(kValues, kBits, 1, rng);
  return in;
}

/// Everything one job decided; identical across jobs of one run, since
/// every random choice derives from the seed.
struct JobOutcome {
  bool tape_equal = false;
  bool tape_perturbed = false;
  bool amplified_equal = false;
  bool amplified_perturbed = false;
  std::uint64_t claim1_collisions = 0;
  std::uint64_t claim1_trials = 0;
  bool operator==(const JobOutcome&) const = default;
};

}  // namespace

void RunFingerprintMc(Run& run) {
  namespace fp = rstlab::fingerprint;
  using rstlab::stmodel::StContext;
  const std::uint64_t seed = run.options().seed;
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  run.log() << "fingerprint_mc: m=" << kValues << " n=" << kBits
            << ", tape test + " << kLanes << "-lane amplified test + Claim 1 "
            << kClaim1Trials << " trials on " << threads << " threads\n";
  rstlab::parallel::TrialRunner runner(threads);
  JobOutcome first;
  bool have_first = false;

  TimedLoop(run, 3, [&](bool traced) {
    SpanRecorder* spans = traced ? run.spans() : nullptr;
    IterationTimes t;
    const auto setup_start = std::chrono::steady_clock::now();
    Inputs in;
    StContext equal_ctx(1);
    StContext perturbed_ctx(1);
    {
      SpanRecorder::Scope setup(spans, "setup");
      std::string equal;
      std::string perturbed;
      {
        SpanRecorder::Scope span(spans, "problems.generate");
        in = MakeInputs(seed);
        equal = in.equal.Encode();
        perturbed = in.perturbed.Encode();
      }
      SpanRecorder::Scope span(spans, "stmodel.load");
      equal_ctx.LoadInput(std::move(equal));
      perturbed_ctx.LoadInput(std::move(perturbed));
    }
    t.setup_s = Since(setup_start);

    JobOutcome out;
    bool ok = true;
    const auto job_start = std::chrono::steady_clock::now();
    {
      SpanRecorder::Scope job(spans, "job");
      rstlab::Rng rng(seed);
      {
        SpanRecorder::Scope span(spans, "fingerprint.tape_test");
        auto equal = fp::TestMultisetEqualityOnTapes(equal_ctx, rng);
        auto perturbed = fp::TestMultisetEqualityOnTapes(perturbed_ctx, rng);
        ok = ok && equal.ok() && perturbed.ok();
        out.tape_equal = equal.ok() && equal.value().accepted;
        out.tape_perturbed = perturbed.ok() && perturbed.value().accepted;
      }
      {
        SpanRecorder::Scope span(spans, "fingerprint.amplified");
        auto equal = fp::TestMultisetEqualityAmplified(in.equal, kLanes, rng);
        auto perturbed =
            fp::TestMultisetEqualityAmplified(in.perturbed, kLanes, rng);
        ok = ok && equal.ok() && perturbed.ok();
        out.amplified_equal = equal.ok() && equal.value().accepted;
        out.amplified_perturbed =
            perturbed.ok() && perturbed.value().accepted;
      }
      SpanRecorder::Scope span(spans, "parallel.claim1");
      const fp::Claim1Estimate claim1 = fp::EstimateClaim1CollisionRateBatched(
          in.perturbed, kClaim1Trials, seed, runner, kLanes);
      out.claim1_collisions = claim1.collisions;
      out.claim1_trials = claim1.trials;
    }
    t.job_s = Since(job_start);

    run.ledger().Check(ok, "a fingerprint call returned an error");
    // One-sided error: equal multisets are always accepted.
    run.ledger().Check(out.tape_equal, "tape tester rejected equal multisets");
    run.ledger().Check(out.amplified_equal,
                       "amplified tester rejected equal multisets");
    run.ledger().Check(out.claim1_trials == kClaim1Trials,
                       "Claim 1 estimator ran the wrong trial count");
    if (!have_first) {
      first = out;
      have_first = true;
      run.log() << "  perturbed pair: tape test "
                << (out.tape_perturbed ? "accepted" : "rejected")
                << ", amplified "
                << (out.amplified_perturbed ? "accepted" : "rejected")
                << "; Claim 1 collisions " << out.claim1_collisions << "/"
                << out.claim1_trials << "\n";
    }
    run.ledger().Check(out == first,
                       "fingerprint outcome is not a pure function of the seed");
    return t;
  });

  if (!run.options().trace) return;
  const Inputs in = MakeInputs(seed);
  using rstlab::problems::Problem;
  LayerInputs layers;
  layers.instances = {{in.equal, Problem::kMultisetEquality, true, true},
                      {in.perturbed, Problem::kMultisetEquality, false,
                       false}};
  layers.native_inputs = {in.equal.Encode(), in.perturbed.Encode()};
  layers.native_storage = rstlab::extmem::DefaultStorageOptions();
  layers.query_input =
      InstanceAsRelations(in.perturbed, &layers.query_symdiff);
  layers.query_storage = rstlab::extmem::DefaultStorageOptions();
  layers.claim1_trials = kClaim1Trials;
  layers.prime_shapes = {{kValues, kBits}};
  RunLayerProbes(run, layers);
}

}  // namespace perfbench
