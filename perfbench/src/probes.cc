#include "probes.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "fingerprint/batch.h"
#include "fingerprint/fingerprint.h"
#include "fingerprint/prime_pool.h"
#include "parallel/trial_runner.h"
#include "query/engine/shared_scan.h"
#include "query/engine/spool.h"
#include "query/relalg.h"
#include "sorting/deciders.h"
#include "sorting/parallel_sort.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using rstlab::problems::Instance;
using rstlab::stmodel::StContext;

constexpr std::size_t kLanes = 8;

std::uint64_t Fnv1a(std::uint64_t hash, char c) {
  return (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
}

bool FieldsSorted(const std::string& tape) {
  std::string previous;
  std::size_t start = 0;
  bool first = true;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    if (tape[i] == '_') break;
    if (tape[i] != '#') continue;
    std::string field = tape.substr(start, i - start);
    if (!first && field < previous) return false;
    previous = std::move(field);
    first = false;
    start = i + 1;
  }
  return true;
}

void ProbeLoadAndScan(Run& run, const LayerInputs& in) {
  double load = 0.0;
  double scan = 0.0;
  for (const std::string& input : in.native_inputs) {
    {
      StContext ctx(1, in.native_storage);
      std::string content = input;
      SpanRecorder::Scope span(run.spans(), "stmodel.load");
      const auto start = Clock::now();
      ctx.LoadInput(std::move(content));
      load += Since(start);
    }
    StContext ctx(1, run.FileStorage());
    ctx.LoadInput(input);
    rstlab::tape::Tape& tape = ctx.tape(0);
    tape.Seek(0);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::size_t cells = 0;
    {
      SpanRecorder::Scope span(run.spans(), "extmem.scan");
      const auto start = Clock::now();
      while (cells < input.size()) {
        hash = Fnv1a(hash, tape.Read());
        tape.MoveRight();
        ++cells;
      }
      scan += Since(start);
    }
    std::uint64_t expected = 0xcbf29ce484222325ULL;
    for (char c : input) expected = Fnv1a(expected, c);
    run.ledger().Check(hash == expected,
                       "extmem scan probe read back different cells");
  }
  run.Set("stmodel.load_s", load, "s");
  run.Set("extmem.scan_s", scan, "s");
}

void ProbeSorting(Run& run, const LayerInputs& in) {
  double sort_s = 0.0;
  double decide_s = 0.0;
  std::uint64_t passes = 0;
  std::uint64_t reversals = 0;
  std::uint64_t internal = 0;
  std::uint64_t ext_cells = 0;
  for (const LabeledInstance& li : in.instances) {
    const std::string encoded = li.instance.Encode();
    {
      StContext ctx(3);
      ctx.LoadInput(encoded);
      rstlab::sorting::SortStats stats;
      rstlab::Status status;
      {
        SpanRecorder::Scope span(run.spans(), "sorting.sort");
        const auto start = Clock::now();
        status = rstlab::sorting::SortForDecider(ctx, 0, 1, 2, &stats);
        sort_s += Since(start);
      }
      passes += stats.passes;
      run.ledger().Check(status.ok() && FieldsSorted(ctx.tape(0).contents()),
                         "sort probe: output not sorted");
    }
    StContext ctx(rstlab::sorting::kDeciderTapes);
    ctx.LoadInput(encoded);
    rstlab::Result<bool> verdict = false;
    {
      SpanRecorder::Scope span(run.spans(), "sorting.decide");
      const auto start = Clock::now();
      verdict = rstlab::sorting::DecideOnTapes(li.problem, ctx);
      decide_s += Since(start);
    }
    run.ledger().Check(verdict.ok() && verdict.value() == li.verdict,
                       "decide probe: wrong verdict");
    const rstlab::tape::ResourceReport report = ctx.Report();
    for (std::uint64_t r : report.reversals_per_tape) reversals += r;
    internal += report.internal_space;
    ext_cells += report.external_space;
  }
  run.Set("sorting.sort_s", sort_s, "s");
  run.Set("sorting.decide_s", decide_s, "s");
  run.Set("sorting.passes", static_cast<double>(passes), "count");
  run.Set("tape.reversals", static_cast<double>(reversals), "count");
  run.Set("tape.internal_bits", static_cast<double>(internal), "count");
  run.Set("tape.ext_cells", static_cast<double>(ext_cells), "count");
}

void ProbeQuery(Run& run, const LayerInputs& in) {
  namespace engine = rstlab::query::engine;
  double spool_s = 0.0;
  {
    StContext ctx(1, in.query_storage);
    ctx.LoadInput(in.query_input);
    SpanRecorder::Scope span(run.spans(), "query.spool");
    const auto start = Clock::now();
    auto spool = in.query_xml ? engine::RelationSpool::BuildFromXml(ctx)
                              : engine::RelationSpool::Build(ctx);
    spool_s = Since(start);
    run.ledger().Check(spool.ok(), "spool probe failed");
  }
  // The registry collects the block I/O of the input tape, the spool
  // lanes and every sort spill lane; file storages publish on
  // destruction, so it is read once the context and outcomes are gone.
  rstlab::obs::MetricsRegistry registry;
  rstlab::extmem::StorageOptions storage = in.query_storage;
  storage.metrics = &registry;
  double execute_s = 0.0;
  bool ok = false;
  engine::QueryCost cost;
  {
    StContext ctx(1, storage);
    ctx.LoadInput(in.query_input);
    engine::SharedScanOptions options;
    options.xml = in.query_xml;
    rstlab::Result<std::vector<engine::QueryOutcome>> outcomes =
        rstlab::Status::Internal("not run");
    {
      SpanRecorder::Scope span(run.spans(), "query.execute");
      const auto start = Clock::now();
      outcomes = engine::ExecuteSharedScan(
          ctx,
          {engine::QueryRequest{
              rstlab::query::SymmetricDifferenceQuery("set1", "set2"),
              "symdiff"}},
          options);
      execute_s = Since(start);
    }
    ok = outcomes.ok() && outcomes.value()[0].status.ok();
    run.ledger().Check(
        ok && outcomes.value()[0].result.tuples.size() == in.query_symdiff,
        "query probe: |set1 symdiff set2| differs from ground truth");
    if (ok) cost = outcomes.value()[0].cost;
  }
  run.Set("query.spool_s", spool_s, "s");
  run.Set("query.execute_s", execute_s, "s");
  run.Set("query.scan_bound", static_cast<double>(cost.scan_bound), "count");
  run.Set("query.internal_bits", static_cast<double>(cost.internal_bits),
          "count");
  run.Set("query.sorts", static_cast<double>(cost.sorts), "count");
  const auto counter = [&registry](const char* name) {
    return static_cast<double>(registry.counter(name));
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 1.0;
  };
  run.Set("extmem.block_reads", counter("extmem.block_reads"), "count");
  run.Set("extmem.block_writes", counter("extmem.block_writes"), "count");
  run.Set("extmem.cache_hit_ratio",
          ratio(counter("extmem.cache_hits"),
                counter("extmem.cache_hits") + counter("extmem.cache_misses")),
          "ratio");
  run.Set("extmem.readahead_hit_ratio",
          ratio(counter("extmem.readahead_hits"),
                counter("extmem.readahead_blocks")),
          "ratio");
  run.Set("extmem.prefetch_hit_ratio",
          ratio(counter("extmem.prefetch_hits"),
                counter("extmem.prefetch_issued")),
          "ratio");
}

void ProbeFingerprint(Run& run, const LayerInputs& in) {
  namespace fp = rstlab::fingerprint;
  double sample_s = 0.0;
  double evaluate_s = 0.0;
  double tape_s = 0.0;
  double lane_values = 0.0;
  for (const LabeledInstance& li : in.instances) {
    const Instance& instance = li.instance;
    rstlab::Rng rng(run.options().seed);
    rstlab::Result<fp::FingerprintParamBatch> batch =
        rstlab::Status::Internal("not run");
    {
      SpanRecorder::Scope span(run.spans(), "fingerprint.sample");
      const auto start = Clock::now();
      batch = fp::SampleFingerprintParamBatch(
          instance.m(), fp::MaxValueBits(instance), kLanes, rng);
      sample_s += Since(start);
    }
    if (!batch.ok()) {
      run.ledger().Check(false, "fingerprint sample probe failed");
      continue;
    }
    fp::BatchTally tally;
    {
      SpanRecorder::Scope span(run.spans(), "fingerprint.evaluate");
      const auto start = Clock::now();
      const fp::BatchFingerprintEngine engine(std::move(batch).value());
      tally = engine.Evaluate(instance);
      evaluate_s += Since(start);
    }
    lane_values += static_cast<double>(kLanes) *
                   static_cast<double>(instance.first.size() +
                                       instance.second.size());
    run.ledger().Check(!li.multisets_equal || tally.all_accepted(),
                       "batch fingerprint rejected equal multisets");
    StContext ctx(1);
    ctx.LoadInput(instance.Encode());
    rstlab::Result<fp::FingerprintOutcome> outcome =
        rstlab::Status::Internal("not run");
    {
      SpanRecorder::Scope span(run.spans(), "fingerprint.tape_test");
      const auto start = Clock::now();
      outcome = fp::TestMultisetEqualityOnTapes(ctx, rng);
      tape_s += Since(start);
    }
    run.ledger().Check(
        outcome.ok() && (!li.multisets_equal || outcome.value().accepted),
        "tape fingerprint rejected equal multisets");
  }
  double pool_s = 0.0;
  for (const auto& [m, n] : in.prime_shapes) {
    auto k = fp::ComputeFingerprintK(m, n);
    if (!k.ok()) {
      run.ledger().Check(false, "ComputeFingerprintK failed");
      continue;
    }
    SpanRecorder::Scope span(run.spans(), "fingerprint.prime_pool");
    const auto start = Clock::now();
    const fp::PrimePool pool(k.value());
    pool_s += Since(start);
    run.ledger().Check(pool.k() == k.value(), "PrimePool built for wrong k");
  }
  run.Set("fingerprint.sample_s", sample_s, "s");
  run.Set("fingerprint.evaluate_s", evaluate_s, "s");
  run.Set("fingerprint.tape_test_s", tape_s, "s");
  run.Set("fingerprint.prime_pool_s", pool_s, "s");
  run.Set("fingerprint.lane_values_per_s",
          evaluate_s > 0.0 ? lane_values / evaluate_s : 0.0, "1/s");
}

void ProbeParallel(Run& run, const LayerInputs& in) {
  namespace fp = rstlab::fingerprint;
  const Instance& instance = in.instances.back().instance;
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  double seconds[2] = {0.0, 0.0};
  fp::Claim1Estimate tally[2];
  const std::size_t thread_counts[2] = {threads, 1};
  for (int i = 0; i < 2; ++i) {
    rstlab::parallel::TrialRunner runner(thread_counts[i]);
    SpanRecorder::Scope span(run.spans(),
                             i == 0 ? "parallel.claim1" : "parallel.claim1_1t");
    const auto start = Clock::now();
    tally[i] = fp::EstimateClaim1CollisionRateBatched(
        instance, in.claim1_trials, run.options().seed, runner, kLanes);
    seconds[i] = Since(start);
  }
  run.ledger().Check(tally[0].trials == in.claim1_trials &&
                         tally[0].trials == tally[1].trials &&
                         tally[0].collisions == tally[1].collisions,
                     "Claim 1 tally depends on the thread count");
  run.Set("parallel.claim1_s", seconds[0], "s");
  run.Set("parallel.claim1_1t_s", seconds[1], "s");
  run.Set("parallel.speedup", seconds[0] > 0.0 ? seconds[1] / seconds[0] : 0.0,
          "x");
}

}  // namespace

std::string InstanceAsRelations(const Instance& instance,
                                std::size_t* symdiff) {
  std::map<std::string, rstlab::query::Relation> database;
  std::set<std::string> sides[2];
  const std::vector<rstlab::BitString>* lists[2] = {&instance.first,
                                                    &instance.second};
  for (int side = 0; side < 2; ++side) {
    rstlab::query::Relation& relation =
        database[side == 0 ? "set1" : "set2"];
    relation.name = side == 0 ? "set1" : "set2";
    relation.arity = 1;
    for (const rstlab::BitString& value : *lists[side]) {
      const std::string bits = value.ToString();
      relation.tuples.push_back({bits});
      sides[side].insert(bits);
    }
  }
  std::size_t common = 0;
  for (const std::string& v : sides[0]) common += sides[1].count(v);
  *symdiff = sides[0].size() + sides[1].size() - 2 * common;
  return rstlab::query::EncodeDatabaseStream(database);
}

std::size_t Claim1ProbeTrials(std::size_t m) {
  const std::size_t budget = std::size_t{1} << 21;
  std::size_t trials = budget / std::max<std::size_t>(1, m);
  trials = std::clamp<std::size_t>(trials, 64, 4096);
  return trials / kLanes * kLanes;
}

void RunLayerProbes(Run& run, const LayerInputs& inputs) {
  SpanRecorder::Scope root(run.spans(), "probes");
  ProbeLoadAndScan(run, inputs);
  ProbeSorting(run, inputs);
  ProbeQuery(run, inputs);
  ProbeFingerprint(run, inputs);
  ProbeParallel(run, inputs);
}

}  // namespace perfbench
