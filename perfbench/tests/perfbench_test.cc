// Tests of the benchmark's own logic: span self-time arithmetic,
// percentiles with their sample counts, failure accounting, and the
// seed's effect on generated inputs versus the ground-truth checks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "probes.h"
#include "problems/generators.h"
#include "problems/reference.h"
#include "query/engine/shared_scan.h"
#include "query/relalg.h"
#include "query/workload.h"
#include "span.h"
#include "stats.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace perfbench {
namespace {

SpanRecord Span(const char* name, double start, double end,
                std::int64_t parent) {
  SpanRecord s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildIntervals) {
  // job [0,10] has children [1,3] and [2,5] (overlapping: union [1,5])
  // and [8,12] (clipped to [8,10]); the grandchild [1,2] only reduces
  // its own parent.
  const std::vector<SpanRecord> spans = {
      Span("job", 0, 10, -1), Span("a", 1, 3, 0), Span("a", 2, 5, 0),
      Span("b", 8, 12, 0), Span("c", 1, 2, 1)};
  const auto table = SelfTimeTable(spans);
  EXPECT_DOUBLE_EQ(table.at("job").total, 10.0);
  EXPECT_DOUBLE_EQ(table.at("job").self, 10.0 - 4.0 - 2.0);
  EXPECT_EQ(table.at("a").count, 2u);
  EXPECT_DOUBLE_EQ(table.at("a").total, 5.0);
  EXPECT_DOUBLE_EQ(table.at("a").self, 4.0);
  EXPECT_DOUBLE_EQ(table.at("b").self, 4.0);
  EXPECT_DOUBLE_EQ(table.at("c").self, 1.0);
}

TEST(SelfTime, RecorderNestsSpansAndTagsTheRun) {
  SpanRecorder recorder(42);
  {
    SpanRecorder::Scope outer(&recorder, "outer");
    SpanRecorder::Scope inner(&recorder, "inner");
  }
  SpanRecorder::Scope ignored(nullptr, "untraced");
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[0].parent, -1);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[1].run_id, 42u);
  EXPECT_LE(recorder.spans()[1].end, recorder.spans()[0].end);
  const auto table = SelfTimeTable(recorder.spans());
  EXPECT_GE(table.at("outer").self, 0.0);
  EXPECT_LE(table.at("outer").self, table.at("outer").total);
}

TEST(Percentile, NearestRankReportsSamplesBeyond) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  const Percentile p99 = NearestRank(values, 99.0);
  EXPECT_DOUBLE_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  const Percentile p50 = NearestRank({5.0, 1.0, 3.0}, 50.0);
  EXPECT_DOUBLE_EQ(p50.value, 3.0);
  EXPECT_EQ(p50.beyond, 1u);
  // Too few samples: p99 of ten samples is the maximum, nothing beyond.
  const Percentile small = NearestRank({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99.0);
  EXPECT_DOUBLE_EQ(small.value, 10.0);
  EXPECT_EQ(small.beyond, 0u);
  EXPECT_EQ(NearestRank({}, 99.0).samples, 0u);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(FailureLedger, CountsEveryAttemptAndFailure) {
  FailureLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.ratio(), 0.0);
  ledger.Check(true, "unused");
  ledger.Check(false, "wrong verdict");
  ledger.Record(8, 1, "bad frame");
  ledger.Record(10, 0, "unused");
  EXPECT_EQ(ledger.attempted(), 20u);
  EXPECT_EQ(ledger.failed(), 2u);
  EXPECT_DOUBLE_EQ(ledger.ratio(), 0.1);
  ASSERT_EQ(ledger.messages().size(), 2u);
  EXPECT_EQ(ledger.messages()[0], "wrong verdict");
  EXPECT_EQ(ledger.messages()[1], "bad frame");
}

TEST(Seed, ChangesInputsButNotTheGroundTruth) {
  // The decider inputs differ between seeds, and the generator's answer
  // (sorted pair: yes; perturbed pair: no) holds for both.
  std::string encodings[2];
  for (int i = 0; i < 2; ++i) {
    rstlab::Rng rng(i + 1);
    const auto sorted = rstlab::problems::SortedPair(256, 20, rng);
    const auto perturbed = rstlab::problems::PerturbedMultisets(256, 20, 1, rng);
    encodings[i] = sorted.Encode();
    EXPECT_TRUE(rstlab::problems::RefDecide(
        rstlab::problems::Problem::kCheckSort, sorted));
    EXPECT_FALSE(rstlab::problems::RefDecide(
        rstlab::problems::Problem::kMultisetEquality, perturbed));
  }
  EXPECT_NE(encodings[0], encodings[1]);

  // The query workload: different documents, and the engine's exact
  // symmetric difference equals the generator's count for both seeds.
  std::string documents[2];
  for (int i = 0; i < 2; ++i) {
    rstlab::query::XmlWorkloadSpec spec;
    spec.seed = i + 1;
    spec.set1_values = spec.set2_values = 64;
    spec.value_len = 40;
    spec.perturbations = 16;
    const auto workload = rstlab::query::MakeXmlWorkload(spec);
    documents[i] = workload.document;
    rstlab::stmodel::StContext ctx(1);
    ctx.LoadInput(workload.document);
    rstlab::query::engine::SharedScanOptions options;
    options.xml = true;
    auto outcomes = rstlab::query::engine::ExecuteSharedScan(
        ctx,
        {{rstlab::query::SymmetricDifferenceQuery("set1", "set2"), "q"}},
        options);
    ASSERT_TRUE(outcomes.ok());
    ASSERT_TRUE(outcomes.value()[0].status.ok());
    EXPECT_EQ(outcomes.value()[0].result.tuples.size(),
              workload.symmetric_difference);
  }
  EXPECT_NE(documents[0], documents[1]);
}

TEST(Probes, RelationFormKeepsTheSymmetricDifference) {
  rstlab::Rng rng(7);
  const auto perturbed = rstlab::problems::PerturbedMultisets(64, 12, 3, rng);
  std::size_t symdiff = 0;
  const std::string stream = InstanceAsRelations(perturbed, &symdiff);
  EXPECT_GT(symdiff, 0u);
  rstlab::Rng rng2(7);
  const auto equal = rstlab::problems::EqualMultisets(64, 12, rng2);
  std::size_t none = 1;
  InstanceAsRelations(equal, &none);
  EXPECT_EQ(none, 0u);
  EXPECT_NE(stream.find("set1,"), std::string::npos);
  EXPECT_EQ(Claim1ProbeTrials(512), 4096u);
  EXPECT_EQ(Claim1ProbeTrials(4096), 512u);
  EXPECT_EQ(Claim1ProbeTrials(1 << 16), 64u);
  EXPECT_EQ(Claim1ProbeTrials(8), 4096u);
}

}  // namespace
}  // namespace perfbench
