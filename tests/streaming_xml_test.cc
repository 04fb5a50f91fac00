// The upper-bound side of Theorems 12/13 on the streaming query engine:
// one forward pass spools a Section 4 document's set1/set2 values into
// lanes (RelationSpool::BuildFromXml), and the paper's two XML queries
// run as set-operation plans over them. The DOM evaluators are the
// oracles.

#include <gtest/gtest.h>

#include "problems/generators.h"
#include "problems/reference.h"
#include "query/engine/shared_scan.h"
#include "query/engine/spool.h"
#include "query/relalg.h"
#include "query/xml.h"
#include "query/xml_reduction.h"
#include "query/xquery.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "util/random.h"

namespace rstlab::query {
namespace {

std::string EncodeAsDocument(const problems::Instance& inst) {
  return SerializeXml(*EncodeSetInstanceAsXml(inst));
}

/// Figure 1's XPath query selects a node iff set1 − set2 is nonempty.
RelAlgExprPtr XPathPlan() { return Difference(Rel("set1"), Rel("set2")); }

/// The Theorem 12 XQuery query returns <true/> iff the symmetric
/// difference of set1 and set2 is empty.
RelAlgExprPtr XQueryPlan() {
  return SymmetricDifferenceQuery("set1", "set2");
}

/// Evaluates `plan` over `document` on the engine. `scans`, when set,
/// receives the whole scan bill: the shared parse plus the query.
Result<Relation> RunOnDocument(const std::string& document,
                               const RelAlgExprPtr& plan,
                               engine::SharedScanOptions options = {},
                               std::uint64_t* scans = nullptr) {
  options.xml = true;
  stmodel::StContext ctx(1);
  ctx.LoadInput(document);
  Result<std::vector<engine::QueryOutcome>> run =
      engine::ExecuteSharedScan(ctx, {{plan, ""}}, options);
  if (!run.ok()) return run.status();
  const engine::QueryOutcome& outcome = run.value()[0];
  if (!outcome.status.ok()) return outcome.status;
  if (scans != nullptr) {
    *scans = ctx.Report().scan_bound + outcome.cost.scan_bound;
  }
  return outcome.result;
}

bool XPathSelects(const std::string& document) {
  Result<Relation> out = RunOnDocument(document, XPathPlan());
  EXPECT_TRUE(out.ok()) << out.status();
  return out.ok() && !out.value().tuples.empty();
}

bool XQueryTrue(const std::string& document) {
  Result<Relation> out = RunOnDocument(document, XQueryPlan());
  EXPECT_TRUE(out.ok()) << out.status();
  return out.ok() && out.value().tuples.empty();
}

// ---------------------------------------------------------------------
// The shared first pass
// ---------------------------------------------------------------------

TEST(BuildFromXmlTest, SpoolsValuesInOrder) {
  problems::Instance inst;
  inst.first = {BitString::FromString("01"), BitString::FromString("10")};
  inst.second = {BitString::FromString("11")};
  stmodel::StContext ctx(1);
  ctx.LoadInput(EncodeAsDocument(inst));
  auto spool = engine::RelationSpool::BuildFromXml(ctx);
  ASSERT_TRUE(spool.ok()) << spool.status();
  EXPECT_EQ(spool.value()->names(),
            (std::vector<std::string>{"set1", "set2"}));

  engine::SpoolCursor x(spool.value()->lane("set1"));
  EXPECT_EQ(x.NextField(), "01");
  EXPECT_EQ(x.NextField(), "10");
  EXPECT_EQ(x.NextField(), std::nullopt);
  engine::SpoolCursor y(spool.value()->lane("set2"));
  EXPECT_EQ(y.NextField(), "11");
  EXPECT_EQ(y.NextField(), std::nullopt);
}

TEST(BuildFromXmlTest, SingleForwardScanOfTheDocument) {
  Rng rng(5);
  problems::Instance inst = problems::EqualSets(16, 8, rng);
  stmodel::StContext ctx(1);
  ctx.LoadInput(EncodeAsDocument(inst));
  ASSERT_TRUE(engine::RelationSpool::BuildFromXml(ctx).ok());
  EXPECT_EQ(ctx.tape(0).reversals(), 0u);  // one forward pass
}

TEST(BuildFromXmlTest, RejectsMalformedDocuments) {
  for (const char* document :
       {"<instance><set1><item><string>01</string>",
        "<instance>junk</instance>",
        "<instance><string>01</string></instance>"}) {
    stmodel::StContext ctx(1);
    ctx.LoadInput(document);
    EXPECT_FALSE(engine::RelationSpool::BuildFromXml(ctx).ok())
        << document;
  }
}

// ---------------------------------------------------------------------
// Engine verdicts vs the DOM evaluators
// ---------------------------------------------------------------------

class StreamingXmlAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingXmlAgreementTest, FilterAgreesWithDomEvaluator) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    problems::Instance inst =
        trial % 2 == 0 ? problems::EqualSets(8, 8, rng)
                       : problems::PerturbedMultisets(8, 8, 1, rng);
    EXPECT_EQ(XPathSelects(EncodeAsDocument(inst)),
              PaperXPathSelects(inst));
  }
}

TEST_P(StreamingXmlAgreementTest, XQueryAgreesWithDomEvaluator) {
  Rng rng(GetParam() + 500);
  for (int trial = 0; trial < 10; ++trial) {
    problems::Instance inst =
        trial % 2 == 0 ? problems::EqualSets(8, 8, rng)
                       : problems::PerturbedMultisets(8, 8, 1, rng);
    const bool streamed = XQueryTrue(EncodeAsDocument(inst));
    EXPECT_EQ(streamed, problems::RefSetEquality(inst));
    EXPECT_EQ(streamed, EvaluatePaperXQueryToString(
                            *EncodeSetInstanceAsXml(inst)) ==
                            "<result><true></true></result>");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingXmlAgreementTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(StreamingXmlTest, MultisetsWithEqualSetsAccepted) {
  // Set semantics: duplicates are invisible to the XQuery query.
  problems::Instance inst;
  inst.first = {BitString::FromString("01"), BitString::FromString("01"),
                BitString::FromString("10")};
  inst.second = {BitString::FromString("10"),
                 BitString::FromString("01"),
                 BitString::FromString("10")};
  EXPECT_TRUE(XQueryTrue(EncodeAsDocument(inst)));
}

TEST(StreamingXmlTest, ScanBoundGrowsLogarithmically) {
  // The upper-bound complement to Theorem 13's lower bound: with
  // external tapes, filtering takes Theta(log N) scans.
  // The Corollary 7 sort geometry: under the default run length every
  // sort here fits one formation run and the scan count is flat. The
  // engine copies its sort config at construction, so set it there.
  engine::SharedScanOptions options;
  options.config.sort = sorting::PaperSortConfig();
  Rng rng(11);
  std::vector<std::uint64_t> scans;
  for (std::size_t m : {32u, 128u, 512u}) {
    problems::Instance inst = problems::EqualSets(m, 12, rng);
    std::uint64_t bill = 0;
    ASSERT_TRUE(
        RunOnDocument(EncodeAsDocument(inst), XPathPlan(), options, &bill)
            .ok());
    scans.push_back(bill);
  }
  EXPECT_GE(scans[1] - scans[0], 1u);  // the sorts really merge
  EXPECT_EQ(scans[1] - scans[0], scans[2] - scans[1]);
  EXPECT_LE(scans[1] - scans[0], 60u);
}

TEST(StreamingXmlTest, EmptySetsAreEqualAndSubset) {
  const std::string empty = EncodeAsDocument(problems::Instance{});
  EXPECT_FALSE(XPathSelects(empty));  // nothing to select
  EXPECT_TRUE(XQueryTrue(empty));
}

// ---------------------------------------------------------------------
// The Section 4 encoding direction, on tapes
// ---------------------------------------------------------------------

class XmlEncoderOnTapesTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlEncoderOnTapesTest, MatchesHostEncoder) {
  Rng rng(GetParam());
  for (std::size_t m : {0u, 1u, 4u, 16u}) {
    problems::Instance inst = problems::EqualMultisets(m, 8, rng);
    stmodel::StContext ctx(2);
    ctx.LoadInput(inst.Encode());
    ASSERT_TRUE(EncodeInstanceAsXmlOnTapes(ctx).ok());
    const std::string expected = EncodeAsDocument(inst);
    EXPECT_EQ(ctx.tape(1).contents().substr(0, expected.size()),
              expected);
    // Constant scans (paper Section 4: "a constant number of
    // sequential scans ... and two external memory tapes").
    EXPECT_LE(ctx.Report().scan_bound, 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlEncoderOnTapesTest,
                         ::testing::Values(1, 2, 3));

TEST(XmlEncoderOnTapesTest, RoundTripsThroughTheStreamingFilter) {
  // instance -> XML (on tapes) -> XPath filter (on the engine): the
  // full streaming pipeline of Theorem 13's setup.
  Rng rng(5);
  problems::Instance inst = problems::PerturbedMultisets(8, 8, 1, rng);
  stmodel::StContext ectx(2);
  ectx.LoadInput(inst.Encode());
  ASSERT_TRUE(EncodeInstanceAsXmlOnTapes(ectx).ok());
  const std::string doc = ectx.tape(1).contents().substr(
      0, EncodeAsDocument(inst).size());
  EXPECT_EQ(XPathSelects(doc), PaperXPathSelects(inst));
}

}  // namespace
}  // namespace rstlab::query
