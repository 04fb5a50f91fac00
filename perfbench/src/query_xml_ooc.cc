// query_xml_ooc: one shared-scan symmetric difference over a Section 4
// XML document on the file backend, with the default per-tape cache far
// smaller than the input. extmem and the query engine dominate.
#include <string>

#include "bench.h"
#include "probes.h"
#include "query/engine/shared_scan.h"
#include "query/relalg.h"
#include "fingerprint/fingerprint.h"
#include "query/workload.h"
#include "stmodel/st_context.h"

namespace perfbench {
namespace {

rstlab::query::XmlWorkloadSpec Spec(std::uint64_t seed) {
  rstlab::query::XmlWorkloadSpec spec;
  spec.seed = seed;
  spec.set1_values = 16384;
  spec.set2_values = 16384;
  spec.value_len = 40;
  spec.perturbations = 16;
  return spec;
}

/// The set1 and set2 values of a generated document as a value-list
/// pair ("<string>" elements only occur as set values in these
/// documents).
rstlab::problems::Instance SetValues(const std::string& document) {
  std::string encoded;
  const std::string open = "<string>";
  const std::string close = "</string>";
  for (std::size_t at = document.find(open); at != std::string::npos;
       at = document.find(open, at)) {
    at += open.size();
    const std::size_t end = document.find(close, at);
    encoded += document.substr(at, end - at);
    encoded += '#';
  }
  auto parsed = rstlab::problems::Instance::Parse(encoded);
  return parsed.ok() ? parsed.value() : rstlab::problems::Instance{};
}

}  // namespace

void RunQueryXmlOoc(Run& run) {
  namespace engine = rstlab::query::engine;
  using rstlab::stmodel::StContext;
  const rstlab::query::XmlWorkloadSpec spec = Spec(run.options().seed);
  const rstlab::extmem::StorageOptions storage = run.FileStorage();
  run.log() << "query_xml_ooc: " << spec.set1_values << " values per side, "
            << spec.value_len << " bits, file backend cache "
            << storage.cache_blocks << "x" << storage.block_size
            << " cells per tape\n";
  std::size_t document_cells = 0;
  std::uint64_t first_scan_bound = 0;

  TimedLoop(run, 2, [&](bool traced) {
    SpanRecorder* spans = traced ? run.spans() : nullptr;
    IterationTimes t;
    const auto setup_start = std::chrono::steady_clock::now();
    rstlab::query::XmlWorkload workload;
    StContext ctx(1, storage);
    {
      SpanRecorder::Scope setup(spans, "setup");
      {
        SpanRecorder::Scope span(spans, "query.generate");
        workload = rstlab::query::MakeXmlWorkload(spec);
      }
      SpanRecorder::Scope span(spans, "stmodel.load");
      ctx.LoadInput(workload.document);
    }
    t.setup_s = Since(setup_start);
    document_cells = workload.document.size();

    engine::SharedScanOptions options;
    options.xml = true;
    const auto job_start = std::chrono::steady_clock::now();
    rstlab::Result<std::vector<engine::QueryOutcome>> outcomes =
        rstlab::Status::Internal("not run");
    {
      SpanRecorder::Scope job(spans, "job");
      SpanRecorder::Scope span(spans, "query.execute");
      outcomes = engine::ExecuteSharedScan(
          ctx,
          {engine::QueryRequest{
              rstlab::query::SymmetricDifferenceQuery("set1", "set2"),
              "symdiff"}},
          options);
    }
    t.job_s = Since(job_start);

    const rstlab::Status status =
        outcomes.ok() ? outcomes.value()[0].status : outcomes.status();
    run.ledger().Check(status.ok(), "shared scan failed: " + status.ToString());
    if (status.ok()) {
      const engine::QueryOutcome& outcome = outcomes.value()[0];
      run.ledger().Check(
          outcome.result.tuples.size() == workload.symmetric_difference,
          "|set1 symdiff set2| differs from ground truth");
      if (first_scan_bound == 0) {
        first_scan_bound = outcome.cost.scan_bound;
        run.log() << "  N=" << document_cells
                  << " bill: " << outcome.cost.ToString() << "\n";
      }
      run.ledger().Check(outcome.cost.scan_bound == first_scan_bound,
                         "query scan bound changed between identical runs");
    }
    return t;
  });

  if (!run.options().trace) return;
  const rstlab::query::XmlWorkload workload =
      rstlab::query::MakeXmlWorkload(spec);
  LabeledInstance values;
  values.instance = SetValues(workload.document);
  values.problem = rstlab::problems::Problem::kSetEquality;
  values.verdict = workload.sets_equal;
  values.multisets_equal = workload.sets_equal;
  run.ledger().Check(values.instance.m() == spec.set1_values,
                     "could not read the set values back from the document");
  LayerInputs layers;
  layers.instances = {values};
  layers.native_inputs = {workload.document};
  layers.native_storage = storage;
  layers.query_input = workload.document;
  layers.query_xml = true;
  layers.query_storage = storage;
  layers.query_symdiff = workload.symmetric_difference;
  layers.claim1_trials = Claim1ProbeTrials(values.instance.m());
  layers.prime_shapes = {
      {values.instance.m(), rstlab::fingerprint::MaxValueBits(values.instance)}};
  RunLayerProbes(run, layers);
}

}  // namespace perfbench
