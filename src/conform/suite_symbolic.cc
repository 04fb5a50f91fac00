// The symbolic-certificate oracle (check-symbolic): `check::Analyze`
// now returns N-parametric `BoundExpr` envelopes, so the RST015
// contract is checkable at *every* input size, not just one. Each case
// seeds an instance at a swept size N (powers of two with jitter),
// runs either a registry machine or the parallel k-way sort, and
// asserts
//
//   1. the measured (r, s) bill stays inside the symbolic envelope
//      evaluated at the run's own N, and
//   2. `BoundExpr::Eval` is monotone in N across the full static sweep
//      2^8 .. 2^24 (no saturation artifact may ever make a larger
//      input look cheaper).
//
// The self-test fault adds a phantom bill one past the envelope — the
// exact violation the symbolic certificate must catch.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/analyzer.h"
#include "check/registry.h"
#include "check/sort_certificate.h"
#include "conform/case_id.h"
#include "conform/shrink.h"
#include "conform/suites.h"
#include "machine/turing_machine.h"
#include "sorting/parallel_sort.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "tape/resource_meter.h"
#include "util/random.h"

namespace rstlab::conform {

namespace {

constexpr std::size_t kMaxSteps = 500000;

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string out;
  for (const auto& f : fields) {
    out += f;
    out += '#';
  }
  return out;
}

/// One check-symbolic case: a registry machine replay (no sort_fanout)
/// or a k-way sort run (sort_fanout set), on seeded fields whose
/// joined size is the swept N.
struct SymbolicCase {
  std::string machine_name;  // registry name, or "kway-sort"
  std::vector<std::string> fields;
  std::uint64_t run_seed = 0;
  std::optional<std::size_t> sort_fanout;
  std::size_t sort_run_length = 1;
};

std::string RenderSymbolicCase(const SymbolicCase& c) {
  return c.machine_name + " N=" + std::to_string(JoinFields(c.fields).size()) +
         " fields=" + std::to_string(c.fields.size()) +
         " run_seed=" + std::to_string(c.run_seed) +
         (c.sort_fanout.has_value()
              ? " fanout=" + std::to_string(*c.sort_fanout) +
                    " run_length=" + std::to_string(c.sort_run_length)
              : "");
}

/// "" when Eval is monotone across the static sweep 2^8 .. 2^24.
std::string CheckEvalMonotone(const check::BoundExpr& bound,
                              const char* what) {
  std::uint64_t prev = 0;
  for (std::size_t n = std::size_t{1} << 8; n <= (std::size_t{1} << 24);
       n <<= 1) {
    const std::uint64_t at_n = bound.Eval(n);
    if (at_n < prev) {
      return std::string(what) + " bound " + bound.ToString() +
             " is not monotone: Eval(" + std::to_string(n >> 1) + ")=" +
             std::to_string(prev) + " > Eval(" + std::to_string(n) + ")=" +
             std::to_string(at_n);
    }
    prev = at_n;
  }
  return "";
}

/// "" when the measured machine bill stays inside the symbolic
/// envelope at the case's own N.
std::string CheckMachineCase(const SymbolicCase& c) {
  // Keep the registry vector alive for the whole case — the factory
  // returns it by value.
  const std::vector<check::CheckedMachine> machines =
      check::AllCheckedMachines();
  const check::CheckedMachine* entry = nullptr;
  for (const check::CheckedMachine& m : machines) {
    if (m.name == c.machine_name) entry = &m;
  }
  if (entry == nullptr) {
    return "machine \"" + c.machine_name + "\" missing from registry";
  }
  const check::Analysis analysis = check::Analyze(entry->spec,
                                                  entry->options);
  for (const check::BoundExpr& b : analysis.resources.external_reversals) {
    const std::string bad = CheckEvalMonotone(b, "reversal");
    if (!bad.empty()) return bad;
  }
  const std::string bad = CheckEvalMonotone(
      analysis.resources.total_internal_cells, "internal-space");
  if (!bad.empty()) return bad;

  Result<machine::TuringMachine> tm =
      machine::TuringMachine::Create(entry->spec);
  if (!tm.ok()) {
    return "executor rejects spec: " + tm.status().ToString();
  }
  const std::string input = JoinFields(c.fields);
  Rng rng(c.run_seed);
  machine::RunResult run = tm.value().RunRandomized(input, rng, kMaxSteps);
  // Self-test fault: bill one phantom reversal past the per-tape
  // envelope — the violation the symbolic RST015 check must flag.
  if (FaultInjectionEnabled() && !run.costs.external_reversals.empty() &&
      !analysis.resources.external_reversals.empty() &&
      !analysis.resources.external_reversals[0].unbounded()) {
    run.costs.external_reversals[0] =
        check::SatAdd(
            analysis.resources.external_reversals[0].Eval(input.size()), 1);
  }
  const Status certified = check::CheckCostsAgainstCertificate(
      run.costs, analysis.resources, input.size());
  if (!certified.ok()) return certified.ToString();
  return "";
}

/// "" when the measured sort bill stays inside the symbolic k-way
/// certificate at the case's own N.
std::string CheckSortCase(const SymbolicCase& c) {
  sorting::SortConfig config;
  config.fanout = *c.sort_fanout;
  config.run_length = c.sort_run_length;
  config.threads = 1;
  stmodel::StContext ctx(1);
  ctx.LoadInput(JoinFields(c.fields));
  sorting::SortStats stats;
  const Status sorted =
      sorting::ParallelSortFieldsOnTape(ctx, 0, config, &stats);
  if (!sorted.ok()) return "sort failed: " + sorted.ToString();

  const check::SymbolicSortCertificate cert =
      check::CertifyKWaySortSymbolic(stats.max_field_len, config.fanout,
                                     config.run_length);
  std::string bad = CheckEvalMonotone(cert.scan_bound, "sort scan");
  if (bad.empty()) {
    bad = CheckEvalMonotone(cert.internal_bits, "sort bits");
  }
  if (!bad.empty()) return bad;

  tape::ResourceReport report = ctx.Report();
  // Self-test fault: one phantom scan past the symbolic envelope.
  if (FaultInjectionEnabled()) {
    report.scan_bound =
        check::SatAdd(cert.scan_bound.Eval(ctx.input_size()), 1);
  }
  const Status certified = check::CheckSortCostsAgainstSymbolicCertificate(
      report, cert, ctx.input_size());
  if (!certified.ok()) return certified.ToString();
  return "";
}

std::string CheckSymbolicCase(const SymbolicCase& c) {
  return c.sort_fanout.has_value() ? CheckSortCase(c) : CheckMachineCase(c);
}

class SymbolicCheckSuite final : public Suite {
 public:
  const char* name() const override { return "check-symbolic"; }
  const char* description() const override {
    return "symbolic BoundExpr certificate dominates measured (r, s) at "
           "the run's own N, and Eval is monotone over the N sweep";
  }

  CaseOutcome RunCase(std::uint64_t seed,
                      std::uint64_t index) const override {
    Rng rng(CaseRngSeed(CaseId{name(), seed, index}));
    SymbolicCase c;
    c.run_seed = rng.Next64();

    // The swept instance size: powers of two 2^4 .. 2^11 with jitter,
    // so case sizes cover three decades while one case still runs in
    // milliseconds. (The static 2^8 .. 2^24 sweep needs no run and is
    // asserted in every case.)
    const std::size_t target =
        (std::size_t{1} << (4 + rng.UniformBelow(8))) + rng.UniformBelow(9);

    if (rng.Bernoulli(0.3)) {
      // Sort flavor: many short fields filling ~target cells.
      c.machine_name = "kway-sort";
      c.sort_fanout = 2 + rng.UniformBelow(15);
      c.sort_run_length = std::size_t{1} << rng.UniformBelow(4);
      std::size_t cells = 0;
      while (cells + 1 < target) {
        const std::size_t len =
            std::min<std::size_t>(1 + rng.UniformBelow(8),
                                  target - cells - 1);
        c.fields.push_back(RandomField(rng, len));
        cells += len + 1;
      }
      if (c.fields.empty()) c.fields.push_back("0");
    } else {
      // Machine flavor: a registry machine on fields sized to target.
      const std::vector<check::CheckedMachine> machines =
          check::AllCheckedMachines();
      const check::CheckedMachine& entry =
          machines[rng.UniformBelow(machines.size())];
      c.machine_name = entry.name;
      // Two equal-length fields for the two-tape comparators, one
      // otherwise; every registry alphabet covers {0, 1, #}.
      const std::size_t num_fields =
          entry.spec.num_external_tapes >= 2 ? 2 : 1;
      const std::size_t len =
          std::max<std::size_t>(1, target / num_fields - 1);
      for (std::size_t f = 0; f < num_fields; ++f) {
        c.fields.push_back(RandomField(rng, len));
      }
      if (num_fields == 2 && rng.Bernoulli(0.5)) {
        c.fields[1] = c.fields[0];
      }
    }

    CaseOutcome outcome;
    std::string failure = CheckSymbolicCase(c);
    if (failure.empty()) return outcome;

    const std::function<bool(const SymbolicCase&)> still_fails =
        [](const SymbolicCase& candidate) {
          return !CheckSymbolicCase(candidate).empty();
        };
    const std::function<std::vector<SymbolicCase>(const SymbolicCase&)>
        candidates = [](const SymbolicCase& current) {
          std::vector<SymbolicCase> out;
          // Halve the field list, then halve each field — the failing N
          // shrinks geometrically while staying a valid instance.
          if (current.fields.size() > 1) {
            SymbolicCase fewer = current;
            fewer.fields.resize(current.fields.size() / 2);
            out.push_back(std::move(fewer));
          }
          for (std::size_t f = 0; f < current.fields.size(); ++f) {
            if (current.fields[f].size() <= 1) continue;
            SymbolicCase shorter = current;
            shorter.fields[f].resize(current.fields[f].size() / 2);
            out.push_back(std::move(shorter));
          }
          return out;
        };
    ShrinkStats stats;
    const SymbolicCase shrunk = GreedyShrink(
        std::move(c), still_fails, candidates, /*max_attempts=*/300,
        &stats);

    outcome.passed = false;
    outcome.failure = CheckSymbolicCase(shrunk);
    outcome.counterexample = RenderSymbolicCase(shrunk);
    outcome.shrink_attempts = stats.attempts;
    return outcome;
  }

 private:
  static std::string RandomField(Rng& rng, std::size_t length) {
    std::string field;
    for (std::size_t i = 0; i < length; ++i) {
      field.push_back(rng.Bernoulli(0.5) ? '1' : '0');
    }
    return field;
  }
};

}  // namespace

std::unique_ptr<Suite> MakeSymbolicCheckSuite() {
  return std::make_unique<SymbolicCheckSuite>();
}

}  // namespace rstlab::conform
