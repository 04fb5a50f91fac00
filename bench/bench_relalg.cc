// Experiments E10/E11 (Theorem 11): streaming relational algebra on
// the query engine (engine::ExecuteSharedScan), checked against the
// in-memory evaluator. Exits 1 if any result disagrees.
//
// Paper rows reproduced:
//  * (a) every relational algebra query evaluates with a
//    query-dependent constant number of sorts and scans — measured
//    scans fit c_Q * log2(N) with R^2 ~ 1;
//  * (b) the symmetric-difference query (R1 - R2) U (R2 - R1) has an
//    empty result exactly on SET-EQUALITY "yes" instances, transferring
//    the Theorem 6 lower bound to query evaluation.

#include <chrono>
#include <iostream>
#include <map>

#include <benchmark/benchmark.h>

#include "core/experiment.h"
#include "extmem/storage.h"
#include "obs/flags.h"
#include "parallel/bench_recorder.h"
#include "problems/generators.h"
#include "problems/reference.h"
#include "query/engine/shared_scan.h"
#include "query/relalg.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "util/bitstring.h"
#include "util/random.h"

namespace {

using rstlab::BitString;
using rstlab::Rng;
using rstlab::core::FitLog2;
using rstlab::core::FormatDouble;
using rstlab::core::Table;
using rstlab::parallel::BenchRecorder;
using rstlab::parallel::Checksum64;
using namespace rstlab::query;
using rstlab::query::engine::ExecuteSharedScan;
using rstlab::query::engine::QueryOutcome;
using rstlab::query::engine::SharedScanOptions;

std::map<std::string, Relation> MakeDatabase(Rng& rng, std::size_t size) {
  std::map<std::string, Relation> db;
  for (const char* name : {"R1", "R2"}) {
    Relation r;
    r.name = name;
    r.arity = 1;
    for (std::size_t i = 0; i < size; ++i) {
      r.Insert({BitString::Random(24, rng).ToString()});
    }
    db[name] = r;
  }
  return db;
}

/// One streaming evaluation and its whole (r, s) bill: the shared
/// input pass on the caller's context plus the query's own passes.
struct Streamed {
  bool ok = false;
  Relation result;
  std::size_t n = 0;
  std::uint64_t scans = 0;
  std::size_t internal_bits = 0;
};

/// Evaluates `query` over `stream` on the engine at the Corollary 7
/// sort geometry (DESIGN.md §8): at the default run length every
/// m <= 1024 sorts in one formation run and the scan counts would be
/// flat.
Streamed EvaluateStreaming(const RelAlgExprPtr& query,
                           const std::string& stream) {
  rstlab::stmodel::StContext ctx(1);
  ctx.LoadInput(stream);
  SharedScanOptions options;
  options.config.sort = rstlab::sorting::PaperSortConfig();
  auto run = ExecuteSharedScan(ctx, {{query, ""}}, options);
  Streamed out;
  out.n = ctx.input_size();
  if (!run.ok() || !run.value()[0].status.ok()) return out;
  const QueryOutcome& outcome = run.value()[0];
  const auto report = ctx.Report();
  out.ok = true;
  out.result = outcome.result;
  out.scans = report.scan_bound + outcome.cost.scan_bound;
  out.internal_bits = report.internal_space + outcome.cost.internal_bits;
  return out;
}

double Seconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool RunScalingTable(BenchRecorder& recorder) {
  bool all_agree = true;
  struct NamedQuery {
    const char* name;
    RelAlgExprPtr query;
  };
  const std::vector<NamedQuery> queries = {
      {"R1 - R2", Difference(Rel("R1"), Rel("R2"))},
      {"symdiff", SymmetricDifferenceQuery()},
      {"project+union", Project(Union(Rel("R1"), Rel("R2")), {0})},
  };
  for (const auto& nq : queries) {
    Table table(std::string("E10: streaming evaluation of ") + nq.name,
                {"tuples", "N", "scans", "int.bits", "agrees"});
    Rng rng(4711);
    std::vector<double> ns;
    std::vector<double> scans;
    std::uint64_t checksum = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t size : {32u, 64u, 128u, 256u, 512u, 1024u}) {
      std::map<std::string, Relation> db = MakeDatabase(rng, size);
      const Streamed streamed =
          EvaluateStreaming(nq.query, EncodeDatabaseStream(db));
      auto reference = EvaluateInMemory(nq.query, db);
      const bool agrees = streamed.ok && reference.ok() &&
                          streamed.result == reference.value();
      all_agree = all_agree && agrees;
      table.AddRow({std::to_string(size), std::to_string(streamed.n),
                    std::to_string(streamed.scans),
                    std::to_string(streamed.internal_bits),
                    agrees ? "yes" : "NO"});
      ns.push_back(static_cast<double>(streamed.n));
      scans.push_back(static_cast<double>(streamed.scans));
      checksum = Checksum64({checksum, streamed.n, streamed.scans,
                             streamed.internal_bits, agrees});
    }
    recorder.Record(std::string("E10.") + nq.name, ns.size(),
                    Seconds(start), checksum);
    table.Print(std::cout);
    const auto fit = FitLog2(ns, scans);
    std::cout << "  fit: scans = " << FormatDouble(fit.slope)
              << " * log2(N) + " << FormatDouble(fit.intercept)
              << "  (R^2 = " << FormatDouble(fit.r_squared)
              << "; paper Theorem 11(a): ST(O(log N), O(1), O(1)))\n\n";
  }
  return all_agree;
}

bool RunQueryComplexityTable(BenchRecorder& recorder) {
  // Theorem 11(a)'s c_Q made visible: deepen the query (chained unions
  // and differences) and fit scans ~ slope * log2(N) per depth. The
  // slope grows with the operator count and is independent of N — the
  // "constant number of sorts and scans per query" structure.
  Table table("E10b: the query-dependent constant c_Q",
              {"query depth (ops)", "slope (scans per log2 N)", "R^2"});
  bool all_ran = true;
  for (int depth : {1, 2, 4, 8}) {
    Rng rng(4711);
    std::vector<double> ns;
    std::vector<double> scans;
    std::uint64_t checksum = 0;
    const auto start = std::chrono::steady_clock::now();
    // Build a depth-op chain: ((R1 - R2) u (R2 - R1)) u ... alternating.
    RelAlgExprPtr query = Difference(Rel("R1"), Rel("R2"));
    for (int d = 1; d < depth; ++d) {
      query = d % 2 == 1 ? Union(query, Difference(Rel("R2"), Rel("R1")))
                         : Difference(query, Rel("R2"));
    }
    for (std::size_t size : {64u, 256u, 1024u}) {
      std::map<std::string, Relation> db = MakeDatabase(rng, size);
      const Streamed streamed =
          EvaluateStreaming(query, EncodeDatabaseStream(db));
      if (!streamed.ok) {
        all_ran = false;
        continue;
      }
      ns.push_back(static_cast<double>(streamed.n));
      scans.push_back(static_cast<double>(streamed.scans));
      checksum = Checksum64({checksum, streamed.n, streamed.scans});
    }
    recorder.Record("E10b.depth=" + std::to_string(depth), ns.size(),
                    Seconds(start), checksum);
    if (ns.size() < 2) continue;
    const auto fit = FitLog2(ns, scans);
    table.AddRow({std::to_string(depth), FormatDouble(fit.slope, 1),
                  FormatDouble(fit.r_squared)});
  }
  table.Print(std::cout);
  std::cout << "  slope grows with the number of sort-requiring"
               " operators and not with N: c_Q is a property of the"
               " query alone (Theorem 11(a))\n\n";
  return all_ran;
}

bool RunReductionTable(BenchRecorder& recorder) {
  Table table(
      "E11: Theorem 11(b) — symdiff query decides SET-EQUALITY",
      {"m", "instances", "correct_decisions"});
  Rng rng(2026);
  bool all_correct = true;
  for (std::size_t m : {8u, 32u, 128u}) {
    int correct = 0;
    const int trials = 20;
    const auto start = std::chrono::steady_clock::now();
    for (int t = 0; t < trials; ++t) {
      rstlab::problems::Instance inst =
          t % 2 == 0 ? rstlab::problems::EqualSets(m, 16, rng)
                     : rstlab::problems::PerturbedMultisets(m, 16, 1, rng);
      std::map<std::string, Relation> db;
      db["R1"].name = "R1";
      db["R2"].name = "R2";
      for (const auto& v : inst.first) db["R1"].Insert({v.ToString()});
      for (const auto& v : inst.second) db["R2"].Insert({v.ToString()});
      const Streamed out = EvaluateStreaming(SymmetricDifferenceQuery(),
                                             EncodeDatabaseStream(db));
      if (!out.ok) continue;
      correct += out.result.tuples.empty() ==
                 rstlab::problems::RefSetEquality(inst);
    }
    all_correct = all_correct && correct == trials;
    recorder.Record("E11.m=" + std::to_string(m), trials, Seconds(start),
                    Checksum64({static_cast<std::uint64_t>(correct)}));
    table.AddRow({std::to_string(m), std::to_string(trials),
                  std::to_string(correct) + "/" + std::to_string(trials)});
  }
  table.Print(std::cout);
  std::cout << "  paper: Q' result empty iff R1 = R2, so evaluating Q'"
               " inherits the Omega(log N) random-access lower bound\n\n";
  return all_correct;
}

void BM_SymmetricDifference(benchmark::State& state) {
  Rng rng(8);
  std::map<std::string, Relation> db =
      MakeDatabase(rng, static_cast<std::size_t>(state.range(0)));
  const std::string stream = EncodeDatabaseStream(db);
  for (auto _ : state) {
    Streamed out = EvaluateStreaming(SymmetricDifferenceQuery(), stream);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      stream.size() * static_cast<std::size_t>(state.iterations())));
}
BENCHMARK(BM_SymmetricDifference)->Arg(64)->Arg(256)->Arg(1024);

void BM_Product(benchmark::State& state) {
  Rng rng(9);
  std::map<std::string, Relation> db =
      MakeDatabase(rng, static_cast<std::size_t>(state.range(0)));
  const std::string stream = EncodeDatabaseStream(db);
  const RelAlgExprPtr query = Product(Rel("R1"), Rel("R2"));
  for (auto _ : state) {
    Streamed out = EvaluateStreaming(query, stream);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Product)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  rstlab::obs::ObsSession obs(rstlab::obs::ParseObsFlags(&argc, argv),
                              "bench_relalg");
  rstlab::extmem::StorageOptions storage =
      rstlab::extmem::ParseBackendFlags(&argc, argv);
  storage.metrics = obs.metrics();
  rstlab::extmem::SetProcessStorageOptions(storage);
  BenchRecorder recorder("bench_relalg", /*threads=*/1);
  recorder.set_metrics(obs.metrics());
  bool ok = RunScalingTable(recorder);
  ok = RunQueryComplexityTable(recorder) && ok;
  ok = RunReductionTable(recorder) && ok;
  obs.Finish(std::cout);
  if (auto written = recorder.Write(); !written.ok()) {
    std::cerr << "bench_relalg: " << written.status() << "\n";
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!ok) {
    std::cerr << "bench_relalg: a streamed result disagreed with the"
                 " in-memory evaluator\n";
    return 1;
  }
  return 0;
}
