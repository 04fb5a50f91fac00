// Streaming relational algebra (Theorem 11): evaluate queries on a
// tuple stream with sorts and scans only, and watch the symmetric
// difference query decide SET-EQUALITY. Exits 1 if a streamed result
// differs from the in-memory evaluator's.
//
//   build/examples/streaming_relalg [tuples]

#include <cstdlib>
#include <iostream>
#include <map>

#include "core/rstlab.h"

namespace {

using rstlab::query::Rel;
using rstlab::query::Relation;

/// Streams `q` over the database on the query engine, prints the result
/// size with the query's bill, and returns whether it matches the
/// in-memory evaluator.
bool ShowQuery(const char* label, const rstlab::query::RelAlgExprPtr& q,
               const std::map<std::string, Relation>& db) {
  rstlab::stmodel::StContext ctx(1);
  ctx.LoadInput(rstlab::query::EncodeDatabaseStream(db));
  auto run = rstlab::query::engine::ExecuteSharedScan(ctx, {{q, ""}}, {});
  auto reference = rstlab::query::EvaluateInMemory(q, db);
  if (!run.ok() || !run.value()[0].status.ok() || !reference.ok()) {
    std::cerr << label << ": evaluation failed\n";
    return false;
  }
  const auto& streamed = run.value()[0];
  const bool matches = streamed.result == reference.value();
  std::cout << "  " << label << ": " << streamed.result.tuples.size()
            << " tuples   [input pass " << ctx.Report().ToString()
            << "; query " << streamed.cost.ToString() << "]  "
            << (matches ? "(matches in-memory evaluator)" : "(MISMATCH!)")
            << "\n";
  return matches;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t tuples =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200;
  rstlab::Rng rng(7);

  // Two unary relations of random 24-bit values, sharing roughly half
  // their tuples.
  std::map<std::string, Relation> db;
  db["R1"].name = "R1";
  db["R2"].name = "R2";
  db["R1"].arity = db["R2"].arity = 1;
  for (std::size_t i = 0; i < tuples; ++i) {
    const std::string v = rstlab::BitString::Random(24, rng).ToString();
    db["R1"].Insert({v});
    if (i % 2 == 0) {
      db["R2"].Insert({v});
    } else {
      db["R2"].Insert({rstlab::BitString::Random(24, rng).ToString()});
    }
  }
  std::cout << "R1: " << db["R1"].tuples.size() << " tuples, R2: "
            << db["R2"].tuples.size() << " tuples; stream length "
            << rstlab::query::EncodeDatabaseStream(db).size()
            << " characters\n\n";

  using rstlab::query::Difference;
  using rstlab::query::Intersection;
  using rstlab::query::Project;
  using rstlab::query::Union;

  bool ok = true;
  ok &= ShowQuery("R1 - R2            ", Difference(Rel("R1"), Rel("R2")),
                  db);
  ok &= ShowQuery("R2 - R1            ", Difference(Rel("R2"), Rel("R1")),
                  db);
  ok &= ShowQuery("R1 ∩ R2            ",
                  Intersection(Rel("R1"), Rel("R2")), db);
  ok &= ShowQuery("R1 ∪ R2            ", Union(Rel("R1"), Rel("R2")), db);
  ok &= ShowQuery("(R1-R2) ∪ (R2-R1)  ",
                  rstlab::query::SymmetricDifferenceQuery(), db);

  std::cout << "\nNow make R2 a copy of R1 — the symmetric difference "
               "empties out,\nwhich is how Theorem 11(b) reduces "
               "SET-EQUALITY to query evaluation:\n\n";
  db["R2"] = db["R1"];
  db["R2"].name = "R2";
  ok &= ShowQuery("(R1-R2) ∪ (R2-R1)  ",
                  rstlab::query::SymmetricDifferenceQuery(), db);
  return ok ? 0 : 1;
}
