// Reversal-bounded external merge sort (the Corollary 7 / Corollary 10
// workhorse): sort a tape of records at the paper's geometry (binary
// merges of single-record runs) and watch the scan bill grow
// logarithmically.
//
//   build/examples/external_sort [fields] [bits]

#include <cstdlib>
#include <iostream>

#include "core/rstlab.h"

int main(int argc, char** argv) {
  const std::size_t fields =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 64;
  const std::size_t bits =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 12;
  rstlab::Rng rng(13);

  std::string input;
  for (std::size_t i = 0; i < fields; ++i) {
    input += rstlab::BitString::Random(bits, rng).ToString();
    input += '#';
  }

  const rstlab::sorting::SortConfig paper = rstlab::sorting::PaperSortConfig();
  rstlab::stmodel::StContext ctx(1);
  ctx.LoadInput(input);
  rstlab::sorting::SortStats stats;
  rstlab::Status status =
      rstlab::sorting::ParallelSortFieldsOnTape(ctx, 0, paper, &stats);
  if (!status.ok()) {
    std::cerr << "sort failed: " << status << "\n";
    return 1;
  }

  rstlab::tape::Tape& t = ctx.tape(0);
  t.Seek(0);
  std::cout << "sorted " << stats.num_fields << " records of " << bits
            << " bits in " << stats.merge_passes << " merge passes\n"
            << "resources: " << ctx.Report().ToString() << "\n";
  if (fields <= 32) {
    std::cout << "output:";
    while (!rstlab::stmodel::AtEnd(t)) {
      std::cout << " " << rstlab::stmodel::ReadField(t);
    }
    std::cout << "\n";
  }

  std::cout << "\nscan bill per input size (Theta(log N), Corollary 7):\n";
  for (std::size_t f : {64u, 256u, 1024u, 4096u}) {
    std::string in;
    for (std::size_t i = 0; i < f; ++i) {
      in += rstlab::BitString::Random(bits, rng).ToString();
      in += '#';
    }
    rstlab::stmodel::StContext c(1);
    c.LoadInput(in);
    if (!rstlab::sorting::ParallelSortFieldsOnTape(c, 0, paper).ok()) {
      return 1;
    }
    std::cout << "  N = " << in.size() << "  ->  "
              << c.Report().ToString() << "\n";
  }
  return 0;
}
