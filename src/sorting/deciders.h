#ifndef RSTLAB_SORTING_DECIDERS_H_
#define RSTLAB_SORTING_DECIDERS_H_

#include "problems/instance.h"
#include "stmodel/st_context.h"
#include "util/status.h"

namespace rstlab::sorting {

/// Deterministic sort-and-scan deciders for the three problems — the
/// upper-bound half of Corollary 7: membership in
/// ST(O(log N), O(buffer), O(1)).
///
/// Tape layout: the encoded instance must be loaded on tape 0 of a
/// context with at least 5 tapes; tapes 1 and 2 receive the two halves.
/// Tapes 3 and 4 are the model machine's sort working storage; the
/// k-way sort (`SortForDecider`) spills to its own lanes and bills them
/// as scratch, so they stay blank.
///
/// The measured resource profile on a run of input size N with field
/// length n is r(N) = Theta(log N) scans. Internal memory is the sort's
/// run_length + fanout record buffers plus O(log N) counter bits: at
/// `PaperSortConfig()` (fanout 2, run_length 1) that is O(n + log N)
/// bits. Record buffers replace the Chen-Yap O(1)-space comparison
/// [7, Lemma 7] that the paper cites; the Theta(log N) scan count the
/// lower-bound experiments test is the same for both. For the SHORT
/// problem variants n = O(log N), so the profile is the paper's
/// ST(O(log N), O(log N), O(1)).

/// Number of external tapes the deciders require.
inline constexpr std::size_t kDeciderTapes = 5;

/// Splits the 2m input fields of tape 0 onto tapes 1 (first half) and
/// 2 (second half) and returns m. Two forward scans of the input;
/// InvalidArgument on an odd field count.
Result<std::size_t> SplitHalves(stmodel::StContext& ctx);

/// Field-sequence equality of tapes `x` and `y` holding `m` fields each:
/// one parallel forward scan, no internal buffering.
bool SequencesEqual(stmodel::StContext& ctx, std::size_t x, std::size_t y,
                    std::size_t m);

/// Decides `problem` on the instance loaded on tape 0 of `ctx`.
Result<bool> DecideOnTapes(problems::Problem problem,
                           stmodel::StContext& ctx);

/// The sorting *function* problem (Corollary 10): sorts the input fields
/// of tape 0 and leaves the result on tape 1 (ascending lexicographic).
/// Tape requirements as above.
Status SortInputToTape(stmodel::StContext& ctx);

/// Deterministic decider for the DISJOINT-SETS problem of the paper's
/// Section 9 (see problems/disjoint_sets.h): sorts both halves and
/// looks for a common value in one merge scan. Same tape layout and
/// resource profile as the Corollary 7 deciders —
/// ST(O(log N), O(n + log N), 5). No matching randomized 2-scan
/// algorithm is known; the paper leaves both a lower and a better upper
/// bound open.
Result<bool> DecideDisjointOnTapes(stmodel::StContext& ctx);

}  // namespace rstlab::sorting

#endif  // RSTLAB_SORTING_DECIDERS_H_
