#ifndef RSTLAB_QUERY_XML_REDUCTION_H_
#define RSTLAB_QUERY_XML_REDUCTION_H_

#include <functional>

#include "problems/instance.h"
#include "stmodel/st_context.h"
#include "util/random.h"
#include "util/status.h"

namespace rstlab::query {

/// The encoding direction of Section 4: "the XML document can be
/// produced by using a constant number of sequential scans, constant
/// internal memory space, and two external memory tapes". Reads the
/// encoded instance from tape 0 of `ctx` and writes the serialized
/// document onto tape 1 in two scans (one to find the halfway point,
/// one to emit), with O(log N) internal bits (one field counter — the
/// paper's "constant" treats counters as free; ours are metered). The
/// output equals `SerializeXml(*EncodeSetInstanceAsXml(instance))`.
Status EncodeInstanceAsXmlOnTapes(stmodel::StContext& ctx);

/// A (possibly randomized) XPath filter oracle for the Theorem 13
/// argument: called on an encoded instance (X, Y), it must
///   (1) accept with probability 1 when the query selects a node
///       (X is not a subset of Y), and
///   (2) reject with probability >= 0.5 when it does not (X subset Y).
using FilterOracle =
    std::function<bool(const problems::Instance& instance, Rng& rng)>;

/// True iff the paper's XPath query selects at least one node of the
/// encoded document — semantically, X − Y nonempty.
bool PaperXPathSelects(const problems::Instance& instance);

/// A model filter satisfying (1)/(2) exactly: accepts surely when
/// X ⊄ Y; when X ⊆ Y it accepts with probability `false_accept`
/// (default 0.5). Decides subset-ness via the XPath evaluator.
FilterOracle ModelFilterOracle(double false_accept = 0.5);

/// One run of the machine T-tilde from the proof of Theorem 13: runs the
/// filter on (X, Y) and on (Y, X); accepts iff both runs reject. On
/// X = Y it accepts with probability >= 0.25; on X != Y it rejects
/// surely.
bool TTildeAcceptsSetEquality(const problems::Instance& instance,
                              const FilterOracle& oracle, Rng& rng);

/// `rounds` independent T-tilde runs, accepting if any accepts. The
/// paper suggests two rounds to reach acceptance probability 1/2; with
/// the worst-case per-round probability of exactly 1/4 this yields
/// 1-(3/4)^rounds, which first exceeds 1/2 at rounds = 3 — a small
/// inaccuracy in the paper that experiment E13 measures.
bool BoostedTTildeAccepts(const problems::Instance& instance,
                          const FilterOracle& oracle, Rng& rng,
                          std::size_t rounds);

}  // namespace rstlab::query

#endif  // RSTLAB_QUERY_XML_REDUCTION_H_
