// The serve-shard oracle: one deployment of `rstlab serve` vs an
// N-shard deployment of the same binary must answer byte-identical
// result frames for every request. This is the serving layer's twin of
// the trial-tally contract: every experiment response is a pure
// function of its request payload (seeds derive from SeedSequence, no
// timestamps or server identity in the frame), so consistent-hash
// placement across N processes cannot change a single byte.
//
// Each case boots a 1-shard and an N-shard deployment on loopback
// ephemeral ports, routes a random mixed request workload through
// `ShardRouter`, and compares the two response vectors exactly.
// Failures shrink by dropping requests from the workload.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "conform/case_id.h"
#include "conform/shrink.h"
#include "conform/suites.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "util/random.h"

namespace rstlab::conform {

namespace {

struct ServeRequest {
  std::string id;
  std::string body;
};

struct ServeCase {
  std::size_t shards = 2;
  std::vector<ServeRequest> requests;
};

/// One random but always-valid experiment request. The mix covers every
/// artifact-cache kind: generated instances, fingerprint setups, parsed
/// XML.
ServeRequest MakeRequest(std::uint64_t ordinal, Rng& rng) {
  static const char* kTenants[] = {"alice", "bob", "carol"};
  ServeRequest request;
  request.id = "case-" + std::to_string(ordinal) + "-" +
               std::to_string(rng.Next64() & 0xffff);
  serve::JsonWriter body;
  body.Field("request_id", request.id)
      .Field("tenant", kTenants[rng.UniformBelow(3)]);
  switch (rng.UniformBelow(5)) {
    case 0: {
      body.Field("problem", "fingerprint")
          .FieldRaw("generator",
                    serve::JsonWriter()
                        .Field("kind", "equal")
                        .Field("m", 8 + rng.UniformBelow(24))
                        .Field("n", std::uint64_t{12})
                        .Field("seed", rng.UniformBelow(64))
                        .Build())
          .Field("trials", 1 + rng.UniformBelow(8))
          .Field("seed", rng.Next64() & 0xffff);
      break;
    }
    case 1: {
      body.Field("problem", "multiset-equality")
          .FieldRaw("generator",
                    serve::JsonWriter()
                        .Field("kind", rng.UniformBelow(2) == 0
                                           ? "equal"
                                           : "perturbed")
                        .Field("m", 4 + rng.UniformBelow(12))
                        .Field("n", std::uint64_t{10})
                        .Field("seed", rng.UniformBelow(64))
                        .Build());
      break;
    }
    case 2: {
      body.Field("problem", "disjoint")
          .FieldRaw("generator",
                    serve::JsonWriter()
                        .Field("kind", "disjoint")
                        .Field("m", 4 + rng.UniformBelow(12))
                        .Field("n", std::uint64_t{10})
                        .Field("seed", rng.UniformBelow(64))
                        .Build());
      break;
    }
    case 3: {
      body.Field("problem", "claim1")
          .FieldRaw("generator",
                    serve::JsonWriter()
                        .Field("kind", "perturbed")
                        .Field("m", 4 + rng.UniformBelow(8))
                        .Field("n", std::uint64_t{8})
                        .Field("seed", rng.UniformBelow(64))
                        .Build())
          .Field("trials", 1 + rng.UniformBelow(16))
          .Field("seed", rng.Next64() & 0xffff);
      break;
    }
    default: {
      body.Field("problem", "xpath-count")
          .Field("query", rng.UniformBelow(2) == 0 ? "child::book"
                                                   : "descendant::title")
          .Field("xml",
                 "<lib><book><title>a</title></book>"
                 "<book><title>b</title></book></lib>");
      break;
    }
  }
  request.body = body.Build();
  return request;
}

/// Boots `shards` servers, routes every request through the
/// consistent-hash ring, returns one response body per request (or an
/// error note in its slot — identical notes still compare equal, so
/// only *divergence* between deployments fails a case).
std::vector<std::string> RunDeployment(std::size_t shards,
                                       const std::vector<ServeRequest>& mix) {
  std::vector<std::unique_ptr<serve::HttpServer>> servers;
  std::vector<serve::HttpClient> clients(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    serve::ServerOptions options;
    options.threads = 2;
    servers.push_back(std::make_unique<serve::HttpServer>(options));
    const Status started = servers.back()->Start();
    if (!started.ok()) {
      return {std::string("deployment failed to start: ") +
              started.ToString()};
    }
  }
  const serve::ShardRouter router(shards);
  std::vector<std::string> responses;
  responses.reserve(mix.size());
  for (const ServeRequest& request : mix) {
    const std::size_t shard = router.Route(request.id);
    serve::HttpClient& client = clients[shard];
    if (!client.connected()) {
      const Status connected = client.Connect(servers[shard]->port());
      if (!connected.ok()) {
        responses.push_back("connect failed: " + connected.ToString());
        continue;
      }
    }
    Result<serve::ClientResponse> response =
        client.Request("POST", "/v1/experiment", request.body);
    if (!response.ok()) {
      responses.push_back("request failed: " +
                          response.status().ToString());
      continue;
    }
    responses.push_back(std::to_string(response.value().status) + " " +
                        response.value().body);
  }
  clients.clear();
  for (auto& server : servers) server->Shutdown();
  return responses;
}

/// "" when the 1-shard and N-shard deployments agree byte for byte.
std::string CheckServeCase(const ServeCase& c) {
  const std::vector<std::string> single = RunDeployment(1, c.requests);
  std::vector<std::string> sharded = RunDeployment(c.shards, c.requests);
  // Self-test fault: one flipped response byte in the sharded
  // deployment — the smallest determinism leak the oracle must catch.
  if (FaultInjectionEnabled() && !sharded.empty() &&
      !sharded.front().empty()) {
    sharded.front().back() ^= 1;
  }
  if (single.size() != sharded.size()) {
    return "response count: 1-shard=" + std::to_string(single.size()) +
           " vs " + std::to_string(c.shards) +
           "-shard=" + std::to_string(sharded.size());
  }
  for (std::size_t i = 0; i < single.size(); ++i) {
    if (single[i] != sharded[i]) {
      return "request " + c.requests[i].id + ": 1-shard answered [" +
             single[i] + "] but " + std::to_string(c.shards) +
             "-shard answered [" + sharded[i] + "]";
    }
  }
  return "";
}

std::string RenderServeCase(const ServeCase& c) {
  std::string out = "shards=" + std::to_string(c.shards) + " requests=[";
  for (std::size_t i = 0; i < c.requests.size(); ++i) {
    if (i > 0) out += " | ";
    out += c.requests[i].body;
  }
  return out + "]";
}

class ServeShardSuite final : public Suite {
 public:
  const char* name() const override { return "serve-shard"; }
  const char* description() const override {
    return "1-process vs N-shard serve deployment response bit-identity";
  }

  CaseOutcome RunCase(std::uint64_t seed,
                      std::uint64_t index) const override {
    Rng rng(CaseRngSeed(CaseId{name(), seed, index}));
    ServeCase c;
    c.shards = static_cast<std::size_t>(rng.UniformInRange(2, 3));
    const std::uint64_t count = 2 + rng.UniformBelow(4);
    for (std::uint64_t i = 0; i < count; ++i) {
      c.requests.push_back(MakeRequest(index * 100 + i, rng));
    }

    CaseOutcome outcome;
    std::string failure = CheckServeCase(c);
    if (failure.empty()) return outcome;

    // Shrink by dropping requests: halve the workload, then drop one
    // request at a time. The shard count stays — it names the
    // deployment shape under test.
    const std::function<bool(const ServeCase&)> still_fails =
        [](const ServeCase& candidate) {
          return !CheckServeCase(candidate).empty();
        };
    const std::function<std::vector<ServeCase>(const ServeCase&)>
        candidates = [](const ServeCase& current) {
          std::vector<ServeCase> out;
          const std::size_t n = current.requests.size();
          if (n > 1) {
            ServeCase half = current;
            half.requests.assign(current.requests.begin(),
                                 current.requests.begin() + n / 2);
            out.push_back(std::move(half));
            for (std::size_t drop = 0; drop < n; ++drop) {
              ServeCase fewer = current;
              fewer.requests.erase(fewer.requests.begin() +
                                   static_cast<std::ptrdiff_t>(drop));
              out.push_back(std::move(fewer));
            }
          }
          return out;
        };
    ShrinkStats stats;
    const ServeCase shrunk = GreedyShrink(
        c, still_fails, candidates, /*max_attempts=*/40, &stats);

    outcome.passed = false;
    outcome.failure = CheckServeCase(shrunk);
    outcome.counterexample = RenderServeCase(shrunk);
    outcome.shrink_attempts = stats.attempts;
    return outcome;
  }
};

}  // namespace

std::unique_ptr<Suite> MakeServeShardSuite() {
  return std::make_unique<ServeShardSuite>();
}

}  // namespace rstlab::conform
