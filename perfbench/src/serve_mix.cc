// serve_mix: an in-process HttpServer on default ServerOptions driven by
// a closed loop of keep-alive clients over E20's 20-payload pool. Each
// iteration starts a fresh daemon: the cold phase (every payload
// answered once, all cache misses) is the job; a fixed warm phase of
// cache hits follows.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "env.h"
#include "fingerprint/fingerprint.h"
#include "probes.h"
#include "problems/disjoint_sets.h"
#include "problems/generators.h"
#include "serve/artifact_cache.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/random.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace serve = rstlab::serve;

constexpr std::size_t kClients = 4;
constexpr std::uint64_t kWarmRequests = 5000;

/// What the generator guarantees about a payload's answer.
enum class Truth {
  kAllTrialsAccept,  // fingerprint on equal multisets: one-sided error
  kYes,              // decider answer yes
  kNo,               // decider answer no
  kCount,            // xpath-count: `count` selected nodes
  kNone,             // claim1: checked only against the canonical frame
};

struct Payload {
  std::string body;
  Truth truth = Truth::kNone;
  std::uint64_t count = 0;
  /// The generator behind the payload, when it has one.
  std::string kind;
  std::uint64_t m = 0, n = 0, generator_seed = 0;
};

/// E20's pool with every generator and trial seed derived from `seed`.
/// Sizes are fixed, so the set of PrimePool shapes (the cold cost) is
/// the same for every seed.
std::vector<Payload> BuildPool(std::uint64_t seed) {
  std::vector<Payload> pool;
  const std::uint64_t base = seed * 1000;
  const auto add = [&](const std::string& id, const char* tenant,
                       const char* problem, const char* kind,
                       std::uint64_t m, std::uint64_t n, std::uint64_t v,
                       std::uint64_t trials, Truth truth) {
    Payload p;
    p.kind = kind;
    p.m = m;
    p.n = n;
    p.generator_seed = base + v;
    p.truth = truth;
    serve::JsonWriter writer;
    writer.Field("request_id", id)
        .Field("tenant", tenant)
        .Field("problem", problem)
        .FieldRaw("generator", serve::JsonWriter()
                                   .Field("kind", kind)
                                   .Field("m", m)
                                   .Field("n", n)
                                   .Field("seed", p.generator_seed)
                                   .Build());
    if (trials > 0) {
      writer.Field("trials", trials).Field("seed", base + 100 + v);
    }
    p.body = writer.Build();
    pool.push_back(std::move(p));
  };
  for (std::uint64_t v = 0; v < 8; ++v) {
    add("e20-fp-" + std::to_string(v), v % 2 == 0 ? "alice" : "bob",
        "fingerprint", "equal", 16 + 8 * v, 12, v, 16,
        Truth::kAllTrialsAccept);
  }
  for (std::uint64_t v = 0; v < 4; ++v) {
    const bool equal = v % 2 == 0;
    add("e20-eq-" + std::to_string(v), "carol", "multiset-equality",
        equal ? "equal" : "perturbed", 12 + 4 * v, 10, v, 0,
        equal ? Truth::kYes : Truth::kNo);
  }
  for (std::uint64_t v = 0; v < 2; ++v) {
    add("e20-dj-" + std::to_string(v), "alice", "disjoint", "disjoint",
        8 + 8 * v, 10, v, 0, Truth::kYes);
  }
  for (std::uint64_t v = 0; v < 2; ++v) {
    add("e20-c1-" + std::to_string(v), "bob", "claim1", "perturbed",
        6 + 2 * v, 8, v, 12, Truth::kNone);
  }
  for (std::uint64_t v = 0; v < 4; ++v) {
    Payload p;
    p.truth = Truth::kCount;
    p.count = v < 2 ? 1 : 2;
    p.body = serve::JsonWriter()
                 .Field("request_id", "e20-xp-" + std::to_string(v))
                 .Field("tenant", "carol")
                 .Field("problem", "xpath-count")
                 .Field("query",
                        v % 2 == 0 ? "child::book" : "descendant::title")
                 .Field("xml",
                        v < 2 ? "<lib><book><title>a</title></book></lib>"
                              : "<lib><book><title>a</title></book>"
                                "<book><title>b</title></book></lib>")
                 .Build();
    pool.push_back(std::move(p));
  }
  return pool;
}

bool MatchesTruth(const Payload& p, const serve::ExperimentResult& r) {
  switch (p.truth) {
    case Truth::kAllTrialsAccept:
      return r.executed_trials > 0 && r.accepts == r.executed_trials;
    case Truth::kYes:
      return r.accepts == 1;
    case Truth::kNo:
      return r.accepts == 0;
    case Truth::kCount:
      return r.extra == p.count;
    case Truth::kNone:
      return true;
  }
  return false;
}

/// The instance a generator payload describes, built the way the
/// service builds it.
rstlab::problems::Instance Generate(const Payload& p) {
  rstlab::Rng rng(p.generator_seed);
  if (p.kind == "equal") return rstlab::problems::EqualMultisets(p.m, p.n, rng);
  if (p.kind == "perturbed") {
    return rstlab::problems::PerturbedMultisets(p.m, p.n, 1, rng);
  }
  return rstlab::problems::DisjointSets(p.m, p.n, rng);
}

std::string HttpBytes(const std::string& body) {
  return "POST /v1/experiment HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Median microseconds per call of `fn` over `reps` passes of the pool.
template <typename Fn>
double MedianMicros(std::size_t items, std::size_t reps, Fn&& fn) {
  std::vector<double> samples;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < items; ++i) {
      const auto start = Clock::now();
      fn(i);
      samples.push_back(Since(start) * 1e6);
    }
  }
  return Median(samples);
}

/// One client's share of a phase.
struct ClientTally {
  std::vector<double> latencies_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs `kClients` keep-alive clients against `port`; each takes the
/// next ordinal below `total` and sends pool[ordinal % pool.size()],
/// waiting for the reply before the next (closed loop). A response
/// fails unless it is 200 with exactly the canonical frame.
std::vector<ClientTally> ClosedLoop(std::uint16_t port,
                                    const std::vector<Payload>& pool,
                                    const std::vector<std::string>& canonical,
                                    std::uint64_t total) {
  std::atomic<std::uint64_t> next{0};
  std::vector<ClientTally> tallies(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& mine = tallies[c];
      serve::HttpClient client;
      const bool connected = client.Connect(port).ok();
      for (std::uint64_t ordinal = next.fetch_add(1); ordinal < total;
           ordinal = next.fetch_add(1)) {
        const std::size_t index = ordinal % pool.size();
        mine.attempted += 1;
        if (!connected) {
          mine.failed += 1;
          continue;
        }
        const auto start = Clock::now();
        auto response = client.Request("POST", "/v1/experiment",
                                       pool[index].body);
        mine.latencies_ms.push_back(Since(start) * 1e3);
        if (!response.ok() || response.value().status != 200 ||
            response.value().body != canonical[index]) {
          mine.failed += 1;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return tallies;
}

}  // namespace

void RunServeMix(Run& run) {
  const std::vector<Payload> pool = BuildPool(run.options().seed);
  const serve::ServerOptions defaults;
  run.log() << "serve_mix: " << pool.size() << " payloads, " << kClients
            << " keep-alive clients (closed loop), warm phase "
            << kWarmRequests << " requests; ServerOptions threads="
            << defaults.threads << " max_inflight=" << defaults.max_inflight
            << " max_connections=" << defaults.max_connections
            << " cache_entries=" << defaults.cache_entries << "\n";

  std::vector<serve::ExperimentRequest> requests;
  for (const Payload& p : pool) {
    auto request = serve::ParseExperimentRequest(p.body);
    run.ledger().Check(request.ok(), "pool payload does not parse");
    if (!request.ok()) return;
    requests.push_back(request.value());
  }
  // Canonical frames: one client-free pass through the service on a
  // fresh cache, in pool order. Every served response must equal these.
  // This pass also gives peak_rss_mb: it builds every artifact the daemon
  // builds, on one thread. The daemon's own peak under four clients
  // depends on which of its threads' malloc arenas each artifact lands
  // in (175 to 250 MB over five seeds in the first iteration, creeping
  // to 310 MB in later ones), so it is not a figure a bound can hold.
  std::vector<std::string> canonical;
  std::vector<double> cold_execute_ms;
  if (!ResetPeakRss()) {
    run.log() << "  (cannot reset the peak RSS; peak_rss_mb covers the run)\n";
  }
  {
    serve::ArtifactCache cache(defaults.cache_entries);
    serve::ExperimentService reference(cache);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const auto start = Clock::now();
      auto result = reference.Execute(requests[i]);
      cold_execute_ms.push_back(Since(start) * 1e3);
      run.ledger().Check(result.ok() && MatchesTruth(pool[i], result.value()),
                         "service answer contradicts the generator: " +
                             requests[i].request_id);
      canonical.push_back(result.ok() ? result.value().ToJson() + "\n" : "");
    }
  }
  run.Set("peak_rss_mb", PeakRssMb(), "MB");
  malloc_trim(0);  // hand the reference artifacts' pages back to the OS

  std::vector<double> warm_latencies;
  std::vector<double> warm_rps;
  serve::ArtifactCache::Stats cache_stats;
  serve::FairScheduler::Stats scheduler_stats;
  TimedLoop(run, 3, [&](bool traced) {
    SpanRecorder* spans = traced ? run.spans() : nullptr;
    IterationTimes t;
    const auto setup_start = Clock::now();
    serve::HttpServer server(defaults);
    rstlab::Status started;
    {
      SpanRecorder::Scope span(spans, "serve.start");
      started = server.Start();
    }
    t.setup_s = Since(setup_start);
    run.ledger().Check(started.ok(), "HttpServer::Start failed");
    if (!started.ok()) return t;

    const auto cold_start = Clock::now();
    std::vector<ClientTally> cold;
    {
      SpanRecorder::Scope span(spans, "serve.cold_phase");
      cold = ClosedLoop(server.port(), pool, canonical, pool.size());
    }
    t.job_s = Since(cold_start);

    const auto warm_start = Clock::now();
    std::vector<ClientTally> warm;
    {
      SpanRecorder::Scope span(spans, "serve.warm_phase");
      warm = ClosedLoop(server.port(), pool, canonical, kWarmRequests);
    }
    warm_rps.push_back(static_cast<double>(kWarmRequests) / Since(warm_start));
    for (const std::vector<ClientTally>* phase : {&cold, &warm}) {
      for (const ClientTally& tally : *phase) {
        run.ledger().Record(tally.attempted, tally.failed,
                            "response was not 200 with the canonical frame");
      }
    }
    for (const ClientTally& tally : warm) {
      warm_latencies.insert(warm_latencies.end(), tally.latencies_ms.begin(),
                            tally.latencies_ms.end());
    }
    cache_stats = server.cache_stats();
    scheduler_stats = server.scheduler_stats();
    server.Shutdown();
    return t;
  }, /*record_peak_rss=*/false);

  const Percentile p50 = NearestRank(warm_latencies, 50.0);
  const Percentile p99 = NearestRank(warm_latencies, 99.0);
  run.Set("warm_rps", Median(warm_rps), "1/s");
  run.Set("warm_p99_ms", p99.value, "ms");
  run.Set("warm_p50_ms", p50.value, "ms");
  run.log() << "  warm latency over " << p99.samples << " requests: p50 "
            << p50.value << " ms, p99 " << p99.value << " ms (" << p99.beyond
            << " samples beyond)\n";

  if (!run.options().trace) return;

  // Serve stage probes on the pool, against a cache holding every
  // artifact (warm).
  serve::ArtifactCache warm_cache(defaults.cache_entries);
  serve::ExperimentService reference(warm_cache);
  for (const serve::ExperimentRequest& request : requests) {
    run.ledger().Check(reference.Execute(request).ok(),
                       "warming the probe cache failed");
  }
  const serve::HttpLimits limits;
  std::vector<std::string> raw;
  for (const Payload& p : pool) raw.push_back(HttpBytes(p.body));
  constexpr std::size_t kReps = 50;
  const double parse_http = MedianMicros(pool.size(), kReps, [&](std::size_t i) {
    auto parsed = serve::ParseHttpRequest(raw[i], limits);
    if (parsed.progress != serve::ParseProgress::kDone) {
      run.ledger().Check(false, "ParseHttpRequest rejected a pool payload");
    }
  });
  const double parse_request =
      MedianMicros(pool.size(), kReps, [&](std::size_t i) {
        auto parsed = serve::ParseExperimentRequest(pool[i].body);
        if (!parsed.ok()) run.ledger().Check(false, "request parse failed");
      });
  const double admit = MedianMicros(pool.size(), kReps, [&](std::size_t i) {
    if (!serve::ValidateBudgetAgainstRegistry(requests[i], warm_cache).ok()) {
      run.ledger().Check(false, "admission rejected a pool payload");
    }
  });
  const double execute_warm =
      MedianMicros(pool.size(), kReps, [&](std::size_t i) {
        auto result = reference.Execute(requests[i]);
        if (!result.ok() || result.value().ToJson() + "\n" != canonical[i]) {
          run.ledger().Check(false, "warm execute differs from canonical");
        }
      });
  double cold_total = 0.0;
  for (double ms : cold_execute_ms) cold_total += ms;
  run.Set("serve.parse_http_us", parse_http, "us");
  run.Set("serve.parse_request_us", parse_request, "us");
  run.Set("serve.admit_us", admit, "us");
  run.Set("serve.execute_warm_us", execute_warm, "us");
  run.Set("serve.rtt_minus_execute_us",
          p50.value * 1e3 - (parse_http + parse_request + admit + execute_warm),
          "us");
  run.Set("serve.execute_cold_ms", cold_total, "ms");
  run.Set("serve.cold_max_ms",
          *std::max_element(cold_execute_ms.begin(), cold_execute_ms.end()),
          "ms");
  run.Set("serve.cache.hit_rate", cache_stats.hit_rate(), "ratio");
  run.Set("serve.cache.misses", static_cast<double>(cache_stats.misses),
          "count");
  run.Set("serve.scheduler.rejected",
          static_cast<double>(scheduler_stats.rejected), "count");

  // Generic layer probes on the instances the pool's generators build.
  LayerInputs layers;
  for (const Payload& p : pool) {
    if (p.kind.empty()) continue;
    LabeledInstance li;
    li.instance = Generate(p);
    li.problem = rstlab::problems::Problem::kMultisetEquality;
    li.multisets_equal = p.kind == "equal";
    li.verdict = li.multisets_equal;
    layers.native_inputs.push_back(li.instance.Encode());
    layers.instances.push_back(std::move(li));
    if (p.truth == Truth::kAllTrialsAccept) {
      layers.prime_shapes.emplace_back(p.m, p.n);
    }
  }
  layers.native_storage = rstlab::extmem::DefaultStorageOptions();
  layers.query_input =
      InstanceAsRelations(layers.instances.back().instance,
                          &layers.query_symdiff);
  layers.query_storage = rstlab::extmem::DefaultStorageOptions();
  layers.claim1_trials =
      Claim1ProbeTrials(layers.instances.back().instance.m());
  RunLayerProbes(run, layers);
}

}  // namespace perfbench
