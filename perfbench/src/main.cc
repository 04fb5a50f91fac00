// perfbench: one benchmark command for rstlab. Runs one workload on
// library defaults for a fixed time, checks every output against the
// generator's ground truth, and prints every metric by name and unit;
// the last stdout line is one JSON object with all of them.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--spans <file>] [--git-sha <sha>]
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "env.h"

namespace {

int Usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload {decide_sort,query_xml_ooc,"
               "fingerprint_mc,serve_mix} --seed N --seconds S --trace {0,1}"
               " --work-dir DIR [--spans FILE] [--git-sha SHA]\n";
  return 2;
}

std::string JsonNumber(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  // Before anything can call a Default*Config(): library defaults only.
  const std::vector<std::string> scrubbed =
      perfbench::ScrubRstlabEnvironment();

  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || options.work_dir.empty() || !(options.seconds > 0.0)) {
    return Usage("--seed, --seconds and --work-dir are required");
  }
  if (perfbench::IsDebugBuild()) {
    std::cerr << "perfbench: refusing to measure a " << perfbench::BuildType()
              << " build (assertions on or no optimization); build "
                 "RelWithDebInfo or Release\n";
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create --work-dir: " + ec.message()).c_str());

  std::cout << "perfbench workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n";
  perfbench::PrintEffectiveConfig(std::cout, options.git_sha, scrubbed);

  perfbench::Run run(options, std::cout);
  if (options.workload == "decide_sort") {
    perfbench::RunDecideSort(run);
  } else if (options.workload == "query_xml_ooc") {
    perfbench::RunQueryXmlOoc(run);
  } else if (options.workload == "fingerprint_mc") {
    perfbench::RunFingerprintMc(run);
  } else if (options.workload == "serve_mix") {
    perfbench::RunServeMix(run);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  const perfbench::FailureLedger& ledger = run.ledger();
  run.Set("failed_ratio", ledger.ratio(), "ratio");

  std::cout << "metrics:\n";
  for (const auto& [name, metric] : run.metrics()) {
    std::cout << "  " << std::left << std::setw(34) << name << " "
              << std::setprecision(6) << metric.value << " " << metric.unit
              << "\n";
  }
  if (options.trace) {
    std::cout << "self time by span (s):\n"
              << "  " << std::left << std::setw(28) << "span" << std::right
              << std::setw(8) << "count" << std::setw(12) << "total"
              << std::setw(12) << "self" << "\n";
    for (const auto& [name, row] :
         perfbench::SelfTimeTable(run.recorder().spans())) {
      std::cout << "  " << std::left << std::setw(28) << name << std::right
                << std::setw(8) << row.count << std::setw(12)
                << std::setprecision(4) << row.total << std::setw(12)
                << row.self << "\n";
    }
    if (!options.spans_path.empty() &&
        !run.recorder().WriteJsonLines(options.spans_path)) {
      std::cerr << "perfbench: cannot write spans to " << options.spans_path
                << "\n";
    }
  }
  std::cout << "checks: attempted=" << ledger.attempted()
            << " failed=" << ledger.failed() << "\n";
  for (const std::string& message : ledger.messages()) {
    std::cout << "  FAILED: " << message << "\n";
  }

  std::ostringstream json;
  json << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << ledger.attempted()
       << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : run.metrics()) {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << JsonNumber(metric.value) << ", \"unit\": \"" << metric.unit
         << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return ledger.failed() == 0 && ledger.attempted() > 0 ? 0 : 1;
}
