#include "util/flags.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string_view>

#include "util/version.hpp"

namespace pnet {

namespace {

/// Every "--key" token mentioned in a usage text. A key is the maximal run
/// of [a-zA-Z0-9_-] after a "--" that follows whitespace or starts the
/// text, so prose em-dashes and "--key=value" examples both parse.
std::set<std::string, std::less<>> keys_in_usage(std::string_view text) {
  std::set<std::string, std::less<>> keys;
  for (std::size_t i = 0; i + 2 < text.size(); ++i) {
    if (text[i] != '-' || text[i + 1] != '-') continue;
    if (i > 0 && !std::isspace(static_cast<unsigned char>(text[i - 1]))) {
      continue;
    }
    std::size_t j = i + 2;
    while (j < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[j])) ||
            text[j] == '-' || text[j] == '_')) {
      ++j;
    }
    if (j > i + 2) keys.emplace(text.substr(i + 2, j - (i + 2)));
    i = j - 1;
  }
  return keys;
}

/// Flags every bench accepts regardless of its own usage text: the shared
/// knobs of bench::print_header and the experiment-runner adapters.
bool is_common_flag(std::string_view key) {
  return key == "help" || key == "version" || key == "scale" ||
         key == "trials" ||
         key == "threads" || key == "json" || key == "json-timing" ||
         key == "require-complete" || key == "engine" || key == "trace" ||
         key == "sample-every" || key == "trial-timeout" ||
         key == "run-deadline" || key == "retries" || key == "checkpoint" ||
         key == "audit" || key == "sim-threads" || key == "controller" ||
         key == "controller-cadence" || key == "controller-detect-delay";
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  if (argc > 0) {
    // Usage and error messages name the binary, not its build path —
    // "bench_fig9: unrecognized flag", not "/home/ci/build/bench/...".
    std::string_view path(argv[0]);
    const auto slash = path.find_last_of('/');
    program_ = std::string(
        slash == std::string_view::npos ? path : path.substr(slash + 1));
  }
  // A repeated flag is rejected, not last-wins: silently dropping the
  // first value turns an editing slip ("--trials=2 ... --trials=8" left in
  // a script) into a wrong experiment.
  const auto put = [this](std::string key, std::string value) {
    if (!values_.emplace(key, std::move(value)).second) {
      std::fprintf(stderr, "%s: duplicate flag --%s\n", program_.c_str(),
                   key.c_str());
      std::exit(2);
    }
  };
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      std::fprintf(stderr, "%s: expected --key=value or --key value, "
                   "got '%s'\n", program_.c_str(), argv[i]);
      std::exit(2);
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      put(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
    } else if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      // "--key value": the next token is the value.
      put(std::string(arg), argv[i + 1]);
      ++i;
    } else {
      put(std::string(arg), "1");
    }
  }
}

std::string Flags::get(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

int Flags::get_int(const std::string& key, int def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : std::stoi(it->second);
}

std::int64_t Flags::get_i64(const std::string& key, std::int64_t def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : std::stoll(it->second);
}

double Flags::get_double(const std::string& key, double def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : std::stod(it->second);
}

bool Flags::get_bool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return it->second != "0" && it->second != "false";
}

bool Flags::has(const std::string& key) const { return values_.contains(key); }

std::vector<std::string> Flags::unknown_flags(std::string_view usage) const {
  const auto known = keys_in_usage(usage);
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    if (is_common_flag(key) || known.contains(key)) continue;
    unknown.push_back(key);
  }
  return unknown;
}

void Flags::handle_usage(std::string_view usage) const {
  if (has("version")) {
    std::printf("%s %s\n", program_.c_str(), kVersion);
    std::exit(0);
  }
  if (has("help")) {
    std::printf("usage: %s [--flag[=value] ...]\n", program_.c_str());
    std::fwrite(usage.data(), 1, usage.size(), stdout);
    if (!usage.empty() && usage.back() != '\n') std::fputc('\n', stdout);
    std::printf(
        "  --help            print this usage text\n"
        "  --version         print the binary name and version, then exit\n"
        "  --scale=paper     paper-scale run (or env PNET_SCALE=paper)\n"
        "  --trials=N        trials per experiment cell (seeded per trial)\n"
        "  --threads=N       experiment-runner worker threads (0 = all "
        "cores)\n"
        "  --sim-threads=N   packet-engine shard worker threads per trial\n"
        "                    (default 1 = inline; reports are byte-identical\n"
        "                    across every value)\n"
        "  --json=PATH       write the structured JSON report to PATH\n"
        "  --json-timing=0   omit wall-clock fields from the JSON, making\n"
        "                    reports bit-identical across thread counts\n"
        "  --require-complete  exit 1 if any flows are left unfinished\n"
        "  --sample-every=MS telemetry sampling interval in simulated\n"
        "                    milliseconds (0 = off); series land in the\n"
        "                    report's telemetry block\n"
        "  --trace=PATH      export Chrome trace_event JSON of every trial\n"
        "                    (.bin suffix: compact binary format)\n"
        "  --trial-timeout=S per-trial wall-clock budget in seconds; a\n"
        "                    trial past it is cancelled and reported as a\n"
        "                    timeout error (0 = off)\n"
        "  --run-deadline=S  whole-run wall-clock deadline in seconds;\n"
        "                    remaining trials report as cancelled (0 = off)\n"
        "  --retries=N       re-run a thrown or timed-out trial up to N\n"
        "                    times with the same seed\n"
        "  --checkpoint=PATH journal finished trials to PATH and resume a\n"
        "                    killed sweep by skipping completed work\n"
        "  --audit           assert simulation conservation laws each\n"
        "                    trial (also env PNET_AUDIT=1); violations\n"
        "                    report as invariant errors\n"
        "  --controller=MODE control plane per cell: off (default),\n"
        "                    host-local (transport repath only), or\n"
        "                    centralized (global adaptive controller)\n"
        "  --controller-cadence=MS      control-loop period in simulated\n"
        "                    milliseconds (default 1)\n"
        "  --controller-detect-delay=MS fabric-event confirmation delay in\n"
        "                    simulated milliseconds (default 1)\n");
    std::exit(0);
  }
  const auto unknown = unknown_flags(usage);
  for (const auto& key : unknown) {
    std::fprintf(stderr, "%s: unrecognized flag --%s\n", program_.c_str(),
                 key.c_str());
  }
  if (!unknown.empty()) {
    std::fprintf(stderr, "%s: run with --help for the accepted flags\n",
                 program_.c_str());
    std::exit(2);
  }
}

bool Flags::paper_scale() const {
  if (get("scale", "") == "paper") return true;
  const char* env = std::getenv("PNET_SCALE");
  return env != nullptr && std::string_view(env) == "paper";
}

}  // namespace pnet
