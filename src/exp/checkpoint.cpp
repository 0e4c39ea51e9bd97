#include "exp/checkpoint.hpp"

#include <fstream>
#include <sstream>

#include "exp/json.hpp"

namespace pnet::exp {

namespace {

/// Doubles travel as their shortest round-trip decimal (json_double), so
/// a journaled metric re-serializes to the exact bytes the uninterrupted
/// run would have produced.
void put_double(std::string& out, double v) {
  out += ' ';
  out += json_double(v);
}

bool get_double(std::istringstream& in, double& v) {
  return static_cast<bool>(in >> v);
}

/// Metric/sample keys are internal identifiers (no whitespace). A key
/// that did contain whitespace would fail decode and cost one re-run
/// trial — safe, just wasteful — so no quoting layer is needed.
bool get_key(std::istringstream& in, std::string& key) {
  return static_cast<bool>(in >> key) && key.find(' ') == std::string::npos;
}

bool expect(std::istringstream& in, const char* literal) {
  std::string token;
  return static_cast<bool>(in >> token) && token == literal;
}

}  // namespace

std::string encode_trial(std::uint64_t spec_hash, int trial,
                         const TrialResult& result) {
  std::ostringstream head;
  head << "T " << std::hex << spec_hash << std::dec << ' ' << trial
       << " fs " << result.flows_started << " ff " << result.flows_finished
       << " ev " << result.events;
  std::string out = head.str();
  out += " db";
  put_double(out, result.delivered_bytes);
  out += " ss";
  put_double(out, result.sim_seconds);
  out += " ws";
  put_double(out, result.wall_s);
  out += " F " + std::to_string(result.fct_us.size());
  for (double v : result.fct_us) put_double(out, v);
  out += " M " + std::to_string(result.metrics.size());
  for (const auto& [key, value] : result.metrics) {
    out += ' ' + key;
    put_double(out, value);
  }
  out += " S " + std::to_string(result.samples.size());
  for (const auto& [key, values] : result.samples) {
    out += ' ' + key + ' ' + std::to_string(values.size());
    for (double v : values) put_double(out, v);
  }
  out += " R " + std::to_string(result.runtime.size());
  for (const auto& [key, value] : result.runtime) {
    out += ' ' + key;
    put_double(out, value);
  }
  return out;
}

bool decode_trial(const std::string& line, std::uint64_t& spec_hash,
                  int& trial, TrialResult& result) {
  std::istringstream in(line);
  if (!expect(in, "T")) return false;
  in >> std::hex >> spec_hash >> std::dec >> trial;
  if (!in) return false;
  result = TrialResult{};
  if (!expect(in, "fs") || !(in >> result.flows_started)) return false;
  if (!expect(in, "ff") || !(in >> result.flows_finished)) return false;
  if (!expect(in, "ev") || !(in >> result.events)) return false;
  if (!expect(in, "db") || !get_double(in, result.delivered_bytes)) {
    return false;
  }
  if (!expect(in, "ss") || !get_double(in, result.sim_seconds)) return false;
  if (!expect(in, "ws") || !get_double(in, result.wall_s)) return false;

  std::size_t count = 0;
  if (!expect(in, "F") || !(in >> count)) return false;
  result.fct_us.resize(count);
  for (double& v : result.fct_us) {
    if (!get_double(in, v)) return false;
  }
  if (!expect(in, "M") || !(in >> count)) return false;
  for (std::size_t i = 0; i < count; ++i) {
    std::string key;
    double value = 0.0;
    if (!get_key(in, key) || !get_double(in, value)) return false;
    result.metrics[key] = value;
  }
  if (!expect(in, "S") || !(in >> count)) return false;
  for (std::size_t i = 0; i < count; ++i) {
    std::string key;
    std::size_t n = 0;
    if (!get_key(in, key) || !(in >> n)) return false;
    auto& values = result.samples[key];
    values.resize(n);
    for (double& v : values) {
      if (!get_double(in, v)) return false;
    }
  }
  if (!expect(in, "R") || !(in >> count)) return false;
  for (std::size_t i = 0; i < count; ++i) {
    std::string key;
    double value = 0.0;
    if (!get_key(in, key) || !get_double(in, value)) return false;
    result.runtime[key] = value;
  }
  return true;
}

Checkpoint::Checkpoint(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_);
  std::string line;
  while (std::getline(in, line)) {
    std::uint64_t spec_hash = 0;
    int trial = 0;
    TrialResult result;
    if (decode_trial(line, spec_hash, trial, result)) {
      entries_[{spec_hash, trial}] = std::move(result);
    }
    // else: torn or foreign line — skip; at worst that trial re-runs.
  }
  in.close();
  file_ = std::fopen(path_.c_str(), "a");
  if (file_ == nullptr) {
    std::fprintf(stderr,
                 "exp::Checkpoint: cannot open '%s' for append; "
                 "continuing without checkpointing\n",
                 path_.c_str());
  }
}

Checkpoint::~Checkpoint() {
  if (file_ != nullptr) std::fclose(file_);
}

const TrialResult* Checkpoint::find(std::uint64_t spec_hash,
                                    int trial) const {
  const auto it = entries_.find({spec_hash, trial});
  return it == entries_.end() ? nullptr : &it->second;
}

void Checkpoint::record(std::uint64_t spec_hash, int trial,
                        const TrialResult& result) {
  if (file_ == nullptr) return;
  const std::string line = encode_trial(spec_hash, trial, result);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

}  // namespace pnet::exp
