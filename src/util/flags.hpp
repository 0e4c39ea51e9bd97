// Minimal command-line parser for bench and example binaries.
//
// Every bench accepts the same knobs (hosts, planes, seed, scale, trials,
// threads, json...) so the parser lives here rather than being copy-pasted.
// Both "--key=value" and "--key value" spellings are accepted (benches
// historically mixed conventions). Unknown flags abort with a usage
// message; experiments should fail loudly, not silently ignore a
// misspelled parameter.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pnet {

class Flags {
 public:
  /// Parses argv. Accepts "--key=value", "--key value" (the next argv
  /// token, when it does not itself start with "--"), and bare "--key"
  /// (value "1"). A flag given more than once aborts with exit code 2
  /// naming the flag — last-wins would silently discard a value.
  Flags(int argc, char** argv);

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def) const;
  /// Numeric getters: the whole value must parse (a finite number for
  /// get_double), or the process exits 2 naming the flag — "--hosts=16abc"
  /// never runs as 16.
  [[nodiscard]] int get_int(const std::string& key, int def) const;
  [[nodiscard]] std::int64_t get_i64(const std::string& key,
                                     std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;
  [[nodiscard]] bool has(const std::string& key) const;

  /// True when the run should use paper-scale parameters. Set either with
  /// --scale=paper or env PNET_SCALE=paper.
  [[nodiscard]] bool paper_scale() const;

  /// Flags that were parsed but appear neither as "--key" in `usage` nor in
  /// the common set every bench accepts (--help, --version, --scale, and the
  /// experiment-runner flags --trials/--threads/--sim-threads/--json/
  /// --json-timing/--require-complete/--trial-timeout/--run-deadline/
  /// --retries/--checkpoint/--audit). The testable core of handle_usage.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      std::string_view usage) const;

  /// Shared --help / --version / typo handling, reached by every bench
  /// through bench::print_header (and by pnet-serve directly). If --version
  /// was passed: prints "<binary> <version>" (util/version.hpp) and exits 0.
  /// If --help was passed: prints a "usage: <binary>" header, `usage`, and
  /// the common-flag epilogue, then exits 0. Otherwise any flag
  /// unknown_flags() reports aborts with exit code 2 listing the offenders,
  /// so a misspelled parameter can never silently fall back to its default.
  void handle_usage(std::string_view usage) const;

  /// For modes that read a fixed set of flags and none of the common ones:
  /// any parsed flag outside `keys` aborts with exit code 2, as in
  /// handle_usage, even a common flag such as --trials, and the message
  /// lists `keys`.
  void require_only(std::initializer_list<std::string_view> keys) const;

  /// Basename of the binary (argv[0] stripped of its directory), for usage
  /// and error messages.
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  template <class T>
  [[nodiscard]] T get_number(const std::string& key, T def) const;

  /// Names each of `unknown` and then `hint` on stderr and exits 2;
  /// returns if `unknown` is empty.
  void reject(const std::vector<std::string>& unknown,
              const std::string& hint) const;

  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace pnet
