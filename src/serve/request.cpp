#include "serve/request.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <limits>
#include <optional>
#include <type_traits>
#include <vector>

namespace pnet::serve {

namespace {

/// Largest double that still holds every integer exactly: integer fields
/// beyond 2^53 would silently lose precision in the double-typed parse
/// tree, so they are rejected as out of range instead.
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

/// Largest accepted time: 1e15 ps (1,000 simulated seconds), inside the
/// range where the microsecond codec is exact. The writer's us = ps / 1e6
/// and the reader's ps = us * 1e6 each round by at most one part in 2^53,
/// so below 2^50 ps the result lies within 0.25 ps of the original and
/// llround recovers it; near 2^53 ps a canonical time can decode to its
/// neighbour.
constexpr double kMaxExactPicoseconds = 1e15;

struct Decoder {
  RequestError* error;

  bool fail(const std::string& message) {
    error->code = kErrInvalidSpec;
    error->message = message;
    error->retryable = false;
    return false;
  }

  bool integral(const JsonValue& v, const std::string& where, double lo,
                double hi, double& out) {
    if (!v.is_number()) return fail(where + " must be a number");
    if (v.number != std::floor(v.number)) {
      return fail(where + " must be an integer");
    }
    if (v.number < lo || v.number > hi) {
      return fail(where + " out of range");
    }
    out = v.number;
    return true;
  }

  // The bounded codecs, one per member type of the field list.

  /// Integers within their type's range and within 2^53.
  template <std::integral I>
  bool get(const JsonValue& v, const std::string& where, I& out) {
    using Limits = std::numeric_limits<I>;
    double d = 0.0;
    if (!integral(v, where, static_cast<double>(Limits::min()),
                  std::min(static_cast<double>(Limits::max()),
                           kMaxExactInteger),
                  d)) {
      return false;
    }
    out = static_cast<I>(d);
    return true;
  }

  bool get(const JsonValue& v, const std::string& where, double& out) {
    if (!v.is_number()) return fail(where + " must be a number");
    out = v.number;
    return true;
  }

  bool get(const JsonValue& v, const std::string& where, bool& out) {
    if (!v.is_bool()) return fail(where + " must be a boolean");
    out = v.boolean;
    return true;
  }

  bool get(const JsonValue& v, const std::string& where, std::string& out) {
    if (!v.is_string()) return fail(where + " must be a string");
    out = v.text;
    return true;
  }

  bool get(const JsonValue& v, const std::string& where,
           std::vector<int>& out) {
    if (!v.is_array()) return fail(where + " must be an array");
    out.assign(v.items.size(), 0);
    for (std::size_t i = 0; i < v.items.size(); ++i) {
      if (!get(v.items[i], where, out[i])) return false;
    }
    return true;
  }

  /// Times ride the wire as microseconds and are stored as integer
  /// picoseconds.
  bool get(const JsonValue& v, const std::string& where,
           exp::Micros<SimTime> out) {
    if (!v.is_number()) return fail(where + " must be a number");
    const double ps = v.number * static_cast<double>(units::kMicrosecond);
    if (ps < 0.0 || ps > kMaxExactPicoseconds) {
      return fail(where + " out of range");
    }
    out.value = static_cast<SimTime>(std::llround(ps));
    return true;
  }

  bool get(const JsonValue& v, const std::string& where,
           exp::Gbps<double> out) {
    double gbps = 0.0;
    if (!get(v, where, gbps)) return false;
    out.value = gbps * units::kGbps;
    return true;
  }

  template <class E>
  bool get(const JsonValue& v, const std::string& where,
           std::optional<E>& out) {
    E value{};
    if (!get(v, where, value)) return false;
    out = value;
    return true;
  }

  /// An enum by its table name, or a nested struct through its field list.
  template <class M>
  bool get(const JsonValue& v, const std::string& where, M& out) {
    if constexpr (std::is_enum_v<M>) {
      std::string name;
      if (!get(v, where, name)) return false;
      const std::optional<M> value = util::from_string<M>(name);
      if (!value.has_value()) {
        return fail("unknown " + where + " '" + name + "' (valid: " +
                    util::enum_names<M>() + ")");
      }
      out = *value;
      return true;
    } else {
      return fields(v, where, where + ".", out);
    }
  }

  /// Decodes `out` from the object `v` through its field list: each listed
  /// field whose member is present decodes it, and any member no field
  /// claims (other than `extra`) is rejected — a misspelled knob must
  /// never silently fall back to its default.
  template <class T>
  bool fields(const JsonValue& v, const std::string& where,
              const std::string& prefix, T& out,
              std::string_view extra = {}) {
    if (!v.is_object()) return fail(where + " must be an object");
    FieldReader reader{*this, v, prefix,
                       std::vector<bool>(v.members.size())};
    exp::visit(reader, out);
    if (!reader.ok) return false;
    for (std::size_t i = 0; i < v.members.size(); ++i) {
      const std::string& key = v.members[i].first;
      if (!reader.claimed[i] && key != extra) {
        return fail("unknown field '" + where + "." + key + "'");
      }
    }
    return true;
  }

  /// The reader visitor: the field list's write conditions do not apply,
  /// so a member the writer would omit still decodes and validate() judges
  /// the combination.
  struct FieldReader {
    Decoder& decoder;
    const JsonValue& object;
    const std::string& prefix;
    std::vector<bool> claimed;
    bool ok = true;

    template <class M>
    void operator()(std::string_view name, M&& member, bool /*write*/ = true) {
      if (!ok) return;
      for (std::size_t i = 0; i < object.members.size(); ++i) {
        if (object.members[i].first != name) continue;
        claimed[i] = true;
        ok = decoder.get(object.members[i].second, prefix + std::string(name),
                         member);
        return;
      }
    }
  };

  bool decode(const JsonValue& root, Request& out) {
    if (!root.is_object()) {
      return fail("request must be a JSON object");
    }
    if (const JsonValue* stats = root.find("stats"); stats != nullptr) {
      bool want = false;
      if (!get(*stats, "stats", want)) return false;
      if (!want) return fail("stats must be true when present");
      if (root.members.size() != 1) {
        return fail("a stats request carries no other fields");
      }
      out.kind = Request::Kind::kStats;
      return true;
    }
    out.kind = Request::Kind::kRun;
    if (const JsonValue* budget = root.find("deadline_ms");
        budget != nullptr) {
      if (!budget->is_number() || budget->number < 0.0) {
        return fail("deadline_ms must be a non-negative number");
      }
      out.deadline_ms = budget->number;
    }
    if (!fields(root, "spec", "", out.spec, "deadline_ms")) return false;
    if (out.spec.engine == exp::EngineKind::kCustom) {
      return fail("engine 'custom' needs an in-process trial function and "
                  "cannot be served");
    }
    if (out.spec.name.empty()) {
      return fail("request is missing the required 'name' field");
    }
    return true;
  }
};

}  // namespace

bool decode_request(std::string_view line, Request& out, RequestError& error,
                    const ParseLimits& limits) {
  JsonValue root;
  std::string parse_error;
  if (!parse_json(line, root, parse_error, limits)) {
    error.code = kErrParse;
    error.message = parse_error;
    error.retryable = false;
    return false;
  }
  out = Request{};
  Decoder decoder{&error};
  return decoder.decode(root, out);
}

}  // namespace pnet::serve
