// One name table per named enum.
//
// Every enum that appears in a spec, a flag or a report names its values in
// exactly one table of EnumName entries, kept next to the enum's
// to_string. A `name_table(E)` overload in the enum's namespace exposes the
// table (found by argument-dependent lookup), and the helpers below walk
// it, so printing, parsing and listing the valid names cannot drift apart.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace pnet::util {

template <class E>
struct EnumName {
  E value;
  const char* name;
};

template <class E>
using EnumNames = std::span<const EnumName<E>>;

/// `value`'s name, "?" if its table does not list it.
template <class E>
[[nodiscard]] const char* to_name(E value) {
  for (const EnumName<E>& entry : name_table(value)) {
    if (entry.value == value) return entry.name;
  }
  return "?";
}

/// The value named `name`; nullopt for an unknown name (callers fail fast
/// listing enum_names<E>()).
template <class E>
[[nodiscard]] std::optional<E> from_string(std::string_view name) {
  for (const EnumName<E>& entry : name_table(E{})) {
    if (entry.name == name) return entry.value;
  }
  return std::nullopt;
}

/// Every name of E in table order, space-separated ("ecmp round-robin ...").
template <class E>
[[nodiscard]] std::string enum_names() {
  std::string out;
  for (const EnumName<E>& entry : name_table(E{})) {
    if (!out.empty()) out += ' ';
    out += entry.name;
  }
  return out;
}

}  // namespace pnet::util
