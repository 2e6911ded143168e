// Enum-tag names, looked up in the registries: the registry entry is the
// one source of truth for every name.
#include "core/dissemination.hpp"

#include <map>

#include "core/registry.hpp"

namespace ncdn {

// The legacy-tagged entries are all built-ins, registered in one shot by
// instance(), so snapshotting the names at first call is complete.  The
// snapshot (std::map nodes are address-stable) also keeps the returned
// pointers valid even if user registrations later grow the registry's
// entry vector.
const char* to_string(algorithm a) {
  static const std::map<algorithm, std::string> names = [] {
    std::map<algorithm, std::string> m;
    for (const protocol_entry& e : protocol_registry::instance().entries()) {
      if (e.legacy.has_value()) m[*e.legacy] = e.name;
    }
    return m;
  }();
  const auto it = names.find(a);
  return it == names.end() ? "?" : it->second.c_str();
}

const char* to_string(topology_kind t) {
  static const std::map<topology_kind, std::string> names = [] {
    std::map<topology_kind, std::string> m;
    for (const adversary_entry& e : adversary_registry::instance().entries()) {
      if (e.legacy.has_value()) m[*e.legacy] = e.name;
    }
    return m;
  }();
  const auto it = names.find(t);
  return it == names.end() ? "?" : it->second.c_str();
}

}  // namespace ncdn
