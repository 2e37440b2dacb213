// The fault-plan grammar shared by the fault-injection tools: pec_worker's
// --fault / EBL_FAULT_PLAN and flaky_proxy's --fault / EBL_PROXY_FAULT_PLAN.
// A plan is semicolon-separated key=value directives, each value a decimal
// count ("crash-after=3;slow-start=50"); empty items are skipped and a later
// directive for the same key wins.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "util/contracts.h"

namespace ebl {

/// A directive key and the plan field its value lands in.
using FaultKey = std::pair<std::string_view, std::uint64_t*>;

/// Parses @p spec into the fields @p keys name. Throws DataError, prefixed
/// "<tool>: ", for an item without '=', a value that is not a decimal
/// count, or a key not in @p keys.
inline void parse_fault_plan(const std::string& spec, const std::string& tool,
                             std::initializer_list<FaultKey> keys) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      throw DataError(tool + ": bad fault directive (no '='): " + item);
    const std::string key = item.substr(0, eq);
    char* numend = nullptr;
    const std::uint64_t value = std::strtoull(item.c_str() + eq + 1, &numend, 10);
    if (numend == item.c_str() + eq + 1 || *numend != '\0')
      throw DataError(tool + ": bad fault count in: " + item);
    std::uint64_t* field = nullptr;
    for (const auto& [name, f] : keys)
      if (name == key) field = f;
    if (!field) throw DataError(tool + ": unknown fault directive: " + key);
    *field = value;
  }
}

}  // namespace ebl
