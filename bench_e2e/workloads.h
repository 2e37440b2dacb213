// The five file-to-shots jobs of the end-to-end benchmark.
//
// Each workload is a layout file generated from a seed plus the PrepOptions
// a user would hand run_data_prep for it. The seed moves geometry inside a
// fixed structure (cell counts, array sizes and shape counts never change),
// so every seed asks for the same amount of work and run-to-run spread
// measures the program, not the generator. README.md records why each
// workload exists and which layer it stresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/job.h"

namespace e2e {

/// Workload names in the order README.md and BENCHMARK.json list them.
const std::vector<std::string>& workload_names();

/// File extension (".oas" or ".gds") the workload's layout is written in.
std::string layout_extension(const std::string& workload);

/// Generates the workload's layout from @p seed and writes it to @p path.
/// @p quick shrinks the top-level arrays to about 1/8 of the work.
void write_workload_layout(const std::string& workload, std::uint64_t seed,
                           bool quick, const std::string& path);

/// The prep options of @p workload for the layout file at @p path.
ebl::PrepOptions workload_prep(const std::string& workload, const std::string& path);

/// Throws ebl::ContractViolation naming the valid workloads when @p workload
/// is not one of them.
void check_workload(const std::string& workload);

}  // namespace e2e
