#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace perfbench {

namespace {
const bench_clock::time_point g_process_start = bench_clock::now();
}  // namespace

bench_clock::time_point process_start() { return g_process_start; }

void result::end_to_end(std::string name, double value, std::string unit) {
    e2e_.push_back({std::move(name), value, std::move(unit)});
}

void result::per_layer(std::string name, double value, std::string unit) {
    layers_.push_back({std::move(name), value, std::move(unit)});
}

void result::check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

world::world(const skynet::generator_params& params, int n_customers)
    : topo(skynet::generate_topology(params)) {
    skynet::rng crand(params.seed + 1);
    customers = skynet::customer_registry::generate(topo, n_customers, crand);
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
        }
    }
    return 0.0;
}

void release_freed_memory() { (void)::malloc_trim(0); }

std::uint64_t dir_bytes(const std::string& dir) {
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec)) total += entry.file_size(ec);
    }
    return total;
}

std::string fresh_dir(const run_options& opts, std::string_view tag) {
    const std::string dir =
        opts.out_dir + "/" + std::string(tag) + "-" + std::to_string(::getpid());
    remove_dir(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void remove_dir(const std::string& dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
