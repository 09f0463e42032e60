#include "tracer.h"

#include <cstdio>

namespace perfbench {

std::map<std::string, tracer::summary> tracer::summarize() const {
    std::vector<std::int64_t> child_ns(records_.size(), 0);
    for (const record& r : records_) {
        if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
    std::map<std::string, summary> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const record& r = records_[i];
        const std::int64_t total = r.end_ns - r.start_ns;
        summary& s = out[r.name];
        ++s.count;
        s.total_ms += static_cast<double>(total) / 1e6;
        s.self_ms += static_cast<double>(total - child_ns[i]) / 1e6;
    }
    return out;
}

bool tracer::write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const record& r : records_) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"parent\":%lld,\"pass\":%d}\n",
                     r.name, static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns),
                     static_cast<long long>(r.parent), r.pass);
    }
    return std::fclose(f) == 0;
}

}  // namespace perfbench
