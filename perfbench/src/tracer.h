// In-memory span recorder for the traced run (--trace 1).
//
// The benchmark wraps every call it makes into a layer's public API in a
// span: name, start, end, parent span and pass id. Spans stay in memory
// while the workload runs and are written out once at exit. A layer's
// self time is its span's duration minus the time its child spans cover
// (children of one span never overlap: one tracer serves one thread).
//
// With tracing off, span() returns an inert guard and records nothing,
// so the untraced run executes the same code with no bookkeeping.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class tracer {
public:
    struct record {
        const char* name{nullptr};
        std::int64_t start_ns{0};
        std::int64_t end_ns{0};
        /// Index of the enclosing span in the same tracer; -1 for a root.
        std::int64_t parent{-1};
        int pass{0};
    };

    /// Per-name totals over the recorded spans.
    struct summary {
        std::uint64_t count{0};
        double total_ms{0.0};
        double self_ms{0.0};
    };

    class scope {
    public:
        scope() = default;
        scope(tracer* owner, std::size_t index) : owner_(owner), index_(index) {}
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;
        ~scope() {
            if (owner_ != nullptr) owner_->close(index_);
        }

    private:
        tracer* owner_{nullptr};
        std::size_t index_{0};
    };

    explicit tracer(bool enabled = false) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    /// Tags every span opened from now on with `pass`.
    void set_pass(int pass) noexcept { pass_ = pass; }

    /// Opens a span that closes when the returned guard is destroyed.
    /// `name` must be a string literal (it is stored, not copied).
    [[nodiscard]] scope span(const char* name) {
        if (!enabled_) return {};
        record r;
        r.name = name;
        r.start_ns = now_ns();
        r.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
        r.pass = pass_;
        records_.push_back(r);
        open_.push_back(records_.size() - 1);
        return {this, records_.size() - 1};
    }

    [[nodiscard]] const std::vector<record>& records() const noexcept { return records_; }

    /// Count, inclusive time and self time per span name.
    [[nodiscard]] std::map<std::string, summary> summarize() const;

    /// Writes every span as one JSON object per line; false on I/O error.
    bool write_jsonl(const std::string& path) const;

private:
    static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }
    void close(std::size_t index) {
        records_[index].end_ns = now_ns();
        if (!open_.empty() && open_.back() == index) open_.pop_back();
    }

    bool enabled_{false};
    int pass_{0};
    std::vector<record> records_;
    std::vector<std::size_t> open_;
};

}  // namespace perfbench
