#include "skynet/persist/journal.h"

#include <bit>
#include <filesystem>
#include <system_error>

namespace skynet::persist {

namespace {

using le::put_u32;
using le::put_u64;

void put_str(std::string& out, std::string_view s) {
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
}

// --- binary batch codec -------------------------------------------------------
// Text formats cost too much on the hot ingest path (double formatting
// alone blows the journal-overhead budget), so batches use a direct
// little-endian encoding. Doubles travel as bit patterns — replay is
// bit-exact with no round-trip caveats. Interned ids are deliberately
// not stored: like trace-file alerts, journal alerts arrive with the
// sentinel and the ingesting preprocessor re-interns them.

constexpr std::uint8_t flag_device = 1u << 0;
constexpr std::uint8_t flag_link = 1u << 1;
constexpr std::uint8_t flag_src = 1u << 2;
constexpr std::uint8_t flag_dst = 1u << 3;

void put_loc(std::string& out, const location& loc) {
    put_u32(out, static_cast<std::uint32_t>(loc.segments().size()));
    for (const std::string& seg : loc.segments()) put_str(out, seg);
}

}  // namespace

std::string encode_barrier_payload(sim_time now) {
    std::string payload;
    put_u64(payload, static_cast<std::uint64_t>(now));
    return payload;
}

void encode_batch_payload(std::string& out, std::span<const traced_alert> batch) {
    out.clear();
    out.reserve(4 + batch.size() * 96);
    put_u32(out, static_cast<std::uint32_t>(batch.size()));
    for (const traced_alert& t : batch) {
        const raw_alert& a = t.alert;
        put_u64(out, static_cast<std::uint64_t>(t.arrival));
        out.push_back(static_cast<char>(a.source));
        put_u64(out, static_cast<std::uint64_t>(a.timestamp));
        put_str(out, a.kind);
        put_str(out, a.message);
        put_loc(out, a.loc);
        std::uint8_t flags = 0;
        if (a.device) flags |= flag_device;
        if (a.link) flags |= flag_link;
        if (a.src_loc) flags |= flag_src;
        if (a.dst_loc) flags |= flag_dst;
        out.push_back(static_cast<char>(flags));
        if (a.device) put_u32(out, *a.device);
        if (a.link) put_u32(out, *a.link);
        put_u64(out, std::bit_cast<std::uint64_t>(a.metric));
        if (a.src_loc) put_loc(out, *a.src_loc);
        if (a.dst_loc) put_loc(out, *a.dst_loc);
    }
}

namespace {

/// Bounds-checked reader over a batch payload; any overrun flips `ok`.
struct payload_cursor {
    std::string_view bytes;
    std::size_t pos{0};
    bool ok{true};

    [[nodiscard]] bool take(std::size_t n) {
        if (!ok || bytes.size() - pos < n) {
            ok = false;
            return false;
        }
        return true;
    }
    std::uint8_t u8() {
        if (!take(1)) return 0;
        return static_cast<std::uint8_t>(bytes[pos++]);
    }
    std::uint32_t u32() {
        if (!take(4)) return 0;
        const std::uint32_t v = le::get_u32(bytes.data() + pos);
        pos += 4;
        return v;
    }
    std::uint64_t u64() {
        if (!take(8)) return 0;
        const std::uint64_t v = le::get_u64(bytes.data() + pos);
        pos += 8;
        return v;
    }
    std::string_view str() {
        const std::uint32_t len = u32();
        if (!take(len)) return {};
        const std::string_view s = bytes.substr(pos, len);
        pos += len;
        return s;
    }
    location loc() {
        const std::uint32_t nsegs = u32();
        if (!ok || nsegs > bytes.size() - pos) {  // each segment costs >= 4 bytes
            ok = false;
            return {};
        }
        std::vector<std::string> segments;
        segments.reserve(nsegs);
        for (std::uint32_t i = 0; i < nsegs && ok; ++i) segments.emplace_back(str());
        return location(std::move(segments));
    }
};

}  // namespace

bool decode_batch_payload(std::string_view payload, std::vector<traced_alert>& out) {
    payload_cursor c{.bytes = payload};
    const std::uint32_t count = c.u32();
    if (!c.ok || count > payload.size()) return false;  // count can't exceed bytes
    out.reserve(count);
    for (std::uint32_t i = 0; i < count && c.ok; ++i) {
        traced_alert t;
        t.arrival = static_cast<sim_time>(c.u64());
        raw_alert& a = t.alert;
        a.source = static_cast<data_source>(c.u8());
        a.timestamp = static_cast<sim_time>(c.u64());
        a.kind = std::string(c.str());
        a.message = std::string(c.str());
        a.loc = c.loc();
        const std::uint8_t flags = c.u8();
        if (flags & flag_device) a.device = c.u32();
        if (flags & flag_link) a.link = c.u32();
        a.metric = std::bit_cast<double>(c.u64());
        if (flags & flag_src) a.src_loc = c.loc();
        if (flags & flag_dst) a.dst_loc = c.loc();
        if (!c.ok) break;
        out.push_back(std::move(t));
    }
    return c.ok && c.pos == payload.size();
}

std::string decode_record(const frame& f, journal_record& out) {
    out.type = static_cast<record_type>(f.type);
    if (out.type == record_type::batch) {
        // A CRC-valid frame that does not parse is a writer/reader version
        // mismatch, not a torn write; the record cannot be replayed.
        if (!decode_batch_payload(f.payload, out.batch)) return "malformed batch payload";
    } else if (f.payload.size() == 8) {
        out.now = static_cast<sim_time>(le::get_u64(f.payload.data()));
    } else {
        return "barrier payload size mismatch";
    }
    return {};
}

bool journal_writer::append_batch(std::span<const traced_alert> batch) {
    encode_batch_payload(payload_buf_, batch);
    return append(static_cast<std::uint8_t>(record_type::batch), payload_buf_);
}

bool journal_writer::append_barrier(record_type type, sim_time now) {
    // Group-commit: barriers ride the flush_every cadence like batches;
    // the durable session flushes explicitly where durability is load-
    // bearing (checkpoints, finish, crash drill). A finish barrier ends
    // the stream, so it flushes here.
    return append(static_cast<std::uint8_t>(type), encode_barrier_payload(now),
                  /*force_flush=*/type == record_type::finish);
}

journal_read_result read_journal(const std::string& path, std::uint64_t from) {
    journal_read_result result;
    std::uint64_t offset = from == 0 ? journal_magic.size() : from;
    static_cast<frame_scan&>(result) =
        scan_frame_file(path, journal_format, from, [&](const frame& f) {
            journal_record record;
            std::string why = decode_record(f, record);
            if (why.empty()) {
                result.records.push_back(std::move(record));
                result.offsets.push_back(offset);
                offset += frame_header_bytes + f.payload.size();
            }
            return why;
        });
    return result;
}

bool truncate_journal(const std::string& path, std::uint64_t valid_bytes) {
    std::error_code ec;
    std::filesystem::resize_file(path, valid_bytes, ec);
    return !ec;
}

}  // namespace skynet::persist
