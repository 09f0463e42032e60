#include "skynet/federate/digest.h"

#include "skynet/persist/report_codec.h"

namespace skynet::federate {

std::string encode_digest_payload(const region_digest& d) {
    namespace codec = persist::codec;
    std::string out = "DIG";
    codec::put_u64(out, d.seq);
    codec::put_i64(out, d.barrier);
    codec::put(out, d.finish ? "1" : "0");
    codec::put_u64(out, d.reports.size());
    codec::put(out, d.region);
    out += '\n';
    for (const incident_report& r : d.reports) codec::put_report(out, r);
    return out;
}

bool decode_digest_payload(std::string_view payload, region_digest& d, std::string& err) {
    namespace codec = persist::codec;
    codec::cursor c;
    c.text = payload;
    std::vector<std::string_view> f;
    auto finish_error = [&]() {
        err = c.err.empty() ? "digest parse error" : c.err;
        return false;
    };
    std::uint64_t n_reports = 0;
    bool finish = false;
    if (!c.expect("DIG", 5, f)) return finish_error();
    if (!c.u64(f[1], d.seq)) return finish_error();
    if (!c.i64(f[2], d.barrier)) return finish_error();
    if (!c.flag(f[3], finish)) return finish_error();
    if (!c.u64(f[4], n_reports)) return finish_error();
    d.region = std::string(f[5]);
    d.finish = finish;
    if (d.region.empty()) {
        err = "digest with empty region";
        return false;
    }
    d.reports.clear();
    d.reports.reserve(n_reports);
    for (std::uint64_t i = 0; i < n_reports; ++i) {
        incident_report r;
        if (!codec::get_report(c, r)) return finish_error();
        d.reports.push_back(std::move(r));
    }
    if (c.pos < c.text.size()) {
        err = "trailing bytes after digest reports";
        return false;
    }
    return true;
}

std::string frame_fed_record(fed_record type, std::string_view payload) {
    std::string out;
    persist::append_frame(out, static_cast<std::uint8_t>(type), payload);
    return out;
}

std::optional<fed_frame> fed_decoder::next() {
    const std::optional<persist::frame> f = frame_decoder::next();
    if (!f) return std::nullopt;
    return fed_frame{static_cast<fed_record>(f->type), std::string(f->payload)};
}

digest_journal_read read_digest_journal(const std::string& path) {
    digest_journal_read result;
    static_cast<persist::frame_scan&>(result) =
        persist::scan_frame_file(path, digest_journal_format, 0, [&](const persist::frame& f) {
            region_digest d;
            std::string err;
            if (!decode_digest_payload(f.payload, d, err)) return "undecodable digest: " + err;
            result.digests.push_back(std::move(d));
            return std::string();
        });
    return result;
}

}  // namespace skynet::federate
