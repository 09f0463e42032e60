#include "skynet/serve/wire.h"

#include <sys/socket.h>
#include <unistd.h>

namespace skynet::serve {

namespace {

/// Dials, sends the assembled stream, half-closes, reads the status line.
std::optional<stream_stats> finish_stream(const socket_addr& addr, const std::string& bytes,
                                          stream_stats stats, std::string& err) {
    const int fd = dial(addr, err);
    if (fd < 0) return std::nullopt;
    if (!write_all(fd, bytes)) {
        err = "short write streaming to " + addr.to_string();
        ::close(fd);
        return std::nullopt;
    }
    ::shutdown(fd, SHUT_WR);
    std::string reply;
    if (!read_all(fd, reply, 4096)) {
        err = "reading status line from " + addr.to_string() + " failed";
        ::close(fd);
        return std::nullopt;
    }
    ::close(fd);
    while (!reply.empty() && (reply.back() == '\n' || reply.back() == '\r')) reply.pop_back();
    if (reply.empty()) {
        err = "server closed the stream without a status line";
        return std::nullopt;
    }
    stats.status = std::move(reply);
    return stats;
}

}  // namespace

std::string frame_record(persist::record_type type, std::string_view payload) {
    std::string out;
    persist::append_frame(out, static_cast<std::uint8_t>(type), payload);
    return out;
}

std::optional<persist::journal_record> wire_decoder::next() {
    const std::optional<persist::frame> f = frame_decoder::next();
    if (!f) return std::nullopt;
    persist::journal_record record;
    if (std::string why = persist::decode_record(*f, record); !why.empty()) {
        reject(std::move(why));
        return std::nullopt;
    }
    return record;
}

std::optional<stream_stats> stream_trace(const socket_addr& addr,
                                         std::span<const traced_alert> alerts,
                                         sim_duration tick_every, sim_duration finish_grace,
                                         std::string& err) {
    std::string bytes{persist::journal_magic};
    stream_stats stats;
    std::string payload;
    std::vector<traced_alert> batch;
    auto flush_batch = [&] {
        if (batch.empty()) return;
        persist::encode_batch_payload(payload, batch);
        bytes += frame_record(persist::record_type::batch, payload);
        ++stats.records;
        stats.alerts += batch.size();
        batch.clear();
    };
    sim_time last_tick = 0;
    sim_time last_arrival = 0;
    for (const traced_alert& t : alerts) {
        batch.push_back(t);
        last_arrival = t.arrival;
        if (t.arrival - last_tick >= tick_every) {
            flush_batch();
            bytes += frame_record(persist::record_type::tick,
                                  persist::encode_barrier_payload(t.arrival));
            ++stats.records;
            last_tick = t.arrival;
        }
    }
    flush_batch();
    bytes += frame_record(persist::record_type::finish,
                          persist::encode_barrier_payload(last_arrival + finish_grace));
    ++stats.records;
    return finish_stream(addr, bytes, stats, err);
}

}  // namespace skynet::serve
