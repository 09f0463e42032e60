#include "skynet/persist/framing.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "skynet/persist/crc32c.h"

namespace skynet::persist {

namespace le {

void put_u32(std::string& out, std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) out.push_back(static_cast<char>(v >> shift));
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) out.push_back(static_cast<char>(v >> shift));
}

std::uint32_t get_u32(const char* p) noexcept {
    const auto* b = reinterpret_cast<const unsigned char*>(p);
    return static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) | (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t get_u64(const char* p) noexcept {
    return static_cast<std::uint64_t>(get_u32(p)) |
           (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

}  // namespace le

void append_frame(std::string& out, std::uint8_t type, std::string_view payload) {
    out.push_back(static_cast<char>(type));
    le::put_u32(out, static_cast<std::uint32_t>(payload.size()));
    le::put_u32(out, crc32c(payload));
    out += payload;
}

namespace {

constexpr const char* bad_magic = "bad magic";

/// The one frame check, on the frame at the front of `bytes`: its size,
/// or 0 with `reason` set on a violation and empty when `bytes` ends
/// inside the frame.
std::size_t decode_frame(std::string_view bytes, const frame_format& format,
                         std::uint64_t max_payload, frame& out, std::string& reason) {
    if (bytes.size() < frame_header_bytes) return 0;
    const auto type = static_cast<std::uint8_t>(bytes[0]);
    const std::uint32_t len = le::get_u32(bytes.data() + 1);
    if (!format.allows(type)) {
        reason = "unknown record type " + std::to_string(type);
    } else if (len > max_payload) {
        reason = "payload length " + std::to_string(len) + " exceeds limit";
    } else if (bytes.size() - frame_header_bytes >= len) {
        out = frame{type, bytes.substr(frame_header_bytes, len)};
        if (crc32c(out.payload) == le::get_u32(bytes.data() + 5)) return frame_header_bytes + len;
        reason = "payload checksum (CRC-32C) mismatch";
    }
    return 0;
}

}  // namespace

void frame_decoder::fail(std::string reason) {
    corrupt_ = true;
    reason_ = std::move(reason);
    base_ += pos_;
    pos_ = 0;
    buf_ = std::string();  // nothing past a violation is ever read
}

void frame_decoder::feed(std::string_view bytes) {
    if (corrupt_) return;
    if (pos_ > 0) {  // what moves is at most one partial frame
        buf_.erase(0, pos_);
        base_ += pos_;
        pos_ = 0;
    }
    buf_ += bytes;
}

std::optional<frame> frame_decoder::next() {
    if (corrupt_) return std::nullopt;
    if (!seen_magic_) {
        if (buf_.size() - pos_ < format_.magic.size()) return std::nullopt;
        if (!std::string_view(buf_).substr(pos_).starts_with(format_.magic)) {
            fail(bad_magic);
            return std::nullopt;
        }
        pos_ += format_.magic.size();
        seen_magic_ = true;
    }
    frame f;
    std::string reason;
    const std::size_t size =
        decode_frame(std::string_view(buf_).substr(pos_), format_, max_stream_payload_bytes, f,
                     reason);
    if (size == 0) {
        if (!reason.empty()) fail(std::move(reason));
        return std::nullopt;
    }
    last_frame_ = pos_;
    pos_ += size;
    ++frames_;
    return f;
}

void frame_decoder::reject(std::string reason) {
    if (corrupt_ || frames_ == 0) return;
    pos_ = last_frame_;
    --frames_;
    fail(std::move(reason));
}

frame_scan scan_frames(std::string_view bytes, const frame_format& format, std::uint64_t from,
                       const frame_visitor& on_frame) {
    frame_scan scan;
    std::uint64_t pos = from;
    if (pos == 0) {
        if (!bytes.starts_with(format.magic)) {
            // Nothing trustworthy past a bad magic: the whole input is tail.
            scan.truncated_tail_bytes = bytes.size();
            scan.truncation_reason = bad_magic;
            return scan;
        }
        pos = format.magic.size();
    } else if (pos > bytes.size()) {
        scan.truncation_reason = "resume offset past the end of the file";
        return scan;
    }
    while (pos < bytes.size()) {
        const std::string_view rest = bytes.substr(pos);
        frame f;
        std::string reason;
        // No length cap here: a frame longer than the file is a torn tail.
        const std::size_t size = decode_frame(rest, format, UINT64_MAX, f, reason);
        if (size > 0) {
            reason = on_frame(f);
        } else if (reason.empty()) {
            reason = rest.size() < frame_header_bytes ? "torn record header"
                                                      : "torn record payload";
        }
        if (!reason.empty()) {
            scan.truncation_reason = std::move(reason);
            break;
        }
        pos += size;
    }
    scan.valid_bytes = pos;
    scan.truncated_tail_bytes = bytes.size() - pos;
    return scan;
}

frame_scan scan_frame_file(const std::string& path, const frame_format& format,
                           std::uint64_t from, const frame_visitor& on_frame) {
    const std::optional<std::string> bytes = read_file(path);
    if (bytes) return scan_frames(*bytes, format, from, on_frame);
    frame_scan scan;
    scan.missing = true;
    return scan;
}

frame_writer::frame_writer(const std::string& path, std::string_view magic,
                           std::size_t flush_every)
    : path_(path), flush_every_(flush_every == 0 ? 1 : flush_every) {
    // O_APPEND keeps an existing valid prefix on resume.
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd_ < 0) throw skynet_error("cannot open " + path + ": " + std::strerror(errno));
    struct stat st{};
    if (::fstat(fd_, &st) == 0 && st.st_size > 0) {
        written_ = static_cast<std::uint64_t>(st.st_size);
    } else {
        (void)write_out(magic);
    }
}

frame_writer::~frame_writer() {
    (void)flush();
    ::close(fd_);
}

bool frame_writer::write_out(std::string_view bytes) {
    std::uint64_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
            // A torn frame is not part of the file's valid prefix, so the
            // offset stays where the last whole write left it.
            error_ = "short write to " + path_ + ": " + std::strerror(n < 0 ? errno : ENOSPC);
            return false;
        }
        done += static_cast<std::uint64_t>(n);
    }
    written_ += done;
    return true;
}

bool frame_writer::append(std::uint8_t type, std::string_view payload, bool force_flush) {
    if (error_.empty()) append_frame(pending_, type, payload);
    return commit(force_flush);
}

bool frame_writer::append_framed(std::string_view framed) {
    if (error_.empty()) pending_ += framed;
    return commit(false);
}

bool frame_writer::commit(bool force_flush) {
    if (!error_.empty()) return false;
    ++records_;
    return force_flush || ++unflushed_ >= flush_every_ ? flush() : true;
}

bool frame_writer::flush() {
    ++flushes_;
    unflushed_ = 0;
    const bool ok = error_.empty() && write_out(pending_);
    pending_.clear();
    return ok;
}

std::optional<std::string> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::string bytes;
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec) bytes.reserve(size);  // a hint only: a pipe has no size
    char chunk[1 << 16];
    while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
        bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
    }
    return bytes;
}

error write_atomic(const std::string& path, std::string_view text) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) return error("cannot write " + tmp);
        out.write(text.data(), static_cast<std::streamsize>(text.size()));
        out.flush();
        if (!out) return error("short write to " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) return error("rename failed: " + ec.message());
    return error{};
}

}  // namespace skynet::persist
