#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/check.hpp"

namespace fallsense::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

wire_client wire_client::connect_to(const endpoint& where, int timeout_ms) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(where.port);
    if (::inet_pton(AF_INET, where.host.c_str(), &addr.sin_addr) != 1) {
        throw std::runtime_error("wire_client: not an IPv4 address: " + where.host);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) throw_errno("socket");
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            return wire_client(fd);
        }
        const int saved = errno;
        ::close(fd);
        // The server may not have bound yet (CI launches both sides
        // together); everything else is a hard failure.
        if ((saved != ECONNREFUSED && saved != ETIMEDOUT) ||
            std::chrono::steady_clock::now() >= deadline) {
            errno = saved;
            throw_errno("wire_client connect " + where.host);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

wire_client::~wire_client() {
    if (fd_ >= 0) ::close(fd_);
}

wire_client::wire_client(wire_client&& other) noexcept
    : fd_(other.fd_),
      sendbuf_(std::move(other.sendbuf_)),
      decoder_(std::move(other.decoder_)),
      scratch_(std::move(other.scratch_)),
      stats_(other.stats_) {
    other.fd_ = -1;
}

void wire_client::queue_samples(std::uint32_t session, std::uint32_t sequence,
                                std::span<const data::raw_sample> samples) {
    while (!samples.empty()) {
        const std::size_t n = std::min(samples.size(), k_max_frame_samples);
        encode_samples(sendbuf_, session, sequence, samples.first(n));
        samples = samples.subspan(n);
        sequence += static_cast<std::uint32_t>(n);
    }
}

void wire_client::queue_tick() { encode_tick(sendbuf_); }

void wire_client::queue_close(std::uint32_t session) { encode_close(sendbuf_, session); }

void wire_client::queue_bye() { encode_bye(sendbuf_); }

void wire_client::flush() {
    FS_CHECK(fd_ >= 0, "flush on a moved-from client");
    std::size_t off = 0;
    while (off < sendbuf_.size()) {
        const ssize_t n =
            ::send(fd_, sendbuf_.data() + off, sendbuf_.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR) continue;
        throw_errno("wire_client send");
    }
    stats_.bytes_sent += sendbuf_.size();
    sendbuf_.clear();
}

void wire_client::consume(std::span<const std::uint8_t> bytes) {
    stats_.bytes_received += bytes.size();
    decoder_.push(bytes);
    while (decoder_.next(scratch_) == decode_status::ok) {
        if (scratch_.type != frame_type::status) continue;  // server sends only status
        ++stats_.status_frames_in;
        switch (static_cast<status_code>(scratch_.status)) {
            case status_code::queue_full: ++stats_.reject_frames_in; break;
            case status_code::unknown_session: ++stats_.unknown_session_in; break;
            case status_code::malformed_frame: ++stats_.malformed_frames_in; break;
            case status_code::invalid_sample: break;  // counted in status_frames_in
        }
    }
}

void wire_client::poll_statuses() {
    std::uint8_t buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
            consume({buf, static_cast<std::size_t>(n)});
            continue;
        }
        if (n == 0) return;  // EOF; drain_to_eof reports it to the caller
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        throw_errno("wire_client recv");
    }
}

void wire_client::drain_to_eof() {
    std::uint8_t buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n > 0) {
            consume({buf, static_cast<std::size_t>(n)});
            continue;
        }
        if (n == 0) return;
        if (errno == EINTR) continue;
        throw_errno("wire_client recv");
    }
}

}  // namespace fallsense::net
