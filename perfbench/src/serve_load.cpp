#include "serve_load.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <deque>

#include "src/api/serve.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// A phase that makes no progress for this long is abandoned as failed,
/// so a wedged server cannot hang the benchmark.
constexpr auto kStallLimit = std::chrono::seconds(30);

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Conn {
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::deque<std::size_t> pending;  ///< request indices awaiting a response
};

}  // namespace

WireClient::WireClient(const std::string& address, int connections) {
    for (int i = 0; i < connections; ++i) {
        const int fd = preinfer::api::connect_client(address, &error_);
        if (fd < 0) {
            ok_ = false;
            return;
        }
        fds_.push_back(fd);
    }
}

WireClient::~WireClient() {
    for (const int fd : fds_) ::close(fd);
}

PhaseResult WireClient::open_loop(const std::vector<std::string>& lines,
                                  double rate_per_s) {
    return run(lines, true, rate_per_s);
}

PhaseResult WireClient::closed_loop(const std::vector<std::string>& lines) {
    return run(lines, false, 0);
}

PhaseResult WireClient::run(const std::vector<std::string>& lines, bool open,
                            double rate_per_s) {
    const std::size_t n = lines.size();
    const std::size_t c_count = fds_.size();
    PhaseResult r;
    r.responses.resize(n);
    r.latency_ms.resize(n);
    if (open) r.lag_ms.resize(n);
    if (n == 0 || !ok_) {
        r.io_ok = ok_;
        return r;
    }
    std::vector<Conn> conns(c_count);
    std::vector<Clock::time_point> started(n);
    const Clock::time_point t0 = Clock::now();
    const auto due = [&](std::size_t i) {
        return t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                        static_cast<double>(i) * 1e9 / rate_per_s));
    };
    const auto enqueue = [&](std::size_t i, std::size_t c, Clock::time_point now) {
        conns[c].out += lines[i];
        conns[c].out += '\n';
        conns[c].pending.push_back(i);
        if (open) {
            started[i] = due(i);
            r.lag_ms[i] = ms_between(due(i), now);
        } else {
            started[i] = now;
        }
    };

    std::size_t next = 0;
    std::size_t done = 0;
    if (!open) {
        const Clock::time_point now = Clock::now();
        for (std::size_t c = 0; c < c_count && next < n; ++c) enqueue(next++, c, now);
    }
    Clock::time_point last_progress = t0;
    Clock::time_point last_done = t0;
    std::vector<pollfd> pfds(c_count);
    char chunk[65536];
    while (done < n) {
        Clock::time_point now = Clock::now();
        if (open) {
            while (next < n && due(next) <= now) {
                enqueue(next, next % c_count, now);
                ++next;
            }
        }
        for (std::size_t c = 0; c < c_count; ++c) {
            Conn& conn = conns[c];
            while (conn.out_off < conn.out.size()) {
                const ssize_t k = ::send(fds_[c], conn.out.data() + conn.out_off,
                                         conn.out.size() - conn.out_off,
                                         MSG_NOSIGNAL | MSG_DONTWAIT);
                if (k > 0) {
                    conn.out_off += static_cast<std::size_t>(k);
                    continue;
                }
                if (k < 0 && errno == EINTR) continue;
                if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                r.io_ok = false;
                return r;
            }
            if (conn.out_off == conn.out.size()) {
                conn.out.clear();
                conn.out_off = 0;
            }
            pfds[c].fd = fds_[c];
            pfds[c].events = static_cast<short>(
                (conn.pending.empty() ? 0 : POLLIN) | (conn.out.empty() ? 0 : POLLOUT));
            pfds[c].revents = 0;
        }
        // Sleep until the next request is due, a response arrives, or a
        // second passes (the stall check).
        auto wait = std::chrono::nanoseconds(std::chrono::seconds(1));
        if (open && next < n) {
            wait = std::min(wait, std::chrono::duration_cast<std::chrono::nanoseconds>(
                                      due(next) - now));
        }
        if (wait.count() < 0) wait = std::chrono::nanoseconds(0);
        const timespec ts{static_cast<time_t>(wait.count() / 1000000000),
                          static_cast<long>(wait.count() % 1000000000)};
        const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
        if (ready < 0 && errno != EINTR) {
            r.io_ok = false;
            return r;
        }
        now = Clock::now();
        for (std::size_t c = 0; c < c_count && ready > 0; ++c) {
            if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
            Conn& conn = conns[c];
            for (;;) {
                const ssize_t k = ::recv(fds_[c], chunk, sizeof chunk, MSG_DONTWAIT);
                if (k > 0) {
                    conn.in.append(chunk, static_cast<std::size_t>(k));
                    continue;
                }
                if (k < 0 && errno == EINTR) continue;
                if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                r.io_ok = false;  // EOF or error with responses outstanding
                return r;
            }
            std::size_t pos = 0;
            for (std::size_t nl; (nl = conn.in.find('\n', pos)) != std::string::npos;
                 pos = nl + 1) {
                if (conn.pending.empty()) {
                    r.io_ok = false;  // a response nobody asked for
                    return r;
                }
                const std::size_t i = conn.pending.front();
                conn.pending.pop_front();
                r.responses[i].assign(conn.in, pos, nl - pos);
                r.response_bytes += nl - pos + 1;
                r.latency_ms[i] = ms_between(started[i], now);
                ++done;
                last_progress = now;
                last_done = now;
                if (!open && next < n) enqueue(next++, c, now);
            }
            conn.in.erase(0, pos);
        }
        if (now - last_progress > kStallLimit) {
            r.io_ok = false;
            return r;
        }
    }
    r.wall_ms = ms_between(t0, last_done);
    return r;
}

}  // namespace perfbench
