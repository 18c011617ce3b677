#pragma once

// Load generator for the serve-generated workload: one client thread that
// drives a fixed set of connections with poll(2). The open loop sends each
// request at its scheduled time whatever the server is doing and times it
// from that moment; the closed loop keeps one request in flight per
// connection and times it from its send.

#include <string>
#include <vector>

namespace perfbench {

struct PhaseResult {
    bool io_ok = true;                   ///< no connection failed
    std::vector<std::string> responses;  ///< one line per request, in request order
    std::vector<double> latency_ms;      ///< per request
    std::vector<double> lag_ms;          ///< open loop: send time minus due time
    double wall_ms = 0;                  ///< first send to last response
    std::size_t response_bytes = 0;
};

class WireClient {
public:
    /// Connects `connections` sockets to `address`; check ok() afterwards.
    WireClient(const std::string& address, int connections);
    ~WireClient();
    WireClient(const WireClient&) = delete;
    WireClient& operator=(const WireClient&) = delete;

    [[nodiscard]] bool ok() const { return ok_; }
    [[nodiscard]] const std::string& error() const { return error_; }

    /// Open loop: request i is due at start + i / rate_per_s and goes to
    /// connection i mod connections. Latency counts from the due time.
    [[nodiscard]] PhaseResult open_loop(const std::vector<std::string>& lines,
                                        double rate_per_s);
    /// Closed loop: each connection sends its next request when the
    /// previous one is answered. Latency counts from the send.
    [[nodiscard]] PhaseResult closed_loop(const std::vector<std::string>& lines);

private:
    [[nodiscard]] PhaseResult run(const std::vector<std::string>& lines, bool open,
                                  double rate_per_s);

    std::vector<int> fds_;
    bool ok_ = true;
    std::string error_;
};

}  // namespace perfbench
