// Socket front end for SchedulerService (docs/SERVICE.md §8).
//
// SocketServer turns the single-threaded, logical-tick service core into a
// network server without touching its decision semantics.  One loop
// thread owns the listen socket, every connection and the service; each
// lap it
//
//   1. ppoll()s the listen socket and every connection (at most
//      kIdlePollInterval, 500 µs, so leases expire on time and stop() is
//      seen promptly);
//   2. accepts pending connections;
//   3. reads every readable connection, reassembles frames with its
//      streaming decoder (svc/transport.h) and ingests each one into
//      SchedulerService at a logical tick derived from wall time (or an
//      injected tick_source);
//   4. polls the service and queues each outbox frame on its connection;
//   5. flushes each connection once.
//
// The service sees exactly the calls it would see in-process, so
// `controller_seq` exactly-once processing and snapshot byte-identity are
// what they were there.  The service's bounded report queue
// (`queue_capacity`, `svc.sheds`) is the only place load is shed.
//
// Response routing: a ReportAck goes to the connection that most recently
// sent a report for that device; a DecisionResponse goes to the connection
// that most recently sent a decision request.  A response whose connection
// died is dropped (`svc.egress_unroutable`) — the peer's retransmit (after
// reconnecting) recovers it, exactly like a lost datagram.
//
// Slow peers: each connection's output buffer is bounded
// (max_conn_output_bytes); a peer that stops reading long enough to fill
// it is disconnected (`svc.conn_stalled`) rather than buffered without
// bound.  Disconnection is never fatal to the protocol: the lease model
// parks silent devices, retries re-deliver lost messages.
//
// stop() drains gracefully: the loop stops accepting and reading, polls
// the service one last time, routes its outbox, flushes pending output
// for at most kDrainTimeout (one second), then closes every socket.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "obs/instruments.h"
#include "svc/service.h"
#include "svc/transport.h"

namespace helcfl::svc {

/// Aggregated transport-level health counters (mirrored into the attached
/// obs::Registry under the svc.conn_* / svc.ingress_* / svc.egress_*
/// names in docs/OBSERVABILITY.md).
struct ServerStats {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_closed = 0;    ///< every close, any reason
  std::uint64_t conns_stalled = 0;   ///< closed for output-backlog overflow
  std::uint64_t ingress_frames = 0;  ///< validated frames handed to the service
  std::uint64_t egress_frames = 0;   ///< outbox frames routed to a peer
  /// Mirror of the service's decision counter, published by the loop
  /// thread — the race-free way to watch progress while the server runs.
  std::uint64_t decisions_issued = 0;
};

struct ServerOptions {
  /// Must be 1: one loop thread serves every socket.  Kept only because
  /// the repository benchmark's svc workload still assigns it.
  std::size_t ingress_threads = 1;

  /// Per-connection output backlog bound; exceeding it closes the
  /// connection (slow-client backpressure).
  std::size_t max_conn_output_bytes = std::size_t{8} << 20;

  /// When > 0, applied to every accepted socket (tests shrink it to force
  /// short writes); 0 keeps the OS default.
  int conn_send_buffer_bytes = 0;

  /// Logical clock for the service core.  Default (unset): milliseconds
  /// of wall time since start().  Tests inject a counter they control so
  /// lease expiry is deterministic.
  std::function<std::uint64_t()> tick_source;

  /// Throws ServiceError with an actionable message on bad knobs.
  void validate() const;
};

/// See the header comment.  The service is borrowed: the caller constructs
/// (and may snapshot/restore) it, but must not touch it between start()
/// and stop() — the loop thread is the only permitted caller.  start(),
/// stop() and stats() are the only members other threads may call.
class SocketServer {
 public:
  SocketServer(SchedulerService& service, const Endpoint& endpoint,
               const ServerOptions& options, obs::Instruments instruments = {});
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and spawns the loop thread.  Throws
  /// TransportError/ServiceError on setup failure.
  void start();

  /// Graceful drain; idempotent.  Safe to call from any thread except the
  /// server's own.
  void stop();

  /// The bound endpoint (resolves an ephemeral tcp:...:0 port).  Only
  /// valid after start().
  const Endpoint& endpoint() const { return bound_endpoint_; }

  ServerStats stats() const;

 private:
  using ConnMap = std::unordered_map<std::uint64_t, FramedConn>;

  void serve_loop();
  void accept_pending();
  /// Reads one readable connection and ingests its frames at `tick`;
  /// closes it on EOF, error or `hung_up`.
  void read_conn(std::uint64_t conn_id, std::uint64_t tick, bool hung_up);
  /// Polls the service and queues its outbox on the routed connections.
  void poll_and_route(std::uint64_t tick);
  /// Connection that should receive one encoded outbox frame (0 = none).
  std::uint64_t route_of(std::span<const std::uint8_t> frame_bytes) const;
  ConnMap::iterator close_conn(ConnMap::iterator it);
  void drain_output();
  std::uint64_t current_tick() const;
  void count(std::string_view name, std::uint64_t delta = 1);
  void trace_conn(std::uint64_t conn_id, std::string_view kind);

  SchedulerService& service_;
  Endpoint requested_endpoint_;
  Endpoint bound_endpoint_;
  ServerOptions options_;
  obs::Instruments instruments_;

  // Loop thread only (between start() and stop()).
  Socket listen_socket_;
  ConnMap conns_;
  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::uint64_t> device_route_;
  std::uint64_t controller_conn_ = 0;

  std::chrono::steady_clock::time_point start_time_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  // Written by the loop thread, read by stats() from any thread.
  struct AtomicStats {
    std::atomic<std::uint64_t> conns_accepted{0};
    std::atomic<std::uint64_t> conns_closed{0};
    std::atomic<std::uint64_t> conns_stalled{0};
    std::atomic<std::uint64_t> ingress_frames{0};
    std::atomic<std::uint64_t> egress_frames{0};
    std::atomic<std::uint64_t> decisions_issued{0};
  };
  AtomicStats stats_;

  std::thread thread_;  ///< last: it uses every member above
};

}  // namespace helcfl::svc
