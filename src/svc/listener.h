// Multi-threaded socket front end for SchedulerService (docs/SERVICE.md §7).
//
// SocketServer turns the single-threaded, logical-tick service core into a
// network server without touching its decision semantics:
//
//   acceptor thread ──► reader threads (N) ──► bounded ingress queue ──►
//                                             service thread (the ONLY
//                                             caller of SchedulerService)
//
//   * the acceptor accepts connections and assigns them round-robin to
//     the N reader threads;
//   * each reader poll()s its connections, reassembles frames with the
//     per-connection streaming decoder (svc/transport.h), and pushes
//     validated frames into the ingress queue — the queue is bounded and
//     sheds the *oldest queued device report* on overflow, the same
//     newest-data-wins policy the service applies to its own queue;
//   * the service thread is the sole consumer: it feeds frames to
//     SchedulerService, drives poll() on a logical tick derived from
//     wall time (or an injected tick_source), and routes the outbox back
//     to connections — so `controller_seq` exactly-once processing and
//     snapshot byte-identity are exactly what they were in-process.
//
// Response routing: a ReportAck goes to the connection that most recently
// sent a report for that device; a DecisionResponse goes to the connection
// that most recently sent a decision request.  A response whose connection
// died is dropped — the peer's retransmit (after reconnecting) recovers
// it, exactly like a lost datagram.
//
// Slow peers: each connection's output buffer is bounded
// (max_conn_output_bytes); a peer that stops reading long enough to fill
// it is disconnected (`svc.conn_stalled`) rather than buffered without
// bound.  Disconnection is never fatal to the protocol: the lease model
// parks silent devices, retries re-deliver lost messages.
//
// stop() drains gracefully: no new connections, remaining queued frames
// are processed, pending output is flushed (for at most kDrainTimeout, one
// second), then sockets close.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

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
  std::uint64_t ingress_frames = 0;  ///< validated frames queued
  std::uint64_t ingress_shed = 0;    ///< oldest-report sheds by the queue
  std::uint64_t egress_frames = 0;   ///< outbox frames routed to a peer
  /// Mirror of the service's decision counter, published by the service
  /// thread — the race-free way to watch progress while the server runs.
  std::uint64_t decisions_issued = 0;
};

struct ServerOptions {
  /// Reader threads decoding ingress in parallel (the acceptor and the
  /// service loop are one thread each on top).
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
/// and stop() — the service thread is the only permitted caller.
class SocketServer {
 public:
  SocketServer(SchedulerService& service, const Endpoint& endpoint,
               const ServerOptions& options, obs::Instruments instruments = {});
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and spawns the acceptor, reader, and service
  /// threads.  Throws TransportError/ServiceError on setup failure.
  void start();

  /// Graceful drain; idempotent.  Safe to call from any thread except the
  /// server's own.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound endpoint (resolves an ephemeral tcp:...:0 port).  Only
  /// valid after start().
  const Endpoint& endpoint() const { return bound_endpoint_; }

  ServerStats stats() const;
  std::size_t open_connections() const;

 private:
  struct Conn {
    std::uint64_t id = 0;
    std::size_t owner = 0;  ///< reader thread index
    FramedConn framed;      ///< guarded by `mutex`
    std::mutex mutex;
    std::atomic<bool> closed{false};
  };
  using ConnPtr = std::shared_ptr<Conn>;

  struct IngressItem {
    enum class Kind { kFrame, kConnClosed };
    Kind kind = Kind::kFrame;
    std::uint64_t conn_id = 0;
    Frame frame;
  };

  /// One reader thread's self-wakeable poll loop state.
  struct Reader {
    std::thread thread;
    std::mutex mutex;                ///< guards `conns`
    std::vector<ConnPtr> conns;
    int wake_read_fd = -1;
    int wake_write_fd = -1;
  };

  void acceptor_loop();
  void reader_loop(std::size_t index);
  void service_loop();

  void wake_reader(Reader& reader);
  void enqueue_ingress(IngressItem item);
  /// Routes one encoded outbox frame to its connection (nullptr = drop).
  ConnPtr route_of(std::span<const std::uint8_t> frame_bytes);
  void deliver_to_conn(const ConnPtr& conn,
                       std::span<const std::uint8_t> frame_bytes);
  std::uint64_t current_tick() const;
  void count(std::string_view name, std::uint64_t delta = 1);
  void trace_conn(std::uint64_t conn_id, std::string_view kind);
  void drain_output();

  SchedulerService& service_;
  Endpoint requested_endpoint_;
  Endpoint bound_endpoint_;
  ServerOptions options_;
  obs::Instruments instruments_;

  Socket listen_socket_;
  std::thread acceptor_thread_;
  std::vector<std::unique_ptr<Reader>> readers_;
  std::thread service_thread_;

  // Ingress queue: readers produce, the service thread consumes.
  std::mutex ingress_mutex_;
  std::condition_variable ingress_cv_;
  std::deque<IngressItem> ingress_queue_;

  // Connection registry (service thread routes by id; stop() drains).
  mutable std::mutex conns_mutex_;
  std::unordered_map<std::uint64_t, ConnPtr> conns_;
  std::atomic<std::uint64_t> next_conn_id_{1};

  // Routing state — service thread only.
  std::unordered_map<std::uint64_t, std::uint64_t> device_route_;
  std::uint64_t controller_conn_ = 0;

  std::chrono::steady_clock::time_point start_time_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};      ///< acceptor + readers exit
  std::atomic<bool> service_stop_{false};  ///< service loop final-drains
  bool started_ = false;

  // Stats (atomics: touched from acceptor/reader/service threads).
  struct AtomicStats {
    std::atomic<std::uint64_t> conns_accepted{0};
    std::atomic<std::uint64_t> conns_closed{0};
    std::atomic<std::uint64_t> conns_stalled{0};
    std::atomic<std::uint64_t> ingress_frames{0};
    std::atomic<std::uint64_t> ingress_shed{0};
    std::atomic<std::uint64_t> egress_frames{0};
    std::atomic<std::uint64_t> decisions_issued{0};
  };
  AtomicStats stats_;
};

}  // namespace helcfl::svc
