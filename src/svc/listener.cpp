#include "svc/listener.h"

#include <poll.h>

#include <ctime>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "obs/trace.h"

namespace helcfl::svc {

namespace {

/// Message type of an encoded frame without a full decode: u32 at byte 8
/// (magic | version | TYPE | size | checksum — svc/frame.h).
std::uint32_t frame_type_of(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kFrameHeaderBytes) return 0;
  return static_cast<std::uint32_t>(bytes[8]) |
         (static_cast<std::uint32_t>(bytes[9]) << 8) |
         (static_cast<std::uint32_t>(bytes[10]) << 16) |
         (static_cast<std::uint32_t>(bytes[11]) << 24);
}

/// First u64 of the payload (device_id for acks) without a full decode.
std::uint64_t payload_u64_of(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kFrameHeaderBytes + 8) return UINT64_MAX;
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | bytes[kFrameHeaderBytes + static_cast<std::size_t>(i)];
  }
  return value;
}

/// Longest wait of one loop lap when no traffic arrives — leases still
/// expire on time because every lap calls poll(tick).
constexpr std::chrono::microseconds kIdlePollInterval{500};

/// How long stop() keeps flushing pending output before closing.
constexpr std::chrono::milliseconds kDrainTimeout{1000};

}  // namespace

void ServerOptions::validate() const {
  if (ingress_threads != 1) {
    throw ServiceError(
        "ServerOptions: ingress_threads must be 1 (one thread serves every "
        "socket)");
  }
  if (max_conn_output_bytes < kFrameHeaderBytes) {
    throw ServiceError(
        "ServerOptions: max_conn_output_bytes cannot hold a frame header");
  }
}

SocketServer::SocketServer(SchedulerService& service, const Endpoint& endpoint,
                           const ServerOptions& options,
                           obs::Instruments instruments)
    : service_(service),
      requested_endpoint_(endpoint),
      bound_endpoint_(endpoint),
      options_(options),
      instruments_(instruments) {
  options_.validate();
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::count(std::string_view name, std::uint64_t delta) {
  if (instruments_.registry != nullptr) instruments_.registry->add(name, delta);
}

void SocketServer::trace_conn(std::uint64_t conn_id, std::string_view kind) {
  obs::Tracer* tracer = instruments_.tracer;
  if (tracer != nullptr && tracer->enabled(obs::TraceLevel::kRound)) {
    tracer->emit(obs::TraceLevel::kRound, "svc_conn",
                 {{"conn", conn_id}, {"kind", kind}});
  }
}

std::uint64_t SocketServer::current_tick() const {
  if (options_.tick_source) return options_.tick_source();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

void SocketServer::start() {
  if (started_) {
    throw ServiceError("SocketServer: start() called twice");
  }
  started_ = true;
  listen_socket_ = Socket::listen_on(requested_endpoint_);
  bound_endpoint_ = requested_endpoint_.kind == Endpoint::Kind::kTcp
                        ? listen_socket_.local_endpoint()
                        : requested_endpoint_;
  start_time_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { serve_loop(); });
}

void SocketServer::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

void SocketServer::serve_loop() {
  constexpr timespec kTimeout{
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(kIdlePollInterval)
             .count()};
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> polled;  ///< connection id of pfds[i + 1]

  for (;;) {
    const bool last_lap = stop_.load(std::memory_order_acquire);
    polled.clear();
    if (!last_lap) {
      pfds.assign(1, pollfd{listen_socket_.fd(), POLLIN, 0});
      for (const auto& [id, conn] : conns_) {
        const short events = conn.want_write() ? POLLIN | POLLOUT : POLLIN;
        pfds.push_back(pollfd{conn.socket().fd(), events, 0});
        polled.push_back(id);
      }
      if (::ppoll(pfds.data(), pfds.size(), &kTimeout, nullptr) < 0) continue;
      if (pfds[0].revents & POLLIN) accept_pending();
    }
    const std::uint64_t tick = current_tick();
    for (std::size_t i = 0; i < polled.size(); ++i) {
      const short revents = pfds[i + 1].revents;
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        read_conn(polled[i], tick, (revents & POLLHUP) != 0);
      }
    }
    poll_and_route(tick);
    if (last_lap) break;
    for (auto it = conns_.begin(); it != conns_.end();) {
      it = it->second.flush() == FramedConn::IoStatus::kOk ? std::next(it)
                                                          : close_conn(it);
    }
  }

  drain_output();
  for (auto it = conns_.begin(); it != conns_.end();) it = close_conn(it);
  listen_socket_.close();
}

void SocketServer::accept_pending() {
  for (;;) {
    std::optional<Socket> accepted;
    try {
      accepted = listen_socket_.accept_one();
    } catch (const TransportError&) {
      return;  // transient accept failure; retry on the next lap
    }
    if (!accepted.has_value()) return;
    if (options_.conn_send_buffer_bytes > 0) {
      try {
        accepted->set_send_buffer(options_.conn_send_buffer_bytes);
      } catch (const TransportError&) {
      }
    }
    const std::uint64_t id = next_conn_id_++;
    conns_.emplace(
        id, FramedConn(std::move(*accepted),
                       FramedConn::Options{.max_output_bytes =
                                               options_.max_conn_output_bytes}));
    stats_.conns_accepted.fetch_add(1, std::memory_order_relaxed);
    count("svc.conn_accepted");
    trace_conn(id, "accept");
  }
}

void SocketServer::read_conn(std::uint64_t conn_id, std::uint64_t tick,
                             bool hung_up) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  std::vector<Frame> frames;
  const FramedConn::IoStatus status = it->second.read_frames(frames);
  for (const Frame& frame : frames) {
    // Route bookkeeping: replies chase the latest connection a sender
    // used, so reconnects are transparent.
    if (frame.type == MsgType::kDeviceReport) {
      try {
        device_route_[decode_device_report(frame.payload).device_id] = conn_id;
      } catch (const util::SerialError&) {
        // Malformed payload: the service counts it below.
      }
    } else if (frame.type == MsgType::kDecisionRequest) {
      controller_conn_ = conn_id;
    }
    stats_.ingress_frames.fetch_add(1, std::memory_order_relaxed);
    count("svc.ingress_frames");
    service_.ingest(frame, tick);
  }
  if (status == FramedConn::IoStatus::kError) count("svc.conn_read_errors");
  // A hung-up peer has sent its last byte and can read no reply: close
  // before routing, so replies to what it sent count as unroutable.
  if (status != FramedConn::IoStatus::kOk || hung_up) close_conn(it);
}

void SocketServer::poll_and_route(std::uint64_t tick) {
  service_.poll(tick);
  for (const std::vector<std::uint8_t>& frame : service_.take_outbox()) {
    const auto it = conns_.find(route_of(frame));
    if (it == conns_.end()) {
      count("svc.egress_unroutable");
    } else if (!it->second.queue_frame(frame)) {
      stats_.conns_stalled.fetch_add(1, std::memory_order_relaxed);
      count("svc.conn_stalled");
      trace_conn(it->first, "stall");
      close_conn(it);
    } else {
      stats_.egress_frames.fetch_add(1, std::memory_order_relaxed);
      count("svc.egress_frames");
    }
  }
  stats_.decisions_issued.store(service_.stats().decisions,
                                std::memory_order_relaxed);
}

std::uint64_t SocketServer::route_of(
    std::span<const std::uint8_t> frame_bytes) const {
  const std::uint32_t type = frame_type_of(frame_bytes);
  if (type == static_cast<std::uint32_t>(MsgType::kReportAck)) {
    const auto it = device_route_.find(payload_u64_of(frame_bytes));
    return it != device_route_.end() ? it->second : 0;
  }
  if (type == static_cast<std::uint32_t>(MsgType::kDecisionResponse)) {
    return controller_conn_;
  }
  return 0;
}

SocketServer::ConnMap::iterator SocketServer::close_conn(ConnMap::iterator it) {
  const std::uint64_t id = it->first;
  std::erase_if(device_route_, [id](const auto& route) { return route.second == id; });
  if (controller_conn_ == id) controller_conn_ = 0;
  stats_.conns_closed.fetch_add(1, std::memory_order_relaxed);
  count("svc.conn_closed");
  trace_conn(id, "close");
  return conns_.erase(it);  // the FramedConn's socket closes with it
}

void SocketServer::drain_output() {
  const auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  for (auto& [id, conn] : conns_) {
    while (conn.want_write() && std::chrono::steady_clock::now() < deadline) {
      if (conn.flush() != FramedConn::IoStatus::kOk) break;
      if (!conn.want_write()) break;
      pollfd pfd{conn.socket().fd(), POLLOUT, 0};
      (void)::poll(&pfd, 1, /*timeout_ms=*/10);
    }
  }
}

ServerStats SocketServer::stats() const {
  ServerStats snapshot;
  snapshot.conns_accepted = stats_.conns_accepted.load(std::memory_order_relaxed);
  snapshot.conns_closed = stats_.conns_closed.load(std::memory_order_relaxed);
  snapshot.conns_stalled = stats_.conns_stalled.load(std::memory_order_relaxed);
  snapshot.ingress_frames = stats_.ingress_frames.load(std::memory_order_relaxed);
  snapshot.egress_frames = stats_.egress_frames.load(std::memory_order_relaxed);
  snapshot.decisions_issued =
      stats_.decisions_issued.load(std::memory_order_relaxed);
  return snapshot;
}

}  // namespace helcfl::svc
