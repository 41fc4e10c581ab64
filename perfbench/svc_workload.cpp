// `svc_fleet`: the FLCC scheduler service at fleet scale behind a real
// socket.  A SchedulerService over Q = 100 000 devices (C = 0.001, so 100
// picks per decision) sits behind a SocketServer on a Unix socket with one
// ingress thread.  One controller connection runs a closed loop, because
// the FLCC waits for each decision (Algorithm 1): 256 reports from seeded
// random devices, one decision request, then wait for the decision.
//
// The service's logical clock is the decision index, advanced only
// between decisions, so lease expiry is a function of the frame stream
// alone.  Correctness: the digest of every decision received over the
// socket must equal that of an in-process SchedulerService fed the same
// frames, which also gives the in-process cost of each decision.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "obs/registry.h"
#include "sched/scheduler.h"
#include "sim/config.h"
#include "sim/fleet.h"
#include "svc/frame.h"
#include "svc/listener.h"
#include "svc/service.h"
#include "svc/transport.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace helcfl;
namespace fs = std::filesystem;

constexpr std::size_t kDevices = 100'000;
constexpr double kFraction = 0.001;
constexpr std::size_t kReportsPerDecision = 256;
// A device silent for this many decisions is parked: with 256 random
// reporters per decision about a quarter of the fleet is parked at any
// time, so expiry and revival both run every decision.
constexpr std::uint64_t kLeaseTicks = 512;
// The traced pass runs a fixed number of decisions, so its span totals
// and counts are per unit of work like the FL workloads' 300 rounds.
constexpr std::uint64_t kTracedDecisions = 1000;
constexpr std::size_t kSetupReps = 31;
constexpr int kResponseTimeoutMs = 5000;
constexpr int kMaxResends = 3;
constexpr std::uint64_t kFleetStream = 3;
constexpr std::uint64_t kReportStream = 7;

std::vector<sched::UserInfo> make_users(std::uint64_t seed) {
  sim::ExperimentConfig config = sim::paper_config();
  config.n_users = kDevices;
  util::Rng rng = util::Rng(seed).fork(kFleetStream);
  const std::vector<std::size_t> samples(kDevices, 40);
  const std::vector<mec::Device> devices = sim::make_fleet(config, samples, rng);
  return sched::build_user_info(devices, sim::make_channel(config),
                                config.trainer.model_size_bits);
}

svc::ServiceOptions service_options() {
  svc::ServiceOptions options;
  options.fraction = kFraction;
  options.eta = 0.9;
  options.lease_ticks = kLeaseTicks;
  options.queue_capacity = 4 * kReportsPerDecision;
  return options;
}

/// The controller's frame stream.  Two instances built from the same users
/// and seed produce the same bytes, so the in-process replay sees exactly
/// what went over the socket.
class FrameStream {
 public:
  FrameStream(const std::vector<sched::UserInfo>& users, std::uint64_t seed)
      : users_(users),
        rng_(util::Rng(seed).fork(kReportStream)),
        report_seq_(users.size(), 0) {}

  /// Decision `k`'s wire bytes: 256 device reports, then the request with
  /// controller_seq k + 1.
  const std::vector<std::uint8_t>& next(std::uint64_t k) {
    bytes_.clear();
    for (std::size_t i = 0; i < kReportsPerDecision; ++i) {
      const auto d = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(users_.size()) - 1));
      svc::DeviceReport report;
      report.device_id = d;
      report.report_seq = ++report_seq_[d];
      report.t_cal_max_s = users_[d].t_cal_max_s * rng_.uniform(0.8, 1.25);
      report.t_com_s = users_[d].t_com_s * rng_.uniform(0.8, 1.25);
      append(svc::encode(report));
    }
    append(svc::encode(svc::DecisionRequest{k + 1, k}));
    return bytes_;
  }

  std::size_t request_bytes() const { return request_bytes_; }

 private:
  void append(const svc::Frame& frame) {
    const std::vector<std::uint8_t> encoded = svc::encode_frame(frame);
    bytes_.insert(bytes_.end(), encoded.begin(), encoded.end());
    request_bytes_ = encoded.size();  // the request is appended last
  }

  const std::vector<sched::UserInfo>& users_;
  util::Rng rng_;
  std::vector<std::uint64_t> report_seq_;
  std::vector<std::uint8_t> bytes_;
  std::size_t request_bytes_ = 0;
};

/// Chained digest of the decision responses seen so far: `chain[k]` covers
/// decisions 0..k, so passes of different lengths compare on a prefix.
void extend(std::vector<std::uint64_t>& chain, std::span<const std::uint8_t> bytes) {
  chain.push_back(fnv1a(bytes, chain.empty() ? 0xcbf29ce484222325ULL : chain.back()));
}

/// A live server with its service and one controller connection.
struct Deployment {
  std::atomic<std::uint64_t> tick{0};
  svc::SchedulerService service;
  svc::SocketServer server;
  std::optional<svc::ClientChannel> channel;

  Deployment(const std::vector<sched::UserInfo>& users, const std::string& socket_path,
             obs::Instruments instruments)
      : service(users, service_options(), instruments),
        server(service, svc::Endpoint::parse("unix:" + socket_path),
               [this] {
                 svc::ServerOptions options;
                 options.ingress_threads = 1;
                 options.tick_source = [this] { return tick.load(); };
                 return options;
               }(),
               instruments) {
    server.start();
    channel.emplace(server.endpoint());
  }

  ~Deployment() {
    channel.reset();
    server.stop();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
};

struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  ///< completion time of each decision in the loop
  std::vector<std::uint64_t> chain;
  std::uint64_t failed = 0;
  std::uint64_t frames = 0;  ///< sent + received
  std::uint64_t bytes = 0;   ///< sent + received
};

/// The closed loop: decisions until `seconds` have passed and at least
/// `min_decisions` are done, or until `max_decisions` are done.  A
/// decision fails when its acks are not exactly one per report, when it is
/// marked degraded, or when its request had to be resent.
LoopResult closed_loop(Deployment& deployment, const std::vector<sched::UserInfo>& users,
                       std::uint64_t seed, double seconds, std::uint64_t min_decisions,
                       std::uint64_t max_decisions) {
  LoopResult result;
  FrameStream stream(users, seed);
  std::vector<svc::Frame> inbox;
  const auto start = Clock::now();
  for (std::uint64_t k = 0;
       k < max_decisions && (k < min_decisions || seconds_since(start) < seconds); ++k) {
    const std::vector<std::uint8_t>& bytes = stream.next(k);
    const auto sent = Clock::now();
    if (!deployment.channel->send_frame(bytes)) {
      throw std::runtime_error("svc_fleet: controller connection closed");
    }
    result.frames += kReportsPerDecision + 1;
    result.bytes += bytes.size();

    std::size_t acks = 0;
    int resends = 0;
    bool degraded = false;
    std::optional<std::vector<std::uint8_t>> response;
    auto waited_since = Clock::now();
    while (!response) {
      inbox.clear();
      deployment.channel->poll_frames(inbox, 100);
      if (!deployment.channel->connected()) {
        throw std::runtime_error("svc_fleet: server closed the connection");
      }
      for (const svc::Frame& frame : inbox) {
        ++result.frames;
        result.bytes += svc::kFrameHeaderBytes + frame.payload.size();
        if (frame.type == svc::MsgType::kReportAck) {
          ++acks;
        } else if (frame.type == svc::MsgType::kDecisionResponse) {
          const svc::DecisionResponse decoded = svc::decode_decision_response(frame.payload);
          if (decoded.controller_seq == k + 1) {
            degraded = decoded.degraded;
            response = svc::encode_frame(frame);  // the wire bytes, for the digest
          }
        }
      }
      if (!response && seconds_since(waited_since) * 1000.0 > kResponseTimeoutMs) {
        if (++resends > kMaxResends) {
          throw std::runtime_error("svc_fleet: no decision after resending the request");
        }
        const std::span<const std::uint8_t> request(
            bytes.data() + bytes.size() - stream.request_bytes(), stream.request_bytes());
        deployment.channel->send_frame(request);
        waited_since = Clock::now();
      }
    }
    const auto done = Clock::now();
    result.latency_ms.push_back(std::chrono::duration<double, std::milli>(done - sent).count());
    result.done_s.push_back(std::chrono::duration<double>(done - start).count());
    if (acks != kReportsPerDecision || degraded || resends > 0) ++result.failed;
    extend(result.chain, *response);
    deployment.tick.store(k + 1);
  }
  result.failed += deployment.channel->decode_stats().rejected;
  return result;
}

struct Replay {
  std::vector<std::uint64_t> chain;
  std::vector<double> ingest_us;
  std::vector<double> poll_us;
};

/// The same frames through an in-process SchedulerService, one datagram
/// per decision at the decision's tick.
Replay replay(const std::vector<sched::UserInfo>& users, std::uint64_t seed,
              std::uint64_t decisions) {
  Replay result;
  svc::SchedulerService service(users, service_options());
  FrameStream stream(users, seed);
  std::vector<svc::Frame> decoded;
  std::vector<svc::FrameError> errors;
  for (std::uint64_t k = 0; k < decisions; ++k) {
    const std::vector<std::uint8_t>& bytes = stream.next(k);
    const auto t0 = Clock::now();
    service.ingest(bytes, k);
    const auto t1 = Clock::now();
    service.poll(k);
    const auto t2 = Clock::now();
    result.ingest_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    result.poll_us.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
    for (const std::vector<std::uint8_t>& frame : service.take_outbox()) {
      decoded.clear();
      svc::decode_datagram(frame, decoded, errors);
      if (decoded.size() == 1 && decoded.front().type == svc::MsgType::kDecisionResponse) {
        extend(result.chain, frame);
      }
    }
  }
  return result;
}

bool prefix_matches(const std::vector<std::uint64_t>& socket,
                    const std::vector<std::uint64_t>& reference) {
  return !socket.empty() && socket.size() <= reference.size() &&
         socket.back() == reference[socket.size() - 1];
}

}  // namespace

Report run_svc(const RunArgs& args) {
  fs::create_directories(args.workdir);
  const std::string socket_path = args.workdir + "/svc.sock";
  Report report;

  // Set-up: fleet, service, listening server and controller connection,
  // repeated so setup_s is a median; the last deployment is measured.
  std::vector<sched::UserInfo> users;
  std::unique_ptr<Deployment> deployment;
  for (std::size_t n = 0; n < kSetupReps; ++n) {
    deployment.reset();
    const auto start = Clock::now();
    users = make_users(args.seed);
    report.layer("sim.fleet_s", seconds_since(start));
    deployment = std::make_unique<Deployment>(users, socket_path, obs::Instruments{});
    report.samples["setup_s"].push_back(seconds_since(start));
  }

  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const LoopResult untraced =
      closed_loop(*deployment, users, args.seed, window, kMinOps, UINT64_MAX);
  deployment.reset();
  report.samples["op_ms"] = untraced.latency_ms;
  report.samples["op_done_s"] = untraced.done_s;
  report.attempted += untraced.latency_ms.size();
  if (!untraced.chain.empty()) report.digest = hex(untraced.chain.back());
  report.failed += untraced.failed;

  std::uint64_t replay_length = untraced.chain.size();
  std::optional<LoopResult> traced;
  if (args.trace) {
    SpanRecorder recorder;
    obs::Registry registry;
    std::uint64_t begin_us = 0, end_us = 0;
    {
      Deployment traced_deployment(users, socket_path,
                                   {nullptr, &recorder.profiler(), &registry});
      begin_us = recorder.profiler().now_us();
      traced = closed_loop(traced_deployment, users, args.seed, 0.0, kTracedDecisions,
                           kTracedDecisions);
      end_us = recorder.profiler().now_us();
    }
    replay_length = std::max<std::uint64_t>(replay_length, traced->chain.size());
    report.attempted += traced->latency_ms.size();
    report.failed += traced->failed;
    report.samples["traced_op_ms"] = traced->latency_ms;

    const std::vector<Span> spans = recorder.spans();
    report.layer("core.select_s", total_s(spans, "greedy_decay"));
    report.layer("core.dvfs_s", total_s(spans, "freq_determination"));
    report.layer("core.select_calls", span_count(spans, "greedy_decay"));
    report.layer("trace.unattributed_ratio", unattributed_ratio(spans, begin_us, end_us));

    const double decisions = static_cast<double>(traced->latency_ms.size());
    auto counter = [&](std::string_view name) {
      return static_cast<double>(registry.counter(name));
    };
    report.layer("svc.frames_per_decision", static_cast<double>(traced->frames) / decisions);
    report.layer("svc.bytes_per_decision", static_cast<double>(traced->bytes) / decisions);
    report.layer("svc.reports_applied", counter("svc.reports_applied"));
    report.layer("svc.frames_rejected", counter("svc.frames_rejected"));
    report.layer("svc.reports_shed", counter("svc.sheds"));
    report.layer("svc.ingress_frames", counter("svc.ingress_frames"));
  }

  const Replay reference = replay(users, args.seed, replay_length);
  bool match = prefix_matches(untraced.chain, reference.chain);
  report.check("decisions_match_in_process", match,
               std::to_string(untraced.chain.size()) + " socket decisions");
  if (traced) {
    const bool traced_match = prefix_matches(traced->chain, reference.chain);
    report.check("traced_decisions_match_in_process", traced_match);
    match = match && traced_match;
    report.samples["replay_ingest_us"] = reference.ingest_us;
    report.samples["replay_poll_us"] = reference.poll_us;
  }
  if (!match) report.failed = report.attempted;
  return report;
}

}  // namespace perfbench
