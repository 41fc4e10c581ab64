// Robustness tests for the scheduler-service frame codec (svc/frame.h):
// round-trips, byte-at-a-time streaming, truncation, oversize, corruption,
// resynchronization past garbage, and a deterministic fuzz sweep.  The
// codec's contract is "never crash, never misparse a later healthy frame".
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "svc/frame.h"
#include "util/rng.h"

namespace svc = helcfl::svc;
using helcfl::util::Rng;

namespace {

svc::Frame make_report_frame(std::uint64_t device, std::uint64_t seq) {
  svc::DeviceReport report;
  report.device_id = device;
  report.report_seq = seq;
  report.t_cal_max_s = 0.25 + 0.001 * static_cast<double>(device);
  report.t_com_s = 0.125;
  return svc::encode(report);
}

/// Drains every decodable frame; rejections are tallied by the decoder.
std::vector<svc::Frame> drain(svc::FrameDecoder& decoder) {
  std::vector<svc::Frame> frames;
  svc::Frame frame;
  svc::FrameError error;
  for (;;) {
    const auto result = decoder.next(frame, error);
    if (result == svc::FrameDecoder::Result::kNeedMore) break;
    if (result == svc::FrameDecoder::Result::kFrame) {
      frames.push_back(frame);
    }
  }
  return frames;
}

}  // namespace

TEST(SvcFrame, MessageRoundTrips) {
  svc::DeviceReport report;
  report.device_id = 17;
  report.report_seq = 3;
  report.t_cal_max_s = 0.75;
  report.t_com_s = 0.0625;
  const svc::Frame rf = svc::encode(report);
  EXPECT_EQ(rf.type, svc::MsgType::kDeviceReport);
  const svc::DeviceReport r2 = svc::decode_device_report(rf.payload);
  EXPECT_EQ(r2.device_id, 17u);
  EXPECT_EQ(r2.report_seq, 3u);
  EXPECT_EQ(r2.t_cal_max_s, 0.75);
  EXPECT_EQ(r2.t_com_s, 0.0625);

  const svc::ReportAck a2 = svc::decode_report_ack(
      svc::encode(svc::ReportAck{17, 3}).payload);
  EXPECT_EQ(a2.device_id, 17u);
  EXPECT_EQ(a2.report_seq, 3u);

  svc::DecisionResponse response;
  response.controller_seq = 9;
  response.round = 8;
  response.degraded = true;
  response.selected = {4, 1, 7};
  response.frequencies_hz = {1e9, 2e9, 1.5e9};
  const svc::DecisionResponse d2 =
      svc::decode_decision_response(svc::encode(response).payload);
  EXPECT_EQ(d2.controller_seq, 9u);
  EXPECT_EQ(d2.round, 8u);
  EXPECT_TRUE(d2.degraded);
  EXPECT_EQ(d2.selected, response.selected);
  EXPECT_EQ(d2.frequencies_hz, response.frequencies_hz);
}

TEST(SvcFrame, MalformedPayloadsThrowSerialError) {
  // Truncated payload and trailing bytes both fail the strict decoders.
  const svc::Frame frame = make_report_frame(1, 1);
  std::vector<std::uint8_t> short_payload(frame.payload.begin(),
                                          frame.payload.end() - 1);
  EXPECT_THROW(svc::decode_device_report(short_payload),
               helcfl::util::SerialError);
  std::vector<std::uint8_t> long_payload = frame.payload;
  long_payload.push_back(0);
  EXPECT_THROW(svc::decode_device_report(long_payload),
               helcfl::util::SerialError);
  // A response whose selected/frequency lists disagree in length is
  // rejected even though both lists parse.
  svc::DecisionResponse response;
  response.controller_seq = 1;
  response.selected = {1, 2};
  response.frequencies_hz = {1e9};
  EXPECT_THROW(svc::decode_decision_response(svc::encode(response).payload),
               helcfl::util::SerialError);
}

TEST(SvcFrame, StreamingDecodeOneByteAtATime) {
  svc::FrameDecoder decoder;
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 3; ++i) {
    const auto bytes = svc::encode_frame(make_report_frame(i, i + 1));
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  std::vector<svc::Frame> frames;
  for (const std::uint8_t byte : wire) {
    decoder.feed({&byte, 1});
    const auto out = drain(decoder);
    frames.insert(frames.end(), out.begin(), out.end());
  }
  ASSERT_EQ(frames.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto report = svc::decode_device_report(frames[i].payload);
    EXPECT_EQ(report.device_id, i);
    EXPECT_EQ(report.report_seq, i + 1);
  }
  EXPECT_EQ(decoder.stats().rejected, 0u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(SvcFrame, ChecksumMismatchIsRejectedAndRecovered) {
  // Flip one payload byte of the first frame; the second must still parse.
  auto bad = svc::encode_frame(make_report_frame(1, 1));
  bad[svc::kFrameHeaderBytes] ^= 0x40;
  const auto good = svc::encode_frame(make_report_frame(2, 2));

  svc::FrameDecoder decoder;
  decoder.feed(bad);
  decoder.feed(good);
  const auto frames = drain(decoder);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(svc::decode_device_report(frames[0].payload).device_id, 2u);
  EXPECT_GE(decoder.stats().rejected, 1u);
}

TEST(SvcFrame, OversizedLengthIsRejectedBeforeBuffering) {
  // Hand-build a header declaring a payload far above kMaxPayloadBytes;
  // the decoder must reject from the header alone (no allocation, no wait).
  helcfl::util::ByteWriter w;
  w.u32(svc::kFrameMagic);
  w.u32(svc::kFrameVersion);
  w.u32(static_cast<std::uint32_t>(svc::MsgType::kDeviceReport));
  w.u64(std::uint64_t{1} << 60);
  w.u64(0);  // checksum, never reached
  svc::FrameDecoder decoder;
  decoder.feed(w.data());
  svc::Frame frame;
  svc::FrameError error;
  ASSERT_EQ(decoder.next(frame, error), svc::FrameDecoder::Result::kRejected);
  EXPECT_EQ(error, svc::FrameError::kOversized);
  // A healthy frame fed afterwards still decodes.
  decoder.feed(svc::encode_frame(make_report_frame(5, 1)));
  EXPECT_EQ(drain(decoder).size(), 1u);
}

TEST(SvcFrame, BadVersionAndBadTypeAreDistinctRejections) {
  helcfl::util::ByteWriter v;
  v.u32(svc::kFrameMagic);
  v.u32(svc::kFrameVersion + 7);
  v.u32(1);
  v.u64(0);
  v.u64(helcfl::util::fnv1a64({}));
  svc::FrameDecoder decoder;
  decoder.feed(v.data());
  svc::Frame frame;
  svc::FrameError error;
  ASSERT_EQ(decoder.next(frame, error), svc::FrameDecoder::Result::kRejected);
  EXPECT_EQ(error, svc::FrameError::kBadVersion);

  helcfl::util::ByteWriter t;
  t.u32(svc::kFrameMagic);
  t.u32(svc::kFrameVersion);
  t.u32(999);
  t.u64(0);
  t.u64(helcfl::util::fnv1a64({}));
  svc::FrameDecoder fresh;
  fresh.feed(t.data());
  ASSERT_EQ(fresh.next(frame, error), svc::FrameDecoder::Result::kRejected);
  EXPECT_EQ(error, svc::FrameError::kBadType);
}

TEST(SvcFrame, ResynchronizesPastLeadingGarbage) {
  std::vector<std::uint8_t> wire(37, 0xAB);  // no magic anywhere
  const auto good = svc::encode_frame(make_report_frame(3, 4));
  wire.insert(wire.end(), good.begin(), good.end());
  svc::FrameDecoder decoder;
  decoder.feed(wire);
  const auto frames = drain(decoder);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(svc::decode_device_report(frames[0].payload).device_id, 3u);
  EXPECT_GE(decoder.stats().resync_bytes, 37u);
}

TEST(SvcFrame, DatagramModeRejectsTornTail) {
  const auto a = svc::encode_frame(make_report_frame(1, 1));
  const auto b = svc::encode_frame(make_report_frame(2, 1));
  std::vector<std::uint8_t> datagram = a;
  datagram.insert(datagram.end(), b.begin(), b.end() - 5);  // torn tail

  std::vector<svc::Frame> frames;
  std::vector<svc::FrameError> errors;
  svc::decode_datagram(datagram, frames, errors);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.back(), svc::FrameError::kTruncated);
}

TEST(SvcFrame, ErrorNamesAreStable) {
  EXPECT_EQ(svc::frame_error_name(svc::FrameError::kBadMagic), "bad_magic");
  EXPECT_EQ(svc::frame_error_name(svc::FrameError::kChecksumMismatch),
            "checksum_mismatch");
  EXPECT_EQ(svc::frame_error_name(svc::FrameError::kTruncated), "truncated");
}

// Deterministic fuzz: random mutations of a healthy multi-frame stream must
// never crash the decoder or stall it (every next() call makes progress).
TEST(SvcFrame, FuzzedStreamsNeverCrashOrStall) {
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> wire;
    const int n_frames = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < n_frames; ++i) {
      const auto bytes = svc::encode_frame(
          make_report_frame(static_cast<std::uint64_t>(i), trial + 1));
      wire.insert(wire.end(), bytes.begin(), bytes.end());
    }
    // Mutate: flip bytes, truncate, or splice garbage.
    const int mode = static_cast<int>(rng.uniform_int(0, 2));
    if (mode == 0) {
      const int flips = static_cast<int>(rng.uniform_int(1, 8));
      for (int f = 0; f < flips; ++f) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
        wire[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      }
    } else if (mode == 1) {
      wire.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size()))));
    } else {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size())));
      std::vector<std::uint8_t> junk(
          static_cast<std::size_t>(rng.uniform_int(1, 64)));
      for (auto& b : junk) {
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      wire.insert(wire.begin() + static_cast<std::ptrdiff_t>(at),
                  junk.begin(), junk.end());
    }

    svc::FrameDecoder decoder;
    decoder.feed(wire);
    svc::Frame frame;
    svc::FrameError error;
    // Progress bound: a stalled decoder would loop forever; cap iterations
    // well above the theoretical maximum of one event per wire byte.
    std::size_t iterations = 0;
    const std::size_t limit = 2 * wire.size() + 16;
    for (;;) {
      const auto result = decoder.next(frame, error);
      if (result == svc::FrameDecoder::Result::kNeedMore) break;
      ASSERT_LT(++iterations, limit) << "decoder stalled on trial " << trial;
      if (result == svc::FrameDecoder::Result::kFrame) {
        // A checksum-valid frame must parse or reject cleanly — no crash.
        try {
          (void)svc::decode_device_report(frame.payload);
        } catch (const helcfl::util::SerialError&) {
        }
      }
    }
  }
}
