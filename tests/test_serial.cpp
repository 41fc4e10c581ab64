// The serialization substrate of the checkpoint format: fixed-width
// little-endian round-trips, bit-exact float transport (NaN payloads
// included), strict overrun handling, and bounds-checked length prefixes
// that cannot be used to force giant allocations.  Also the snapshot
// envelope (seal/unseal) that checkpoints and service snapshots share: its
// rejection table runs under both formats' magics, checked by message.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/serial.h"

namespace helcfl::util {
namespace {

TEST(ByteWriterReader, ScalarRoundTrip) {
  ByteWriter out;
  out.u8(0x7F);
  out.u32(0xDEADBEEF);
  out.u64(0x0123456789ABCDEFULL);
  out.f64(3.141592653589793);
  out.boolean(true);
  out.boolean(false);
  out.str("hello");
  out.str("");

  ByteReader in(out.data());
  EXPECT_EQ(in.u8(), 0x7F);
  EXPECT_EQ(in.u32(), 0xDEADBEEFU);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(in.f64(), 3.141592653589793);
  EXPECT_TRUE(in.boolean());
  EXPECT_FALSE(in.boolean());
  EXPECT_EQ(in.str(), "hello");
  EXPECT_EQ(in.str(), "");
  EXPECT_TRUE(in.done());
  EXPECT_NO_THROW(in.expect_end("scalars"));
}

TEST(ByteWriterReader, LittleEndianOnTheWire) {
  ByteWriter out;
  out.u32(0x01020304);
  ASSERT_EQ(out.size(), 4U);
  EXPECT_EQ(out.data()[0], 0x04);
  EXPECT_EQ(out.data()[1], 0x03);
  EXPECT_EQ(out.data()[2], 0x02);
  EXPECT_EQ(out.data()[3], 0x01);
}

TEST(ByteWriterReader, FloatsAreBitExact) {
  const float f_nan = std::nanf("0x12345");
  const double d_nan = std::nan("0x6789A");
  ByteWriter out;
  out.vec_f32(std::vector<float>{f_nan, -0.0F});
  out.f64(d_nan);
  out.f64(std::numeric_limits<double>::infinity());

  ByteReader in(out.data());
  const std::vector<float> f_back = in.vec_f32();
  const double d_back = in.f64();
  ASSERT_EQ(f_back.size(), 2U);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(f_back[0]), std::bit_cast<std::uint32_t>(f_nan));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d_back), std::bit_cast<std::uint64_t>(d_nan));
  EXPECT_TRUE(std::signbit(f_back[1]));
  EXPECT_TRUE(std::isinf(in.f64()));
}

TEST(ByteWriterReader, VectorRoundTrip) {
  const std::vector<float> f32s = {1.0F, -2.5F, 0.0F};
  const std::vector<double> f64s = {0.1, -0.2};
  const std::vector<std::uint64_t> u64s = {1, 2, 3, 4};
  const std::vector<std::uint8_t> u8s = {0xAA, 0xBB};
  const std::vector<std::size_t> sizes = {0, 42, 1000000};

  ByteWriter out;
  out.vec_f32(f32s);
  out.vec_f64(f64s);
  out.vec_u64(u64s);
  out.vec_u8(u8s);
  out.vec_size(sizes);
  out.vec_f32({});  // empty vectors round-trip too

  ByteReader in(out.data());
  EXPECT_EQ(in.vec_f32(), f32s);
  EXPECT_EQ(in.vec_f64(), f64s);
  EXPECT_EQ(in.vec_u64(), u64s);
  EXPECT_EQ(in.vec_u8(), u8s);
  EXPECT_EQ(in.vec_size(), sizes);
  EXPECT_TRUE(in.vec_f32().empty());
  EXPECT_TRUE(in.done());
}

TEST(ByteWriterReader, OverrunsThrow) {
  ByteWriter out;
  out.u32(7);
  {
    ByteReader in(out.data());
    EXPECT_THROW(in.u64(), SerialError);  // 8 > 4 available
  }
  {
    ByteReader in(out.data());
    in.u32();
    EXPECT_THROW(in.u8(), SerialError);  // past the end
  }
  {
    ByteReader in({});
    EXPECT_THROW(in.u8(), SerialError);
    EXPECT_THROW(in.f64(), SerialError);
    EXPECT_THROW(in.str(), SerialError);
    EXPECT_THROW(in.vec_f32(), SerialError);
  }
}

TEST(ByteWriterReader, OverrunErrorsNameTheOffendingOffset) {
  // A read past the end must say what was asked, where, and of how much —
  // "read past end" alone is useless when debugging a 2 MB snapshot.
  ByteWriter out;
  out.u32(7);
  {
    ByteReader in(out.data());
    in.u32();
    try {
      in.u64();
      FAIL() << "read past end was accepted";
    } catch (const SerialError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("8 byte(s)"), std::string::npos) << what;
      EXPECT_NE(what.find("offset 4"), std::string::npos) << what;
      EXPECT_NE(what.find("4-byte buffer"), std::string::npos) << what;
    }
  }
  // A bad length prefix names the prefix's own offset and the shortfall.
  ByteWriter vec;
  vec.u32(1);  // 4 bytes of preamble so the prefix is not at offset 0
  vec.u64(std::uint64_t{1} << 60);
  ByteReader in(vec.data());
  in.u32();
  try {
    in.vec_u8();
    FAIL() << "huge length prefix was accepted";
  } catch (const SerialError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("length prefix"), std::string::npos) << what;
    EXPECT_NE(what.find("offset 4"), std::string::npos) << what;
    EXPECT_NE(what.find("0 remaining"), std::string::npos) << what;
  }
}

TEST(ByteWriterReader, TrailingBytesAreNamed) {
  ByteWriter out;
  out.u32(1);
  out.u32(2);
  ByteReader in(out.data());
  in.u32();
  try {
    in.expect_end("widget state");
    FAIL() << "expect_end accepted trailing bytes";
  } catch (const SerialError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("widget state"), std::string::npos) << what;
  }
}

TEST(ByteWriterReader, BadBooleanEncodingIsRejected) {
  const std::vector<std::uint8_t> bytes = {2};
  ByteReader in(bytes);
  EXPECT_THROW(in.boolean(), SerialError);
}

// A length prefix larger than the remaining buffer must be rejected
// *before* allocation — a 2^60 count must not attempt a giant vector.
TEST(ByteWriterReader, HugeLengthPrefixesAreRejectedWithoutAllocating) {
  ByteWriter out;
  out.u64(std::uint64_t{1} << 60);
  {
    ByteReader in(out.data());
    EXPECT_THROW(in.vec_f32(), SerialError);
  }
  {
    ByteReader in(out.data());
    EXPECT_THROW(in.vec_u8(), SerialError);
  }
  {
    ByteReader in(out.data());
    EXPECT_THROW(in.str(), SerialError);
  }
}

TEST(Fnv1a64, KnownVectorsAndSensitivity) {
  // FNV-1a offset basis: hash of the empty input.
  EXPECT_EQ(fnv1a64({}), 0xCBF29CE484222325ULL);
  const std::vector<std::uint8_t> a = {'a'};
  EXPECT_EQ(fnv1a64(a), 0xAF63DC4C8601EC8CULL);
  // One flipped bit changes the digest.
  const std::vector<std::uint8_t> x = {1, 2, 3, 4};
  std::vector<std::uint8_t> y = x;
  y[2] ^= 0x01;
  EXPECT_NE(fnv1a64(x), fnv1a64(y));
}

TEST(RngSerialization, WriteReadRoundTripContinuesIdentically) {
  Rng rng(987);
  for (int i = 0; i < 37; ++i) rng.next_u64();
  (void)rng.normal();  // prime the Box-Muller cache so it is carried too

  ByteWriter out;
  write_rng(out, rng);
  ByteReader in(out.data());
  Rng restored = read_rng(in);
  EXPECT_TRUE(in.done());

  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.next_u64(), restored.next_u64());
  }
  EXPECT_EQ(rng.normal(), restored.normal());
}

TEST(RngSerialization, AllZeroStateWordsAreRejected) {
  ByteWriter out;
  for (int i = 0; i < 5; ++i) out.u64(0);  // four state words + seed
  out.f64(0.0);
  out.boolean(false);
  ByteReader in(out.data());
  EXPECT_THROW(read_rng(in), SerialError);
}

// --- Snapshot envelope ------------------------------------------------------

/// Both snapshot formats: fl::Checkpoint ("HCKP", v4) and
/// svc::SchedulerService ("HSVS", v1).
const std::vector<Envelope>& formats() {
  static const std::vector<Envelope> kFormats = {
      {0x504b4348, 4, "checkpoint"}, {0x53565348, 1, "service snapshot"}};
  return kFormats;
}

std::vector<std::uint8_t> sample_payload() {
  ByteWriter out;
  out.u64(42);
  out.str("payload");
  out.vec_f64(std::vector<double>{1.5, -2.25});
  return out.take();
}

/// unseal()'s rejection message for `bytes`, or "" if it was accepted.
std::string rejection(const Envelope& format, const std::vector<std::uint8_t>& bytes) {
  try {
    unseal(format, bytes, [](ByteReader& in) {
      in.u64();
      in.str();
      in.vec_f64();
      in.expect_end("sample payload");
    });
  } catch (const SerialError& error) {
    return error.what();
  }
  return "";
}

TEST(Envelope, SealWritesTheHeaderThenThePayload) {
  const std::vector<std::uint8_t> payload = sample_payload();
  const std::vector<std::uint8_t> image = seal(formats()[0], payload);
  ByteReader header(image);
  EXPECT_EQ(header.u32(), 0x504b4348U);
  EXPECT_EQ(header.u32(), 4U);
  EXPECT_EQ(header.u64(), payload.size());
  EXPECT_EQ(header.u64(), fnv1a64(payload));
  EXPECT_EQ(std::vector<std::uint8_t>(image.begin() + 24, image.end()), payload);

  std::vector<std::uint8_t> seen;
  unseal(formats()[0], image, [&](ByteReader& in) {
    const auto rest = in.raw(in.remaining());
    seen.assign(rest.begin(), rest.end());
  });
  EXPECT_EQ(seen, payload);
}

TEST(Envelope, RejectionTableUnderBothMagics) {
  for (const Envelope& format : formats()) {
    SCOPED_TRACE(std::string(format.what));
    const std::string what(format.what);
    const std::vector<std::uint8_t> image = seal(format, sample_payload());
    const std::size_t payload_size = image.size() - 24;
    ASSERT_EQ(rejection(format, image), "");

    // Every truncation prefix: inside the header, then inside the payload.
    for (std::size_t n = 0; n < image.size(); ++n) {
      const std::vector<std::uint8_t> prefix(image.begin(),
                                             image.begin() + static_cast<long>(n));
      const std::string expected =
          n < 24 ? what + " is truncated: " + std::to_string(n) +
                       " bytes, shorter than the 24-byte header"
                 : what + " is truncated: header declares a " +
                       std::to_string(payload_size) + "-byte payload but only " +
                       std::to_string(n - 24) + " bytes follow";
      EXPECT_EQ(rejection(format, prefix), expected) << "prefix " << n;
    }

    std::vector<std::uint8_t> bad_magic = image;
    bad_magic[0] ^= 0xFF;
    const std::string tag(reinterpret_cast<const char*>(&image[0]), 4);
    EXPECT_EQ(rejection(format, bad_magic),
              "not a " + what + ": bad magic (expected \"" + tag + "\")");

    std::vector<std::uint8_t> foreign = image;
    foreign[4] = static_cast<std::uint8_t>(format.version + 1);
    EXPECT_EQ(rejection(format, foreign),
              what + " version " + std::to_string(format.version + 1) +
                  " is not supported by this build (expected version " +
                  std::to_string(format.version) + ")");

    std::vector<std::uint8_t> flipped = image;
    flipped[24 + payload_size / 2] ^= 0x04;
    EXPECT_EQ(rejection(format, flipped),
              what + " payload checksum mismatch: the file is corrupted");

    std::vector<std::uint8_t> trailing = image;
    trailing.push_back(0);
    EXPECT_EQ(rejection(format, trailing),
              what + " has 1 trailing byte(s) after the declared payload");
  }
}

TEST(Envelope, PayloadLayoutErrorsAreReportedAsMalformed) {
  const Envelope& format = formats()[1];
  const std::vector<std::uint8_t> image = seal(format, sample_payload());
  try {
    unseal(format, image, [](ByteReader& in) { in.raw(in.remaining() + 1); });
    FAIL() << "an overrunning parse was accepted";
  } catch (const SerialError& error) {
    EXPECT_EQ(std::string(error.what()).rfind("service snapshot payload is malformed: "
                                              "ByteReader: read of",
                                              0),
              0U)
        << error.what();
  }
  // Errors of any other type out of the parse pass through untouched.
  EXPECT_THROW(unseal(format, image,
                      [](ByteReader&) { throw std::logic_error("domain check"); }),
               std::logic_error);
}

struct FormatError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void raise_format_error(const std::string& message) { throw FormatError(message); }

TEST(Envelope, RejectionsRaiseTheFormatsOwnErrorAndNameTheFile) {
  const Envelope format{0x53565348, 1, "service snapshot", &raise_format_error};
  std::vector<std::uint8_t> image = seal(format, sample_payload());
  image.pop_back();
  EXPECT_THROW(unseal(format, image, [](ByteReader&) {}), FormatError);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "envelope_files";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "snap.bin").string();
  write_sealed(format, path, sample_payload());
  std::vector<std::uint8_t> seen;
  read_sealed(format, path, [&](ByteReader& in) {
    const auto rest = in.raw(in.remaining());
    seen.assign(rest.begin(), rest.end());
  });
  EXPECT_EQ(seen, sample_payload());

  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put('\0');
  }
  try {
    read_sealed(format, path, [](ByteReader&) {});
    FAIL() << "a file with a trailing byte was accepted";
  } catch (const FormatError& error) {
    EXPECT_EQ(std::string(error.what()),
              "'" + path + "': service snapshot has 1 trailing byte(s) after the "
                           "declared payload");
  }
  try {
    read_sealed(format, (dir / "missing.bin").string(), [](ByteReader&) {});
    FAIL() << "a missing file was accepted";
  } catch (const FormatError& error) {
    EXPECT_EQ(std::string(error.what()).rfind("service snapshot: cannot open '", 0), 0U)
        << error.what();
  }
  EXPECT_THROW(write_sealed(format, (dir / "no_dir" / "x.bin").string(), {}),
               FormatError);
}

}  // namespace
}  // namespace helcfl::util
