// Little-endian binary serialization primitives and the snapshot envelope.
//
// Every stateful component that participates in checkpoint/resume
// (strategies, RNG streams, fault injector, batteries, the trainer itself)
// writes its state through a ByteWriter and restores it through a
// ByteReader.  The encoding is deliberately dumb: fixed-width little-endian
// integers, IEEE-754 bit patterns for floats, and u64 length prefixes for
// strings and vectors.  There is no schema negotiation in the payload.
// Framing, versioning and integrity checks are the one envelope below
// (seal/unseal, and the crash-safe file pair write_sealed/read_sealed),
// which every persisted snapshot shares: fl::Checkpoint files and
// svc::SchedulerService snapshots.
//
// Readers are strict: any read past the end of the buffer throws
// SerialError, and callers that expect to consume a buffer exactly call
// expect_end().  Nothing in this header ever silently truncates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace helcfl::util {

class Rng;

/// Thrown on any malformed read: overrun, bad length prefix, trailing
/// bytes where none were expected.
class SerialError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends fixed-width little-endian values to a growable byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  ///< IEEE-754 bit pattern, preserves NaN payloads
  void boolean(bool v);

  /// u64 byte length followed by the raw bytes.
  void str(std::string_view s);

  /// Raw bytes, no length prefix (caller frames them).
  void raw(std::span<const std::uint8_t> bytes);

  /// u64 element count followed by each element; floating-point elements
  /// are IEEE-754 bit patterns, so NaN payloads survive.
  void vec_f32(std::span<const float> v);
  void vec_f64(std::span<const double> v);
  void vec_u64(std::span<const std::uint64_t> v);
  void vec_u8(std::span<const std::uint8_t> v);
  /// std::size_t vectors are widened to u64 on the wire.
  void vec_size(std::span<const std::size_t> v);

  const std::vector<std::uint8_t>& data() const { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Consumes a byte buffer written by ByteWriter.  Borrow semantics: the
/// underlying bytes must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  bool boolean();
  std::string str();

  /// Next `n` bytes without copying; advances the cursor.
  std::span<const std::uint8_t> raw(std::size_t n);

  std::vector<float> vec_f32();
  std::vector<double> vec_f64();
  std::vector<std::uint64_t> vec_u64();
  std::vector<std::uint8_t> vec_u8();
  std::vector<std::size_t> vec_size();

  std::size_t remaining() const { return data_.size() - cursor_; }
  bool done() const { return cursor_ == data_.size(); }

  /// Throws SerialError if any bytes remain unconsumed.  `what` names the
  /// structure being decoded so the error is actionable.
  void expect_end(std::string_view what) const;

 private:
  /// Bounds-checked element count for a vector of `elem_size`-byte items.
  std::size_t read_count(std::size_t elem_size);

  std::span<const std::uint8_t> data_;
  std::size_t cursor_ = 0;
};

/// FNV-1a 64-bit hash — the snapshot payload checksum.  Not
/// cryptographic; it detects corruption, not tampering.
std::uint64_t fnv1a64(std::span<const std::uint8_t> data);

/// One snapshot file format.  Every format is sealed in the same envelope,
/// all little-endian:
///
///   u32 magic | u32 version | u64 payload_size | u64 fnv1a64(payload)
///   payload_size bytes of payload
///
/// The checksum covers the payload only, so a corrupt header field and a
/// corrupt payload are reported as distinct errors.  Readers accept only
/// their own version.
struct Envelope {
  std::uint32_t magic = 0;  ///< four ASCII bytes read LE, e.g. "HCKP"
  std::uint32_t version = 0;
  std::string_view what;    ///< names the format in every error message
  /// Throws the format's own error type carrying `message`.  Null means
  /// SerialError.
  void (*raise)(const std::string& message) = nullptr;
};

/// The file image of `payload`: header, then the payload.
std::vector<std::uint8_t> seal(const Envelope& envelope,
                               std::span<const std::uint8_t> payload);

/// Checks the envelope of `bytes` and hands a reader over the payload to
/// `parse`.  Rejects a short header, a bad magic, a foreign version, a
/// declared size larger than the bytes that follow, trailing bytes and a
/// checksum mismatch.  A SerialError out of `parse` (the checksum passed, so
/// the layout is wrong) is rejected as "<what> payload is malformed".
/// Every rejection goes through envelope.raise; any other exception out of
/// `parse` passes through unchanged.
void unseal(const Envelope& envelope, std::span<const std::uint8_t> bytes,
            const std::function<void(ByteReader&)>& parse);

/// Writes seal(envelope, payload) to `path` + ".tmp", then renames it over
/// `path`: a crash mid-write never leaves a torn file under `path`, so a
/// reader sees either the old complete snapshot or the new one.
void write_sealed(const Envelope& envelope, const std::string& path,
                  std::span<const std::uint8_t> payload);

/// Reads `path` and unseal()s it; a rejected file's message names `path`.
void read_sealed(const Envelope& envelope, const std::string& path,
                 const std::function<void(ByteReader&)>& parse);

/// `path` with every occurrence of `token` replaced by `value`: the
/// cadenced snapshot names ("{round}", "{decisions}").
std::string expand_token(std::string path, std::string_view token,
                         std::string_view value);

/// Serializes a full Rng cursor (state words, seed, Box-Muller cache).
void write_rng(ByteWriter& out, const Rng& rng);

/// Restores an Rng cursor written by write_rng().
Rng read_rng(ByteReader& in);

}  // namespace helcfl::util
