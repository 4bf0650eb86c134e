/**
 * @file
 * Versioned, checksummed binary snapshot format.
 *
 * A snapshot is a flat little-endian byte payload framed by a fixed
 * header: magic, format version, payload size, and an FNV-64 checksum
 * over the payload. The payload is written and read through
 * SnapshotWriter/SnapshotReader — append-only primitive put/get calls —
 * so every component serializes its mutable state field by field;
 * nothing is ever memcpy'd from struct memory (padding bytes would make
 * the file contents non-deterministic).
 *
 * Error taxonomy: every way a snapshot can fail to load is a distinct
 * exception type rooted at SnapshotError, so callers (and the death
 * tests) can tell a truncated file from a bit flip from a version skew —
 * a snapshot is either restored exactly or rejected loudly, never
 * silently mis-restored.
 *
 *  - SnapshotFormatError:    not a snapshot at all (bad magic).
 *  - SnapshotVersionError:   format version mismatch.
 *  - SnapshotTruncatedError: file shorter than the header claims.
 *  - SnapshotChecksumError:  payload corrupted (FNV-64 mismatch).
 *  - SnapshotStateError:     payload decodes but does not match the
 *                            current machine/run (wrong geometry, wrong
 *                            section, wrong fault plan, ...).
 *
 * File writes are atomic: the bytes go to "<path>.tmp", are fsync'd, and
 * the tmp file is renamed over the destination, so a crash mid-write
 * never leaves a half-written snapshot where a reader expects one.
 */

#ifndef OMEGA_SIM_SNAPSHOT_HH
#define OMEGA_SIM_SNAPSHOT_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace omega {

/** Root of the snapshot error taxonomy. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** The file is not a snapshot (magic mismatch). */
class SnapshotFormatError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

/** The snapshot was written by an incompatible format version. */
class SnapshotVersionError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

/** The file ends before the header-declared payload does. */
class SnapshotTruncatedError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

/** The payload bytes fail the FNV-64 checksum. */
class SnapshotChecksumError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

/** The payload decodes but does not fit the current run/machine. */
class SnapshotStateError : public SnapshotError
{
  public:
    using SnapshotError::SnapshotError;
};

/** Current snapshot format version. Bump on any layout change. */
inline constexpr std::uint32_t kSnapshotVersion = 2;

/** FNV-1a 64-bit over @p size bytes (the payload checksum). */
std::uint64_t snapshotChecksum(const void *data, std::size_t size);

/** Append-only little-endian payload builder. */
class SnapshotWriter
{
  public:
    void
    putU8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void putBool(bool v) { putU8(v ? 1 : 0); }

    void
    putU32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    putU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void putF64(double v) { putU64(std::bit_cast<std::uint64_t>(v)); }

    void
    putString(const std::string &s)
    {
        putU64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void
    putBytes(const void *data, std::size_t size)
    {
        putU64(size);
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + size);
    }

    /** Length-prefixed vector of u64 (the common container case). */
    void
    putU64Vector(const std::vector<std::uint64_t> &v)
    {
        putU64(v.size());
        for (const std::uint64_t x : v)
            putU64(x);
    }

    void
    putU32Vector(const std::vector<std::uint32_t> &v)
    {
        putU64(v.size());
        for (const std::uint32_t x : v)
            putU32(x);
    }

    void
    putU8Vector(const std::vector<std::uint8_t> &v)
    {
        putBytes(v.data(), v.size());
    }

    /**
     * Reserve a u64 size slot to be patched by endBlob() — the section
     * framing the checkpoint coordinator uses, so a reader can verify it
     * consumed a section exactly.
     */
    std::size_t
    beginBlob()
    {
        const std::size_t at = buf_.size();
        putU64(0);
        return at;
    }

    /** Patch the blob opened at @p at with the bytes written since. */
    void
    endBlob(std::size_t at)
    {
        const std::uint64_t size = buf_.size() - at - 8;
        for (int i = 0; i < 8; ++i)
            buf_[at + i] = static_cast<std::uint8_t>(size >> (8 * i));
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked little-endian payload reader. */
class SnapshotReader
{
  public:
    explicit SnapshotReader(std::vector<std::uint8_t> payload)
        : buf_(std::move(payload))
    {
    }

    std::uint8_t
    getU8()
    {
        need(1);
        return buf_[pos_++];
    }

    bool getBool() { return getU8() != 0; }

    std::uint32_t
    getU32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    getU64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return v;
    }

    double getF64() { return std::bit_cast<double>(getU64()); }

    std::string
    getString()
    {
        const std::uint64_t n = getU64();
        need(n);
        std::string s(reinterpret_cast<const char *>(buf_.data() + pos_),
                      n);
        pos_ += n;
        return s;
    }

    std::vector<std::uint8_t>
    getByteVector()
    {
        const std::uint64_t n = getU64();
        need(n);
        std::vector<std::uint8_t> v(buf_.begin() + pos_,
                                    buf_.begin() + pos_ + n);
        pos_ += n;
        return v;
    }

    /** Copy @p size raw bytes into @p out (fixed-size arrays). */
    void
    getBytesInto(void *out, std::size_t size)
    {
        const std::uint64_t n = getU64();
        if (n != size) {
            throw SnapshotStateError(
                "snapshot: raw byte field holds " + std::to_string(n) +
                " bytes, expected " + std::to_string(size));
        }
        need(n);
        std::memcpy(out, buf_.data() + pos_, n);
        pos_ += n;
    }

    std::vector<std::uint64_t>
    getU64Vector()
    {
        const std::uint64_t n = getU64();
        std::vector<std::uint64_t> v;
        v.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
            v.push_back(getU64());
        return v;
    }

    std::vector<std::uint32_t>
    getU32Vector()
    {
        const std::uint64_t n = getU64();
        std::vector<std::uint32_t> v;
        v.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
            v.push_back(getU32());
        return v;
    }

    std::size_t position() const { return pos_; }
    std::size_t remaining() const { return buf_.size() - pos_; }

  private:
    void
    need(std::uint64_t n)
    {
        if (buf_.size() - pos_ < n) {
            throw SnapshotTruncatedError(
                "snapshot: payload ends inside a field (need " +
                std::to_string(n) + " bytes at offset " +
                std::to_string(pos_) + " of " +
                std::to_string(buf_.size()) + ")");
        }
    }

    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
};

/**
 * Write @p payload to @p path atomically: "<path>.tmp" + fsync + rename.
 * Throws SnapshotError (with errno text) on any I/O failure.
 */
void writeSnapshotFile(const std::string &path,
                       const std::vector<std::uint8_t> &payload);

/**
 * Read and verify the snapshot at @p path, returning the payload bytes.
 * Throws the taxonomy above: SnapshotError if the file cannot be read,
 * SnapshotFormatError / SnapshotVersionError / SnapshotTruncatedError /
 * SnapshotChecksumError per the header checks.
 */
std::vector<std::uint8_t> readSnapshotFile(const std::string &path);

/**
 * Append one framed record (same header layout as a snapshot file) to
 * the journal at @p path, fsync'd. Used by the sweep journal: each
 * completed run appends one self-verifying record.
 */
void appendJournalRecord(const std::string &path,
                         const std::vector<std::uint8_t> &payload);

/**
 * Read every intact record from the journal at @p path. A torn or
 * corrupt tail (crash mid-append) silently ends the scan — those runs
 * simply re-execute — but the records before it are still verified and
 * returned. A missing file yields an empty vector.
 */
std::vector<std::vector<std::uint8_t>>
readJournalRecords(const std::string &path);

} // namespace omega

#endif // OMEGA_SIM_SNAPSHOT_HH
