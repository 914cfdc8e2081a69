/**
 * @file
 * Minimal binary serialization used for model checkpointing (Sec. 4.4 notes
 * that frequent checkpointing of very large models is required in
 * production; Check-N-Run [9]).
 *
 * The format is little-endian, length-prefixed, with a magic/version header
 * validated on load.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace neo {

/** Append-only binary writer backed by an in-memory buffer. */
class BinaryWriter
{
  public:
    /** Write a POD scalar. */
    template <typename T>
    void
    Write(const T& value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto* p = reinterpret_cast<const uint8_t*>(&value);
        buffer_.insert(buffer_.end(), p, p + sizeof(T));
    }

    /** Write a length-prefixed string. */
    void WriteString(const std::string& s);

    /** Write a length-prefixed vector of POD elements (any allocator). */
    template <typename T, typename Alloc = std::allocator<T>>
    void
    WriteVector(const std::vector<T, Alloc>& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        Write<uint64_t>(v.size());
        const auto* p = reinterpret_cast<const uint8_t*>(v.data());
        buffer_.insert(buffer_.end(), p, p + v.size() * sizeof(T));
    }

    /** Pre-size the buffer (bulk writers like the telemetry harvest). */
    void Reserve(size_t bytes) { buffer_.reserve(bytes); }

    const std::vector<uint8_t>& buffer() const { return buffer_; }

    /** Flush the buffer to a file; fatal on I/O failure. */
    void SaveToFile(const std::string& path) const;

  private:
    std::vector<uint8_t> buffer_;
};

/** Sequential binary reader over a byte buffer. */
class BinaryReader
{
  public:
    explicit BinaryReader(std::vector<uint8_t> buffer)
        : buffer_(std::move(buffer)) {}

    /** Load an entire file into a reader; fatal on I/O failure. */
    static BinaryReader LoadFromFile(const std::string& path);

    /** Read a POD scalar; fatal on truncated input. */
    template <typename T>
    T
    Read()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        ReadBytes(reinterpret_cast<uint8_t*>(&value), sizeof(T));
        return value;
    }

    /** Read a length-prefixed string. */
    std::string ReadString();

    /**
     * Read a length-prefixed vector of POD elements. The allocator
     * parameter lets aligned-storage owners (Matrix, EmbeddingTable)
     * deserialize straight into cache-line-aligned buffers.
     */
    template <typename T, typename Alloc = std::allocator<T>>
    std::vector<T, Alloc>
    ReadVector()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const uint64_t n = ReadCount(sizeof(T));
        std::vector<T, Alloc> v(n);
        ReadBytes(reinterpret_cast<uint8_t*>(v.data()), n * sizeof(T));
        return v;
    }

    /**
     * Read an untrusted element count and validate it BEFORE anything is
     * allocated for it: throws std::runtime_error unless `count` elements
     * of at least `min_elem_size` bytes each still fit in the input, so a
     * corrupt count fails like any other truncation instead of turning
     * into a huge allocation or a size_t overflow.
     */
    uint64_t ReadCount(size_t min_elem_size);

    /** True once all bytes have been consumed. */
    bool AtEnd() const { return pos_ == buffer_.size(); }

  private:
    void ReadBytes(uint8_t* dst, size_t n);

    std::vector<uint8_t> buffer_;
    size_t pos_ = 0;
};

}  // namespace neo
