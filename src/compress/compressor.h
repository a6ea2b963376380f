#ifndef LEAKDET_COMPRESS_COMPRESSOR_H_
#define LEAKDET_COMPRESS_COMPRESSOR_H_

#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"
#include "util/statusor.h"

namespace leakdet::compress {

/// Abstract byte-string compressor. The Normalized Compression Distance
/// (§IV-C) only needs the *length* of the compressed output, so implementers
/// may provide a cheaper `CompressedSize` than a full `Compress`.
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Short stable identifier ("lz77h", "lzw", "entropy").
  virtual std::string_view name() const = 0;

  /// Compresses `input` into a self-describing byte string.
  virtual StatusOr<std::string> Compress(std::string_view input) const = 0;

  /// Inverse of Compress.
  virtual StatusOr<std::string> Decompress(
      std::string_view compressed) const = 0;

  /// Length in bytes of Compress(input). Default delegates to Compress().
  virtual size_t CompressedSize(std::string_view input) const;

  /// Mid-stream codec state after absorbing a prefix string. NCD over a
  /// distance matrix sizes the same prefix against many suffixes (C(xy) for
  /// one x and every paired y); resuming from the prefix state skips
  /// re-processing the prefix on every pair. Single-caller: SizeWithSuffix
  /// mutates the state while it runs, so give each thread its own stream.
  class Stream {
   public:
    virtual ~Stream() = default;

    /// Length in bytes of Compress(prefix + suffix), bit-identical to
    /// CompressedSize on the materialized concatenation, whatever calls
    /// came before.
    virtual size_t SizeWithSuffix(std::string_view suffix) = 0;
  };

  /// The codec state after `prefix`. Returns nullptr when the codec does not
  /// support resumption (callers fall back to materializing the
  /// concatenation).
  virtual std::unique_ptr<Stream> NewStream(std::string_view /*prefix*/) const {
    return nullptr;
  }
};

/// LZ77 (32 KiB window, hash-chain match finder, DEFLATE-style length and
/// distance buckets) followed by per-message canonical Huffman coding of the
/// literal/length and distance alphabets. Self-contained format; round-trips
/// exactly.
class Lz77HuffmanCompressor : public Compressor {
 public:
  std::string_view name() const override { return "lz77h"; }
  StatusOr<std::string> Compress(std::string_view input) const override;
  StatusOr<std::string> Decompress(std::string_view compressed) const override;
};

/// Classic LZW with 9→16-bit growing codes and a frozen dictionary once the
/// code space is exhausted. Small header overhead, which makes it well suited
/// to NCD over short HTTP payloads.
class LzwCompressor : public Compressor {
 public:
  std::string_view name() const override { return "lzw"; }
  StatusOr<std::string> Compress(std::string_view input) const override;
  StatusOr<std::string> Decompress(std::string_view compressed) const override;
  /// Counts emitted code widths without materializing the bitstream.
  size_t CompressedSize(std::string_view input) const override;
  std::unique_ptr<Stream> NewStream(std::string_view prefix) const override;
};

/// Order-0 entropy *estimator*: `CompressedSize` returns the Shannon bound
/// ceil(sum -log2 p(byte) / 8) plus a small model cost. Not an actual codec
/// (Compress/Decompress return Unimplemented); used as a fast NCD
/// approximation in ablation studies.
class EntropyEstimator : public Compressor {
 public:
  std::string_view name() const override { return "entropy"; }
  StatusOr<std::string> Compress(std::string_view input) const override;
  StatusOr<std::string> Decompress(std::string_view compressed) const override;
  size_t CompressedSize(std::string_view input) const override;
};

/// Creates a compressor by name ("lz77h", "lzw", "entropy").
StatusOr<std::unique_ptr<Compressor>> MakeCompressor(std::string_view name);

}  // namespace leakdet::compress

#endif  // LEAKDET_COMPRESS_COMPRESSOR_H_
