#include <cstdint>
#include <memory>
#include <string>
#include <algorithm>
#include <vector>

#include "compress/bitstream.h"
#include "compress/compressor.h"

namespace leakdet::compress {

namespace {

constexpr char kMagic = 'W';
constexpr int kInitialBits = 9;
constexpr int kMaxBits = 16;
constexpr uint32_t kMaxCodes = uint32_t{1} << kMaxBits;

// Dictionary key: (prefix code << 8) | next byte.
uint64_t Key(uint32_t prefix, uint8_t next) {
  return (static_cast<uint64_t>(prefix) << 8) | next;
}

int BitsForCode(uint32_t next_code) {
  int bits = kInitialBits;
  while ((uint32_t{1} << bits) < next_code && bits < kMaxBits) ++bits;
  return bits;
}

size_t VarintLength(uint64_t value) {
  size_t len = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++len;
  }
  return len;
}

/// Open-addressing (prefix, byte) -> code table. The encoder probes the
/// dictionary once per input byte, so lookup cost dominates encode time;
/// linear probing over flat arrays avoids unordered_map's per-node
/// allocation and pointer chasing on that hot path. Keys fit in 24 bits
/// (16-bit code << 8 | byte), so ~0 is a safe empty sentinel.
class FlatCodeTable {
 public:
  FlatCodeTable() : keys_(1024, kEmpty), vals_(1024), mask_(1023) {}

  /// Pointer to the stored code, or nullptr when absent.
  const uint32_t* Find(uint64_t key) const {
    size_t i = Hash(key) & mask_;
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  /// `key` must not already be present (LZW only inserts after a miss).
  /// Returns the slot the key landed in.
  size_t Insert(uint64_t key, uint32_t val) {
    if ((size_ + 1) * 10 > keys_.size() * 7) Grow();
    size_t i = Hash(key) & mask_;
    while (keys_[i] != kEmpty) i = (i + 1) & mask_;
    keys_[i] = key;
    vals_[i] = val;
    ++size_;
    return i;
  }

  /// Grows now, if needed, so `extra` more inserts cannot rehash: slots
  /// returned by those inserts stay valid until they are erased.
  void Reserve(size_t extra) {
    while ((size_ + extra) * 10 > keys_.size() * 7) Grow();
  }

  /// Empties `slot`, which must hold the most recently inserted live key.
  /// Linear probing never probes past an empty slot, so undoing inserts in
  /// LIFO order restores the exact table they were made on.
  void EraseNewest(size_t slot) {
    keys_[slot] = kEmpty;
    --size_;
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  static size_t Hash(uint64_t key) {
    // Fibonacci hash; the top 24 bits cover any reachable table size
    // (at most 2 * kMaxCodes slots).
    return static_cast<size_t>((key * uint64_t{0x9E3779B97F4A7C15}) >> 40);
  }

  void Grow() {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<uint32_t> old_vals = std::move(vals_);
    keys_.assign(old_keys.size() * 2, kEmpty);
    vals_.resize(old_vals.size() * 2);
    mask_ = keys_.size() - 1;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      size_t j = Hash(old_keys[i]) & mask_;
      while (keys_[j] != kEmpty) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> vals_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// The encoder state machine shared by Compress, the count-only
/// CompressedSize, and stream resumption. `Emit` is called with
/// (code, width) exactly as Compress writes them, so every consumer sees
/// the identical code sequence. When `undo` is non-null, the dictionary
/// slot of every code minted is appended to it.
struct LzwEncoderState {
  FlatCodeTable dict;
  uint32_t next_code = 256;
  uint32_t cur = 0;
  bool has_cur = false;

  template <typename Emit>
  void Absorb(std::string_view input, const Emit& emit,
              std::vector<uint32_t>* undo = nullptr) {
    size_t i = 0;
    if (!has_cur) {
      if (input.empty()) return;
      cur = static_cast<uint8_t>(input[0]);
      has_cur = true;
      i = 1;
    }
    for (; i < input.size(); ++i) {
      uint8_t c = static_cast<uint8_t>(input[i]);
      if (const uint32_t* code = dict.Find(Key(cur, c))) {
        cur = *code;
        continue;
      }
      emit(cur, BitsForCode(next_code + 1));
      if (next_code < kMaxCodes) {
        size_t slot = dict.Insert(Key(cur, c), next_code++);
        if (undo != nullptr) undo->push_back(static_cast<uint32_t>(slot));
      }
      cur = c;
    }
  }

  /// Payload bits of Absorb(input), final pending-phrase emission excluded.
  size_t AbsorbCountingBits(std::string_view input,
                            std::vector<uint32_t>* undo = nullptr) {
    size_t bits = 0;
    Absorb(
        input,
        [&bits](uint32_t, int nbits) { bits += static_cast<size_t>(nbits); },
        undo);
    return bits;
  }
};

/// The encoder state after a prefix. Each SizeWithSuffix absorbs the suffix
/// into the prefix's own dictionary, logging the slot of every code it
/// mints, then erases those slots newest first and restores the scalar
/// state: one probe per suffix byte and no allocation once the log and the
/// table have grown to the longest suffix seen.
class LzwStream : public Compressor::Stream {
 public:
  explicit LzwStream(std::string_view prefix) : prefix_len_(prefix.size()) {
    bits_ = state_.AbsorbCountingBits(prefix);
  }

  size_t SizeWithSuffix(std::string_view suffix) override {
    size_t total = prefix_len_ + suffix.size();
    size_t header = 1 + VarintLength(total);
    if (total == 0) return header;
    const uint32_t next_code = state_.next_code;
    const uint32_t cur = state_.cur;
    const bool has_cur = state_.has_cur;
    // At most one code is minted per suffix byte, and none past the freeze.
    state_.dict.Reserve(
        std::min<size_t>(suffix.size(), kMaxCodes - state_.next_code));
    size_t bits = bits_ + state_.AbsorbCountingBits(suffix, &undo_);
    bits += static_cast<size_t>(BitsForCode(state_.next_code + 1));
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      state_.dict.EraseNewest(*it);
    }
    undo_.clear();
    state_.next_code = next_code;
    state_.cur = cur;
    state_.has_cur = has_cur;
    return header + (bits + 7) / 8;
  }

 private:
  LzwEncoderState state_;
  size_t bits_ = 0;  ///< payload bits emitted inside the prefix
  size_t prefix_len_;
  std::vector<uint32_t> undo_;  ///< dictionary slots minted by the suffix
};

}  // namespace

StatusOr<std::string> LzwCompressor::Compress(std::string_view input) const {
  std::string out;
  out += kMagic;
  AppendVarint(input.size(), &out);
  if (input.empty()) return out;

  LzwEncoderState state;
  BitWriter writer;
  // Emit `cur` with the current code width; width grows with the
  // dictionary. Must match the decoder's view: the decoder will have
  // next_code + 1 entries *after* consuming this code, so the width for
  // this code covers codes up to next_code.
  state.Absorb(input,
               [&writer](uint32_t code, int bits) {
                 writer.WriteBits(code, bits);
               });
  writer.WriteBits(state.cur, BitsForCode(state.next_code + 1));
  out += writer.Finish();
  return out;
}

size_t LzwCompressor::CompressedSize(std::string_view input) const {
  size_t header = 1 + VarintLength(input.size());
  if (input.empty()) return header;
  LzwEncoderState state;
  size_t bits = state.AbsorbCountingBits(input);
  bits += static_cast<size_t>(BitsForCode(state.next_code + 1));
  return header + (bits + 7) / 8;
}

std::unique_ptr<Compressor::Stream> LzwCompressor::NewStream(
    std::string_view prefix) const {
  return std::make_unique<LzwStream>(prefix);
}

StatusOr<std::string> LzwCompressor::Decompress(
    std::string_view compressed) const {
  size_t pos = 0;
  if (compressed.empty() || compressed[pos++] != kMagic) {
    return Status::Corruption("bad lzw magic");
  }
  uint64_t original_size;
  LEAKDET_RETURN_IF_ERROR(ReadVarint(compressed, &pos, &original_size));
  if (original_size == 0) return std::string();

  BitReader reader(compressed.substr(pos));
  // entries[i] = (prefix code or kNoPrefix, byte)
  constexpr uint32_t kNoPrefix = UINT32_MAX;
  std::vector<std::pair<uint32_t, uint8_t>> entries;
  entries.reserve(4096);
  for (uint32_t i = 0; i < 256; ++i) {
    entries.emplace_back(kNoPrefix, static_cast<uint8_t>(i));
  }

  auto expand = [&entries](uint32_t code, std::string* dst) {
    // Reconstructs the string for `code` by walking prefix links.
    std::string tmp;
    while (code != kNoPrefix) {
      tmp += static_cast<char>(entries[code].second);
      code = entries[code].first;
    }
    dst->append(tmp.rbegin(), tmp.rend());
  };

  std::string out;
  out.reserve(original_size);

  uint64_t first;
  LEAKDET_RETURN_IF_ERROR(
      reader.ReadBits(BitsForCode(static_cast<uint32_t>(entries.size()) + 1),
                      &first));
  if (first >= 256) return Status::Corruption("invalid first LZW code");
  uint32_t prev = static_cast<uint32_t>(first);
  expand(prev, &out);

  while (out.size() < original_size) {
    int bits = BitsForCode(static_cast<uint32_t>(entries.size()) + 2);
    // Width rule must mirror the encoder: after this code the dictionary
    // will have entries.size() + 1 codes (if not frozen).
    if (entries.size() >= kMaxCodes) {
      bits = BitsForCode(kMaxCodes);
    }
    uint64_t raw;
    LEAKDET_RETURN_IF_ERROR(reader.ReadBits(bits, &raw));
    uint32_t code = static_cast<uint32_t>(raw);
    if (code > entries.size()) return Status::Corruption("LZW code gap");

    std::string decoded;
    if (code == entries.size()) {
      // KwKwK special case: the code being defined right now.
      if (entries.size() >= kMaxCodes) {
        return Status::Corruption("KwKwK after dictionary freeze");
      }
      expand(prev, &decoded);
      decoded += decoded[0];
    } else {
      expand(code, &decoded);
    }
    if (entries.size() < kMaxCodes) {
      entries.emplace_back(prev, static_cast<uint8_t>(decoded[0]));
    }
    out += decoded;
    prev = code;
  }
  if (out.size() != original_size) {
    return Status::Corruption("LZW output size mismatch");
  }
  return out;
}

}  // namespace leakdet::compress
