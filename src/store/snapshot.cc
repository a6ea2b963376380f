#include "store/snapshot.h"

#include <algorithm>
#include <cstdio>

#include "crypto/sha1.h"
#include "io/trace_io.h"
#include "util/strutil.h"

namespace leakdet::store {

namespace {

constexpr std::string_view kMagic = "leakdet-snapshot v1";
constexpr std::string_view kSeparator = "---\n";

/// Room for `packets` as JSONL: the field bytes plus a quarter for escapes,
/// and the keys and numbers of each line. Reserving a little too much costs
/// only address space; too little would double the body buffer.
size_t PoolJsonlCapacity(const std::vector<core::HttpPacket>& packets) {
  constexpr size_t kLineOverhead = 112;
  size_t bytes = 0;
  for (const core::HttpPacket& p : packets) {
    bytes += p.destination.host.size() + p.request_line.size() +
             p.cookie.size() + p.body.size();
  }
  return bytes + bytes / 4 + packets.size() * kLineOverhead;
}

/// A serialized snapshot in two parts; the file is `head` then `body`.
struct EncodedSnapshot {
  std::string head;  ///< every header line, digest and separator included
  std::string body;  ///< signature set, suspicious JSONL, normal JSONL
};

EncodedSnapshot Encode(const SnapshotView& snapshot) {
  EncodedSnapshot out;
  std::string& body = out.body;
  body.reserve(snapshot.signatures.size() +
               PoolJsonlCapacity(*snapshot.suspicious) +
               PoolJsonlCapacity(*snapshot.normal));
  body += snapshot.signatures;
  for (const core::HttpPacket& packet : *snapshot.suspicious) {
    io::AppendPacketJsonl(packet, &body);
  }
  const size_t sus_bytes = body.size() - snapshot.signatures.size();
  for (const core::HttpPacket& packet : *snapshot.normal) {
    io::AppendPacketJsonl(packet, &body);
  }
  const size_t norm_bytes =
      body.size() - snapshot.signatures.size() - sus_bytes;

  std::string& head = out.head;
  head += kMagic;
  head += "\nfeed_version " + std::to_string(snapshot.feed_version);
  head += "\nlast_sequence " + std::to_string(snapshot.last_sequence);
  head += "\nnew_suspicious " + std::to_string(snapshot.new_suspicious);
  head += "\nparams ";
  head += snapshot.params;
  head += "\nsections " + std::to_string(snapshot.signatures.size()) + " " +
          std::to_string(sus_bytes) + " " + std::to_string(norm_bytes) + "\n";

  // The digest covers everything but its own line, so a flipped byte
  // anywhere — header, separator, or body — is caught.
  crypto::Sha1 sha;
  sha.Update(head);
  sha.Update(kSeparator);
  sha.Update(body);
  auto digest = sha.Finish();
  head += "digest ";
  head += HexEncode(std::string_view(
      reinterpret_cast<const char*>(digest.data()), digest.size()));
  head += '\n';
  head += kSeparator;
  return out;
}

StatusOr<std::vector<core::HttpPacket>> ParsePool(std::string_view jsonl) {
  // Parsed line by line into one exactly-sized vector: recovery holds the
  // checkpoint's text and its pools at once, so no second copy of a pool.
  std::vector<core::HttpPacket> packets;
  packets.reserve(static_cast<size_t>(
      std::count(jsonl.begin(), jsonl.end(), '\n') + 1));
  for (size_t pos = 0; pos < jsonl.size();) {
    size_t end = jsonl.find('\n', pos);
    if (end == std::string_view::npos) end = jsonl.size();
    std::string_view line = TrimWhitespace(jsonl.substr(pos, end - pos));
    pos = end + 1;
    if (line.empty()) continue;
    LEAKDET_ASSIGN_OR_RETURN(core::HttpPacket packet,
                             io::ParsePacketJson(line));
    packets.push_back(std::move(packet));
  }
  return packets;
}

/// Reads one '\n'-terminated line starting at *pos (newline consumed, not
/// returned). Corruption if no newline remains.
StatusOr<std::string_view> ReadLine(std::string_view text, size_t* pos) {
  size_t nl = text.find('\n', *pos);
  if (nl == std::string_view::npos) {
    return Status::Corruption("snapshot header truncated");
  }
  std::string_view line = text.substr(*pos, nl - *pos);
  *pos = nl + 1;
  return line;
}

StatusOr<uint64_t> HeaderUint(std::string_view line, std::string_view key) {
  if (line.substr(0, key.size()) != key || line.size() <= key.size() ||
      line[key.size()] != ' ') {
    return Status::Corruption("snapshot header: expected '" +
                              std::string(key) + "'");
  }
  return ParseUint64(line.substr(key.size() + 1));
}

}  // namespace

SnapshotView::SnapshotView(const SnapshotContents& snapshot)
    : feed_version(snapshot.feed_version),
      last_sequence(snapshot.last_sequence),
      new_suspicious(snapshot.new_suspicious),
      params(snapshot.params),
      signatures(snapshot.signatures),
      suspicious(&snapshot.suspicious),
      normal(&snapshot.normal) {}

std::string SerializeSnapshot(const SnapshotContents& snapshot) {
  EncodedSnapshot encoded = Encode(snapshot);
  return encoded.head + encoded.body;
}

StatusOr<SnapshotContents> ParseSnapshot(std::string_view text) {
  size_t pos = 0;
  LEAKDET_ASSIGN_OR_RETURN(std::string_view magic, ReadLine(text, &pos));
  if (magic != kMagic) return Status::Corruption("not a leakdet snapshot");

  SnapshotContents snapshot;
  LEAKDET_ASSIGN_OR_RETURN(std::string_view line, ReadLine(text, &pos));
  LEAKDET_ASSIGN_OR_RETURN(snapshot.feed_version,
                           HeaderUint(line, "feed_version"));
  LEAKDET_ASSIGN_OR_RETURN(line, ReadLine(text, &pos));
  LEAKDET_ASSIGN_OR_RETURN(snapshot.last_sequence,
                           HeaderUint(line, "last_sequence"));
  LEAKDET_ASSIGN_OR_RETURN(line, ReadLine(text, &pos));
  LEAKDET_ASSIGN_OR_RETURN(snapshot.new_suspicious,
                           HeaderUint(line, "new_suspicious"));

  LEAKDET_ASSIGN_OR_RETURN(line, ReadLine(text, &pos));
  if (line.substr(0, 7) != "params ") {
    return Status::Corruption("snapshot header: expected 'params'");
  }
  snapshot.params = std::string(line.substr(7));

  LEAKDET_ASSIGN_OR_RETURN(line, ReadLine(text, &pos));
  if (line.substr(0, 9) != "sections ") {
    return Status::Corruption("snapshot header: expected 'sections'");
  }
  std::vector<std::string_view> sizes = Split(line.substr(9), ' ');
  if (sizes.size() != 3) {
    return Status::Corruption("snapshot header: sections needs 3 sizes");
  }
  LEAKDET_ASSIGN_OR_RETURN(uint64_t sig_bytes, ParseUint64(sizes[0]));
  LEAKDET_ASSIGN_OR_RETURN(uint64_t sus_bytes, ParseUint64(sizes[1]));
  LEAKDET_ASSIGN_OR_RETURN(uint64_t norm_bytes, ParseUint64(sizes[2]));

  const size_t digest_start = pos;
  LEAKDET_ASSIGN_OR_RETURN(line, ReadLine(text, &pos));
  if (line.substr(0, 7) != "digest ") {
    return Status::Corruption("snapshot header: expected 'digest'");
  }
  const std::string expected(line.substr(7));
  const size_t digest_end = pos;

  crypto::Sha1 sha;
  sha.Update(text.substr(0, digest_start));
  sha.Update(text.substr(digest_end));
  auto digest = sha.Finish();
  std::string actual = HexEncode(std::string_view(
      reinterpret_cast<const char*>(digest.data()), digest.size()));
  if (actual != expected) {
    return Status::Corruption("snapshot digest mismatch");
  }

  LEAKDET_ASSIGN_OR_RETURN(line, ReadLine(text, &pos));
  if (line != "---") return Status::Corruption("snapshot: expected '---'");

  std::string_view body = text.substr(pos);
  if (body.size() != sig_bytes + sus_bytes + norm_bytes) {
    return Status::Corruption("snapshot body size mismatch");
  }
  snapshot.signatures = std::string(body.substr(0, sig_bytes));
  LEAKDET_ASSIGN_OR_RETURN(snapshot.suspicious,
                           ParsePool(body.substr(sig_bytes, sus_bytes)));
  LEAKDET_ASSIGN_OR_RETURN(snapshot.normal,
                           ParsePool(body.substr(sig_bytes + sus_bytes)));
  return snapshot;
}

std::string SnapshotFileName(uint64_t feed_version, uint64_t last_sequence) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snap-%020llu-%020llu.snap",
                static_cast<unsigned long long>(feed_version),
                static_cast<unsigned long long>(last_sequence));
  return buf;
}

bool ParseSnapshotFileName(std::string_view name, uint64_t* feed_version,
                           uint64_t* last_sequence) {
  if (name.size() != 5 + 20 + 1 + 20 + 5 || name.substr(0, 5) != "snap-" ||
      name[25] != '-' || name.substr(46) != ".snap") {
    return false;
  }
  auto parse20 = [](std::string_view digits, uint64_t* out) {
    uint64_t value = 0;
    for (char c : digits) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    *out = value;
    return true;
  };
  return parse20(name.substr(5, 20), feed_version) &&
         parse20(name.substr(26, 20), last_sequence);
}

StatusOr<uint64_t> WriteSnapshotFile(Dir* dir, const std::string& dirpath,
                                     const SnapshotView& snapshot) {
  const std::string name =
      SnapshotFileName(snapshot.feed_version, snapshot.last_sequence);
  const std::string tmp = dirpath + "/." + name + ".tmp";
  const std::string final_path = dirpath + "/" + name;

  if (dir->Exists(tmp)) LEAKDET_RETURN_IF_ERROR(dir->Remove(tmp));
  LEAKDET_ASSIGN_OR_RETURN(std::unique_ptr<File> file, dir->OpenAppend(tmp));
  const EncodedSnapshot encoded = Encode(snapshot);
  Status status = file->Append(encoded.head);
  if (status.ok()) status = file->Append(encoded.body);
  if (status.ok()) status = file->Sync();
  Status close_status = file->Close();
  if (status.ok()) status = close_status;
  if (!status.ok()) {
    dir->Remove(tmp);
    return status;
  }
  LEAKDET_RETURN_IF_ERROR(dir->Rename(tmp, final_path));
  LEAKDET_RETURN_IF_ERROR(dir->SyncDir(dirpath));
  return static_cast<uint64_t>(encoded.head.size() + encoded.body.size());
}

StatusOr<SnapshotContents> LoadNewestSnapshot(Dir* dir,
                                              const std::string& dirpath,
                                              std::string* file_name,
                                              size_t* skipped) {
  LEAKDET_ASSIGN_OR_RETURN(std::vector<std::string> names, dir->List(dirpath));
  std::vector<std::string> candidates;
  for (const std::string& name : names) {
    uint64_t version = 0, sequence = 0;
    if (ParseSnapshotFileName(name, &version, &sequence)) {
      candidates.push_back(name);
    }
  }
  std::sort(candidates.rbegin(), candidates.rend());  // newest version first
  if (skipped) *skipped = 0;
  for (const std::string& name : candidates) {
    StatusOr<std::string> text = dir->Read(dirpath + "/" + name);
    if (text.ok()) {
      StatusOr<SnapshotContents> snapshot = ParseSnapshot(*text);
      if (snapshot.ok()) {
        if (file_name) *file_name = name;
        return snapshot;
      }
    }
    if (skipped) ++*skipped;
  }
  return Status::NotFound("no valid snapshot in " + dirpath);
}

StatusOr<std::string> ReadNewestSnapshotRaw(Dir* dir,
                                            const std::string& dirpath,
                                            std::string* file_name) {
  LEAKDET_ASSIGN_OR_RETURN(std::vector<std::string> names, dir->List(dirpath));
  std::vector<std::string> candidates;
  for (const std::string& name : names) {
    uint64_t version = 0, sequence = 0;
    if (ParseSnapshotFileName(name, &version, &sequence)) {
      candidates.push_back(name);
    }
  }
  std::sort(candidates.rbegin(), candidates.rend());  // newest version first
  for (const std::string& name : candidates) {
    StatusOr<std::string> text = dir->Read(dirpath + "/" + name);
    if (text.ok() && ParseSnapshot(*text).ok()) {
      if (file_name) *file_name = name;
      return std::move(*text);
    }
  }
  return Status::NotFound("no valid snapshot in " + dirpath);
}

}  // namespace leakdet::store
