// leakdet_store — offline inspection and maintenance of a durable signature
// store data directory (WAL segments + epoch snapshots):
//
//   leakdet_store inspect --data-dir DIR
//       Lists every snapshot (version, covered sequence, digest status) and
//       WAL segment (record count, publish records, sequence range, torn
//       bytes), plus the recovery point an open would use. Read-only.
//
//   leakdet_store verify  --data-dir DIR
//       Full integrity pass: CRC-checks every record, checks that every
//       publish record's feed parses as a signature set, digest-checks every
//       snapshot, verifies sequence contiguity and the snapshot-to-log
//       handoff. Read-only; exit 1 if recovery would lose anything.
//
//   leakdet_store compact --data-dir DIR [--keep N] [--sync-policy P]
//       Opens the store (repairing any torn tail) and retires WAL segments
//       folded into the newest snapshot plus snapshots beyond the newest N.
//
//   leakdet_store tenants --data-dir ROOT
//       Lists the per-tenant lineages (tenant-* subdirectories) under a
//       federation data root. Read-only.
//
//   leakdet_store ncdcache --data-dir DIR
//       Scans the incremental trainer's NCD size-cache sidecar
//       (DIR/ncd-cache): record counts, CRC validation, and whether any
//       trailing garbage is a repairable torn tail or real damage.
//       Read-only; exit 1 on damage (a torn tail alone is healthy — the
//       next trainer open repairs it in place).
//
// With --tenant NAME, inspect/verify/compact operate on that tenant's
// lineage under the federation data root: --data-dir ROOT --tenant acme
// targets ROOT/tenant-acme (name mangling handled for you).
//
// Exit status: 0 on success / healthy, 1 on any error or damage.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "federation/tenant_store.h"
#include "match/signature.h"
#include "store/snapshot.h"
#include "store/store_manager.h"
#include "store/wal.h"
#include "train/ncd_cache.h"

namespace {

using namespace leakdet;

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      std::string key(arg.substr(2));
      if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  std::string Get(const std::string& key, std::string def = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  long GetLong(const std::string& key, long def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atol(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// The directory a command should operate on: --data-dir itself, or the
/// tenant's lineage under it when --tenant is also given. Empty means the
/// caller must Fail with its own usage line.
std::string ResolveDataDir(const Args& args) {
  std::string data_dir = args.Get("data-dir");
  if (data_dir.empty()) return data_dir;
  std::string tenant = args.Get("tenant");
  if (!tenant.empty()) {
    data_dir += "/" + federation::TenantDirName(tenant);
  }
  return data_dir;
}

struct SegmentReport {
  uint64_t id = 0;
  uint64_t bytes = 0;
  uint64_t records = 0;          ///< ingest records
  uint64_t publish_records = 0;
  uint64_t bad_publish_records = 0;  ///< feed does not parse
  uint64_t newest_published_version = 0;
  uint64_t first_sequence = 0;   ///< of the first ingest record
  uint64_t last_sequence = 0;
  uint64_t tail_bytes = 0;      ///< bytes past the last clean record
  bool tail_is_corrupt = false; ///< CRC/type damage rather than truncation
};

StatusOr<SegmentReport> ScanSegment(store::Dir* dir, const std::string& path,
                                    uint64_t id) {
  SegmentReport report;
  report.id = id;
  LEAKDET_ASSIGN_OR_RETURN(std::string data, dir->Read(path));
  report.bytes = data.size();
  store::RecordCursor cursor(data);
  while (true) {
    StatusOr<store::FeedRecord> record = cursor.Next();
    if (!record.ok()) {
      if (record.status().code() != StatusCode::kNotFound) {
        report.tail_bytes = data.size() - cursor.offset();
        report.tail_is_corrupt =
            record.status().code() == StatusCode::kCorruption;
      }
      break;
    }
    if (record->is_publish()) {
      ++report.publish_records;
      report.newest_published_version = record->feed_version;
      if (!match::SignatureSet::Deserialize(record->signatures).ok()) {
        ++report.bad_publish_records;
      }
      continue;
    }
    if (report.records == 0) report.first_sequence = record->sequence;
    report.last_sequence = record->sequence;
    ++report.records;
  }
  return report;
}

struct StoreSurvey {
  std::vector<SegmentReport> segments;                   // by id
  std::vector<std::pair<std::string, std::string>> snapshots;  // name, status
  uint64_t newest_valid_version = 0;
  uint64_t newest_valid_sequence = 0;
  bool have_valid_snapshot = false;
  int problems = 0;
};

StatusOr<StoreSurvey> Survey(store::Dir* dir, const std::string& data_dir) {
  StoreSurvey survey;
  LEAKDET_ASSIGN_OR_RETURN(std::vector<std::string> names,
                           dir->List(data_dir));
  std::vector<std::pair<uint64_t, std::string>> segment_names;
  for (const std::string& name : names) {
    uint64_t id = 0, version = 0, sequence = 0;
    if (store::ParseSegmentFileName(name, &id)) {
      segment_names.emplace_back(id, name);
    } else if (store::ParseSnapshotFileName(name, &version, &sequence)) {
      StatusOr<std::string> text = dir->Read(data_dir + "/" + name);
      std::string status = "ok";
      if (!text.ok()) {
        status = "unreadable";
      } else {
        StatusOr<store::SnapshotContents> parsed = store::ParseSnapshot(*text);
        if (!parsed.ok()) {
          status = parsed.status().message();
        } else if (version > survey.newest_valid_version ||
                   !survey.have_valid_snapshot) {
          survey.newest_valid_version = version;
          survey.newest_valid_sequence = parsed->last_sequence;
          survey.have_valid_snapshot = true;
        }
      }
      if (status != "ok") ++survey.problems;
      survey.snapshots.emplace_back(name, status);
    }
  }
  std::sort(segment_names.begin(), segment_names.end());
  for (size_t i = 0; i < segment_names.size(); ++i) {
    LEAKDET_ASSIGN_OR_RETURN(
        SegmentReport report,
        ScanSegment(dir, data_dir + "/" + segment_names[i].second,
                    segment_names[i].first));
    // A dirty tail is legal only in the newest segment, and only as a torn
    // (truncated) record — corruption is damage anywhere.
    if (report.tail_bytes > 0 &&
        (i + 1 != segment_names.size() || report.tail_is_corrupt)) {
      ++survey.problems;
    }
    survey.problems += static_cast<int>(report.bad_publish_records);
    survey.segments.push_back(report);
  }
  // Sequence contiguity across the whole log.
  uint64_t expected = 0;
  for (const SegmentReport& report : survey.segments) {
    if (report.records == 0) continue;
    if (expected != 0 && report.first_sequence != expected) ++survey.problems;
    expected = report.last_sequence + 1;
  }
  // Snapshot-to-log handoff: replay must be able to pick up at
  // newest_valid_sequence + 1.
  if (survey.have_valid_snapshot) {
    uint64_t first_live = 0;
    for (const SegmentReport& report : survey.segments) {
      if (report.records == 0) continue;
      if (report.last_sequence > survey.newest_valid_sequence) {
        first_live = report.first_sequence;
        break;
      }
    }
    if (first_live > survey.newest_valid_sequence + 1) ++survey.problems;
  }
  return survey;
}

int CmdInspect(const Args& args) {
  std::string data_dir = ResolveDataDir(args);
  if (data_dir.empty()) return Fail("inspect needs --data-dir DIR");
  StatusOr<StoreSurvey> survey = Survey(store::Dir::Real(), data_dir);
  if (!survey.ok()) return Fail(survey.status());

  std::printf("snapshots (%zu):\n", survey->snapshots.size());
  for (const auto& [name, status] : survey->snapshots) {
    std::printf("  %s  [%s]\n", name.c_str(), status.c_str());
  }
  std::printf("wal segments (%zu):\n", survey->segments.size());
  uint64_t records = 0;
  uint64_t publish_records = 0;
  uint64_t newest_published = 0;
  for (const SegmentReport& report : survey->segments) {
    std::printf("  wal-%020llu.log  %8llu bytes  %6llu records  %4llu publish",
                static_cast<unsigned long long>(report.id),
                static_cast<unsigned long long>(report.bytes),
                static_cast<unsigned long long>(report.records),
                static_cast<unsigned long long>(report.publish_records));
    if (report.records > 0) {
      std::printf("  seq %llu..%llu",
                  static_cast<unsigned long long>(report.first_sequence),
                  static_cast<unsigned long long>(report.last_sequence));
    }
    if (report.tail_bytes > 0) {
      std::printf("  [%s tail: %llu bytes]",
                  report.tail_is_corrupt ? "corrupt" : "torn",
                  static_cast<unsigned long long>(report.tail_bytes));
    }
    if (report.bad_publish_records > 0) {
      std::printf("  [%llu unparsable feed(s)]",
                  static_cast<unsigned long long>(report.bad_publish_records));
    }
    std::printf("\n");
    records += report.records;
    publish_records += report.publish_records;
    if (report.publish_records > 0) {
      newest_published = report.newest_published_version;
    }
  }
  std::printf("total records: %llu, publish records: %llu",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(publish_records));
  if (publish_records > 0) {
    std::printf(" (newest logged epoch v%llu)",
                static_cast<unsigned long long>(newest_published));
  }
  std::printf("\n");
  if (survey->have_valid_snapshot) {
    std::printf("recovery point: snapshot v%llu @ seq %llu, then WAL replay\n",
                static_cast<unsigned long long>(survey->newest_valid_version),
                static_cast<unsigned long long>(survey->newest_valid_sequence));
  } else {
    std::printf("recovery point: no valid snapshot — full WAL replay\n");
  }
  return 0;
}

int CmdVerify(const Args& args) {
  std::string data_dir = ResolveDataDir(args);
  if (data_dir.empty()) return Fail("verify needs --data-dir DIR");
  StatusOr<StoreSurvey> survey = Survey(store::Dir::Real(), data_dir);
  if (!survey.ok()) return Fail(survey.status());
  for (const auto& [name, status] : survey->snapshots) {
    if (status != "ok") {
      std::fprintf(stderr, "damaged snapshot: %s (%s)\n", name.c_str(),
                   status.c_str());
    }
  }
  for (size_t i = 0; i < survey->segments.size(); ++i) {
    const SegmentReport& report = survey->segments[i];
    if (report.bad_publish_records > 0) {
      std::fprintf(stderr,
                   "DAMAGE: wal-%020llu.log has %llu publish record(s) whose "
                   "feed does not parse\n",
                   static_cast<unsigned long long>(report.id),
                   static_cast<unsigned long long>(report.bad_publish_records));
    }
    if (report.tail_bytes > 0) {
      bool last = i + 1 == survey->segments.size();
      std::fprintf(stderr, "%s: wal-%020llu.log has %llu dirty tail bytes\n",
                   (last && !report.tail_is_corrupt) ? "repairable"
                                                     : "DAMAGE",
                   static_cast<unsigned long long>(report.id),
                   static_cast<unsigned long long>(report.tail_bytes));
    }
  }
  if (survey->problems == 0) {
    std::printf("ok: %zu snapshots, %zu segments, log contiguous\n",
                survey->snapshots.size(), survey->segments.size());
    return 0;
  }
  std::fprintf(stderr, "verify found %d problem(s)\n", survey->problems);
  return 1;
}

int CmdCompact(const Args& args) {
  std::string data_dir = ResolveDataDir(args);
  if (data_dir.empty()) return Fail("compact needs --data-dir DIR");
  store::StoreOptions options;
  options.keep_snapshots =
      static_cast<size_t>(args.GetLong("keep", 2));
  if (!args.Get("sync-policy").empty()) {
    StatusOr<store::SyncPolicy> policy =
        store::ParseSyncPolicy(args.Get("sync-policy"));
    if (!policy.ok()) return Fail(policy.status());
    options.wal.sync_policy = *policy;
  }
  StatusOr<std::unique_ptr<store::StoreManager>> opened =
      store::StoreManager::Open(store::Dir::Real(), data_dir, options);
  if (!opened.ok()) return Fail(opened.status());
  StatusOr<store::StoreManager::CompactStats> stats = (*opened)->Compact();
  if (!stats.ok()) return Fail(stats.status());
  std::printf("removed %llu wal segment(s), %llu snapshot(s)\n",
              static_cast<unsigned long long>(stats->segments_removed),
              static_cast<unsigned long long>(stats->snapshots_removed));
  return 0;
}

int CmdTenants(const Args& args) {
  std::string root = args.Get("data-dir");
  if (root.empty()) return Fail("tenants needs --data-dir ROOT");
  std::vector<std::string> tenants =
      federation::ListTenants(store::Dir::Real(), root);
  if (tenants.empty()) {
    std::printf("no tenant lineages under %s\n", root.c_str());
    return 0;
  }
  std::printf("tenant lineages (%zu):\n", tenants.size());
  for (const std::string& tenant : tenants) {
    std::printf("  %-24s %s/%s\n", tenant.c_str(), root.c_str(),
                federation::TenantDirName(tenant).c_str());
  }
  return 0;
}

int CmdNcdCache(const Args& args) {
  std::string data_dir = ResolveDataDir(args);
  if (data_dir.empty()) return Fail("ncdcache needs --data-dir DIR");
  std::string path = data_dir + "/ncd-cache";
  StatusOr<train::NcdCacheInfo> info =
      train::InspectNcdCache(store::Dir::Real(), path);
  if (!info.ok()) return Fail(info.status());
  if (info->file_bytes == 0) {
    std::printf("%s: absent or empty (no cached epochs yet)\n", path.c_str());
    return 0;
  }
  std::printf("%s:\n", path.c_str());
  std::printf("  singletons: %llu  pairs: %llu\n",
              static_cast<unsigned long long>(info->singletons),
              static_cast<unsigned long long>(info->pairs));
  std::printf("  bytes: %llu valid of %llu on disk\n",
              static_cast<unsigned long long>(info->valid_bytes),
              static_cast<unsigned long long>(info->file_bytes));
  if (info->damaged) {
    std::fprintf(stderr,
                 "DAMAGE: invalid record before the tail — the next trainer "
                 "open will discard this cache and rebuild\n");
    return 1;
  }
  if (info->torn_tail) {
    std::printf("  torn tail: %llu bytes (repairable — truncated on next "
                "trainer open)\n",
                static_cast<unsigned long long>(info->file_bytes -
                                                info->valid_bytes));
  } else {
    std::printf("  clean\n");
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: leakdet_store <inspect|verify|compact|tenants|ncdcache> "
               "--data-dir DIR [--tenant NAME] [--keep N] "
               "[--sync-policy every-record|every-n|on-rotate]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args(argc, argv);
  std::string cmd = argv[1];
  if (cmd == "inspect") return CmdInspect(args);
  if (cmd == "verify") return CmdVerify(args);
  if (cmd == "compact") return CmdCompact(args);
  if (cmd == "tenants") return CmdTenants(args);
  if (cmd == "ncdcache") return CmdNcdCache(args);
  return Usage();
}
