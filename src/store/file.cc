#include "store/file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace leakdet::store {

namespace {

Status Errno(const std::string& op, const std::string& path) {
  return Status::IOError(op + " " + path + ": " + std::strerror(errno));
}

class PosixFile final : public File {
 public:
  PosixFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  ~PosixFile() override { Close(); }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::FailedPrecondition("append on closed file");
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Errno("write", path_);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::FailedPrecondition("sync on closed file");
    if (::fdatasync(fd_) != 0) return Errno("fdatasync", path_);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return Errno("close", path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixDir final : public Dir {
 public:
  StatusOr<std::unique_ptr<File>> OpenAppend(const std::string& path) override {
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) return Errno("open", path);
    return std::unique_ptr<File>(new PosixFile(fd, path));
  }

  StatusOr<std::string> Read(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Errno("open", path);
    std::string out;
    // Sized up front: recovery reads multi-MB checkpoints and segments, and
    // growing the string by doubling would briefly hold ~1.5x the file.
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      out.reserve(static_cast<size_t>(st.st_size));
    }
    char buf[1 << 16];
    while (true) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        Status status = Errno("read", path);
        ::close(fd);
        return status;
      }
      if (n == 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return out;
  }

  StatusOr<std::vector<std::string>> List(const std::string& dirpath) override {
    DIR* dir = ::opendir(dirpath.c_str());
    if (dir == nullptr) return Errno("opendir", dirpath);
    std::vector<std::string> names;
    while (struct dirent* entry = ::readdir(dir)) {
      std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      names.push_back(std::move(name));
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());
    return names;
  }

  Status CreateDir(const std::string& dirpath) override {
    if (::mkdir(dirpath.c_str(), 0755) != 0 && errno != EEXIST) {
      return Errno("mkdir", dirpath);
    }
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) return Errno("rename", from);
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Errno("truncate", path);
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dirpath) override {
    int fd = ::open(dirpath.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return Errno("open dir", dirpath);
    Status status;
    if (::fsync(fd) != 0) status = Errno("fsync dir", dirpath);
    ::close(fd);
    return status;
  }

  StatusOr<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return Errno("stat", path);
    return static_cast<uint64_t>(st.st_size);
  }

  bool Exists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }
};

}  // namespace

Dir* Dir::Real() {
  static PosixDir dir;
  return &dir;
}

}  // namespace leakdet::store
