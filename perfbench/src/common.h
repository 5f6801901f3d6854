// Shared plumbing for the benchmark runner: the result report, daemon
// child processes, and small /proc and file-system helpers.
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "openloop.h"

namespace perfbench {

// Everything one run measured and checked, printed as one JSON object.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Text(const std::string& name, const std::string& value) { texts_[name] = value; }
  // A failed check makes the run incorrect; the message is reported.
  void Check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool correct() const { return failures_.empty(); }
  void AddAttempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  std::string Json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
        << ", \"failed\": " << failed_ << ", \"values\": {";
    const char* sep = "";
    for (const auto& [name, value] : values_) {
      out << sep << "\"" << name << "\": ";
      if (std::isfinite(value)) {
        out << value;
      } else {
        out << "null";
      }
      sep = ", ";
    }
    out << "}, \"texts\": {";
    sep = "";
    for (const auto& [name, value] : texts_) {
      out << sep << "\"" << name << "\": \"" << Escape(value) << "\"";
      sep = ", ";
    }
    out << "}, \"failures\": [";
    sep = "";
    for (const std::string& f : failures_) {
      out << sep << "\"" << Escape(f) << "\"";
      sep = ", ";
    }
    out << "]}";
    return out.str();
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out;
  }

  std::map<std::string, double> values_;
  std::map<std::string, std::string> texts_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// 64-bit FNV-1a, used to fingerprint generated schedules.
class Fnv {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void Add(const std::string& s) {
    const uint64_t n = s.size();
    Add(&n, sizeof n);
    Add(s.data(), s.size());
  }
  void Add(int64_t v) { Add(&v, sizeof v); }
  uint64_t value() const { return h_; }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

inline uint64_t HashKey(const std::string& key) {
  Fnv f;
  f.Add(key.data(), key.size());
  return f.value();
}

// Reads a "Name:   <n> kB" line of /proc/<pid>/status, in bytes.
inline uint64_t ProcStatusBytes(pid_t pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const size_t flen = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, flen, field) == 0 && line.size() > flen && line[flen] == ':') {
      return std::stoull(line.substr(flen + 1)) * 1024;
    }
  }
  return 0;
}

inline uint64_t DirBytes(const std::string& dir, const std::string& prefix = "") {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (!prefix.empty() && entry.path().filename().string().rfind(prefix, 0) != 0) continue;
    total += entry.file_size();
  }
  return total;
}

// One `ocasta_cli serve` child. The destructor kill -9s and reaps it, so
// no daemon outlives the runner on any exit path that unwinds.
class Daemon {
 public:
  Daemon(const std::string& cli, std::vector<std::string> args, const std::string& dir,
         const std::string& name)
      : port_file_(dir + "/" + name + ".port") {
    std::filesystem::remove(port_file_);
    const std::string log = dir + "/" + name + ".log";
    args.insert(args.begin(), {cli, "serve", "--port", "0", "--port-file", port_file_});
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
      }
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(cli.c_str(), argv.data());
      _exit(127);
    }
    const int64_t deadline = NowNs() + 30'000'000'000LL;
    while (NowNs() < deadline) {
      std::ifstream in(port_file_);
      unsigned port = 0;
      if (in >> port && port != 0) {
        port_ = static_cast<uint16_t>(port);
        return;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up; see " + log);
      }
      usleep(1000);
    }
    Kill();
    throw std::runtime_error("daemon did not report its port; see " + log);
  }
  ~Daemon() {
    Kill();
    if (died_) std::fprintf(stderr, "[perfbench] daemon %s\n", DeathReason().c_str());
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // kill -9 and wait: the crash the durable workloads recover from.
  void Kill() {
    if (pid_ <= 0) return;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      died_ = true;
      died_status_ = status;
    } else {
      ::kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }

  std::string DeathReason() const {
    if (WIFSIGNALED(died_status_)) return "killed by signal " + std::to_string(WTERMSIG(died_status_));
    return "exited with status " + std::to_string(WEXITSTATUS(died_status_));
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  uint64_t PeakRssBytes() const { return ProcStatusBytes(pid_, "VmHWM"); }
  uint64_t RssBytes() const { return ProcStatusBytes(pid_, "VmRSS"); }

 private:
  std::string port_file_;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  bool died_ = false;  // It had already exited before Kill(): a crash.
  int died_status_ = 0;
};

// Progress line on stderr, stamped with seconds since the runner started.
inline void Log(const std::string& what) {
  static const int64_t start = NowNs();
  std::fprintf(stderr, "[perfbench %7.2fs] %s\n", static_cast<double>(NowNs() - start) / 1e9,
               what.c_str());
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

}  // namespace perfbench
