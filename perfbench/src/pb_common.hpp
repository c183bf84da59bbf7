// Shared helpers of the benchmark's programs: flag parsing, a monotonic
// nanosecond clock, FNV-1a digests and the in-memory span buffer the
// traced runs write out at exit.
#ifndef GKGPU_PERFBENCH_PB_COMMON_HPP
#define GKGPU_PERFBENCH_PB_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

/// `--key value` flags after a subcommand; a flag without a value is "1".
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + key);
      key = key.substr(2);
      if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "1";
      }
    }
  }
  bool Has(const std::string& key) const { return values_.count(key) != 0; }
  std::string Get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  long long Int(const std::string& key) const { return std::stoll(Get(key)); }
  double Num(const std::string& key) const { return std::stod(Get(key)); }

 private:
  std::map<std::string, std::string> values_;
};

/// CLOCK_MONOTONIC nanoseconds — the clock Python's time.monotonic_ns()
/// reads, so spans of different programs share one time line.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::uint64_t Fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Spans recorded at layer boundaries: name, start, end, the span that
/// caused it and the run/job it belongs to.  Held in memory (appends are
/// mutex-guarded, so load-generator workers may share one buffer) and
/// written as JSON lines once the program is done.
class SpanBuffer {
 public:
  struct Span {
    std::string name;
    std::int64_t parent = -1;
    std::int64_t run = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::int64_t Open(std::string name, std::int64_t parent, std::int64_t run) {
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), parent, run, now, now});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void Close(std::int64_t id) {
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
  }
  /// Records an already-measured interval.
  std::int64_t Add(std::string name, std::int64_t parent, std::int64_t run,
                   std::int64_t start_ns, std::int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), parent, run, start_ns, end_ns});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// One JSON object per line: {"id","name","parent","run","start_ns",
  /// "end_ns"}.
  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                   "\"run\": %lld, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   i, s.name.c_str(), static_cast<long long>(s.parent),
                   static_cast<long long>(s.run),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    std::fclose(f);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on a single-threaded caller.
class Scope {
 public:
  Scope(SpanBuffer& buf, std::string name, std::int64_t parent,
        std::int64_t run = 0)
      : buf_(buf), id_(buf.Open(std::move(name), parent, run)) {}
  ~Scope() { buf_.Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanBuffer& buf_;
  std::int64_t id_;
};

}  // namespace pb

#endif  // GKGPU_PERFBENCH_PB_COMMON_HPP
