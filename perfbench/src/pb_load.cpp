// Load generator of the served workload: drives a running `gkgpu serve`
// daemon through serve::MapOverSocket from one process, on at most
// --connections concurrent connections, and checks every job's SAM bytes
// against the standalone CLI's output for the same reads.
//
//   pb_load wait  --socket S
//       Polls the daemon's stats frame until it answers (60 s at most).
//   pb_load stats --socket S
//       Prints the daemon's Prometheus scrape.
//   pb_load run   --socket S --reads R.fq --expect standalone.sam
//                 --job-reads N --connections C --phase SPEC [--spans F]
//       SPEC is one of
//         closed:JOBS                    every job sent back to back;
//         open:RATE:JOBS                 open loop, one job due every
//                                        1/RATE s;
//         ladder:LIMIT_MS:JOBS:R1/R2/..  open loops over a fixed ascending
//                                        ladder of rates, for the highest
//                                        one that meets the tail limit
//                                        without failures or a growing
//                                        backlog.
//       Phases may be chained with commas.  Prints one JSON object.
//       perfbench/run.py is the only caller; the job size and connection
//       count are its constants.
//
// Jobs are consecutive N-read slices of the read file (wrapping around).
// A job's latency runs from the time it was due to the time its last SAM
// byte arrived.  A job counts as failed when MapOverSocket throws or its
// SAM bytes differ from the expected header + records.  The tail is the
// highest percentile with at least ten jobs beyond it; a failed job
// counts as beyond any limit.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pb_common.hpp"
#include "serve/client.hpp"

namespace {

/// Output sink that keeps only a digest of the SAM stream, the number of
/// records and the arrival times of the first and last byte.
class DigestBuf : public std::streambuf {
 public:
  std::uint64_t digest = pb::kFnvBasis;
  std::uint64_t records = 0;
  std::int64_t first_ns = 0;
  std::int64_t last_ns = 0;

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      const char c = static_cast<char>(ch);
      Consume(&c, 1);
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    Consume(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  void Consume(const char* s, std::size_t n) {
    if (n == 0) return;
    last_ns = pb::NowNs();
    if (first_ns == 0) first_ns = last_ns;
    digest = pb::Fnv1a(digest, std::string_view(s, n));
    for (std::size_t i = 0; i < n; ++i) {
      if (line_start_ && s[i] != '@') ++records;
      line_start_ = s[i] == '\n';
    }
  }
  bool line_start_ = true;
};

struct Job {
  std::string fastq;
  std::uint64_t reads = 0;
  std::uint64_t expect_digest = 0;
  std::uint64_t expect_records = 0;
};

/// Splits the FASTQ into jobs and derives each job's expected SAM bytes
/// from the standalone output for the same reads: its header plus the
/// records of the job's reads, in input order.  Single-end drivers emit
/// no record for an unmapped read, so such a read contributes nothing.
std::vector<Job> LoadJobs(const std::string& reads_path,
                          const std::string& sam_path, std::size_t job_reads) {
  std::ifstream sam(sam_path);
  if (!sam) throw std::runtime_error("cannot open " + sam_path);
  std::string header, line;
  std::unordered_map<std::string, std::string> lines_of;
  std::unordered_map<std::string, std::uint64_t> count_of;
  while (std::getline(sam, line)) {
    if (!line.empty() && line[0] == '@') {
      header += line + '\n';
      continue;
    }
    const std::string qname = line.substr(0, line.find('\t'));
    lines_of[qname] += line + '\n';
    ++count_of[qname];
  }
  std::ifstream fq(reads_path);
  if (!fq) throw std::runtime_error("cannot open " + reads_path);
  std::vector<Job> jobs;
  Job job;
  job.expect_digest = pb::Fnv1a(pb::kFnvBasis, header);
  int n = 0;
  while (std::getline(fq, line)) {
    if (n % 4 == 0) {
      const std::string qname =
          line.substr(1, line.find_first_of(" \t") - 1);
      const auto it = lines_of.find(qname);
      if (it != lines_of.end()) {
        job.expect_digest = pb::Fnv1a(job.expect_digest, it->second);
        job.expect_records += count_of[qname];
      }
    }
    job.fastq += line;
    job.fastq += '\n';
    if (++n % 4 == 0 && ++job.reads == job_reads) {
      jobs.push_back(std::move(job));
      job = Job();
      job.expect_digest = pb::Fnv1a(pb::kFnvBasis, header);
    }
  }
  if (jobs.empty()) throw std::runtime_error("fewer reads than one job");
  return jobs;
}

struct JobResult {
  std::int64_t due_ns = 0;
  std::int64_t pickup_ns = 0;  // when a connection took the job
  std::int64_t send_ns = 0;
  std::int64_t first_ns = 0;
  std::int64_t done_ns = 0;
  bool failed = false;
};

struct PhaseResult {
  double rate = 0.0;  // jobs/s offered (0 = closed loop)
  std::vector<JobResult> jobs;
  std::uint64_t reads = 0;
  double window_s = 0.0;
};

double PercentileNearestRank(std::vector<double> v, std::size_t rank) {
  std::sort(v.begin(), v.end());
  return v[std::min(rank, v.size() - 1)];
}

/// Runs `count` jobs: job i is due at t0 + i / rate (all at t0 when rate
/// is 0) and goes out on the first free connection.
PhaseResult RunPhase(const std::string& socket, const std::vector<Job>& jobs,
                     std::size_t first_job, std::size_t count, double rate,
                     int connections, pb::SpanBuffer* spans,
                     std::int64_t parent) {
  PhaseResult out;
  out.rate = rate;
  out.jobs.resize(count);
  std::atomic<std::size_t> next{0};
  const std::int64_t t0 = pb::NowNs() + 2'000'000;
  const auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      JobResult& r = out.jobs[i];
      r.due_ns =
          t0 + (rate > 0.0 ? static_cast<std::int64_t>(1e9 * i / rate) : 0);
      r.pickup_ns = pb::NowNs();
      if (r.pickup_ns < r.due_ns) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(r.due_ns - r.pickup_ns));
      }
      const std::size_t id = (first_job + i) % jobs.size();
      const Job& job = jobs[id];
      DigestBuf buf;
      std::ostream sam(&buf);
      std::istringstream fastq(job.fastq);
      r.send_ns = pb::NowNs();
      try {
        const auto stats = gkgpu::serve::MapOverSocket(socket, fastq, sam);
        r.failed = stats.reads != job.reads ||
                   buf.records != job.expect_records ||
                   buf.digest != job.expect_digest;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "pb_load: job %zu: %s\n", i, e.what());
        r.failed = true;
      }
      r.done_ns = buf.last_ns != 0 ? buf.last_ns : pb::NowNs();
      r.first_ns = buf.first_ns != 0 ? buf.first_ns : r.done_ns;
      if (spans != nullptr) {
        const auto run = static_cast<std::int64_t>(first_job + i);
        const std::int64_t s =
            spans->Add("serve.job", parent, run, r.send_ns, r.done_ns);
        spans->Add("serve.connect", s, run, r.send_ns, r.first_ns);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int c = 0; c < connections; ++c) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  std::int64_t end = t0;
  for (const JobResult& r : out.jobs) {
    end = std::max(end, r.done_ns);
    if (!r.failed) out.reads += jobs[0].reads;
  }
  out.window_s = static_cast<double>(end - t0) * 1e-9;
  return out;
}

struct Summary {
  std::size_t jobs = 0, failed = 0;
  double p50_ms = 0.0, tail_ms = 0.0, tail_pct = 0.0;
  double late_p50_ms = 0.0, late_max_ms = 0.0;
  std::size_t queued = 0;  // jobs that found every connection busy
  bool backlog = false;
  double reads_per_s = 0.0, window_s = 0.0;
};

Summary Summarize(const PhaseResult& p) {
  Summary s;
  s.jobs = p.jobs.size();
  std::vector<double> lat, late, send_delay;
  for (const JobResult& r : p.jobs) {
    const double l = static_cast<double>(r.done_ns - r.due_ns) * 1e-6;
    lat.push_back(r.failed ? std::numeric_limits<double>::infinity() : l);
    s.failed += r.failed ? 1 : 0;
    send_delay.push_back(static_cast<double>(r.send_ns - r.due_ns) * 1e-6);
    if (r.pickup_ns <= r.due_ns) {
      late.push_back(static_cast<double>(r.send_ns - r.due_ns) * 1e-6);
    } else {
      ++s.queued;
    }
  }
  s.p50_ms = PercentileNearestRank(lat, (lat.size() + 1) / 2 - 1);
  // Highest nearest-rank percentile with at least ten jobs beyond it.
  const std::size_t tail_rank = lat.size() > 10 ? lat.size() - 11 : 0;
  s.tail_ms = PercentileNearestRank(lat, tail_rank);
  s.tail_pct = 100.0 * static_cast<double>(tail_rank + 1) /
               static_cast<double>(lat.size());
  if (!late.empty()) {
    s.late_p50_ms = PercentileNearestRank(late, (late.size() + 1) / 2 - 1);
    s.late_max_ms = *std::max_element(late.begin(), late.end());
  }
  // A backlog grows when jobs in the last quarter wait for a connection
  // longer than those in the first quarter by more than two arrival
  // intervals.
  if (p.rate > 0.0 && send_delay.size() >= 8) {
    const std::size_t q = send_delay.size() / 4;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
      first += send_delay[i];
      last += send_delay[send_delay.size() - 1 - i];
    }
    s.backlog = (last - first) / static_cast<double>(q) > 2000.0 / p.rate;
  }
  s.window_s = p.window_s;
  s.reads_per_s = p.window_s > 0.0 ? static_cast<double>(p.reads) / p.window_s
                                   : 0.0;
  return s;
}

std::string ToJson(const Summary& s, const std::string& kind, double rate) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"kind\": \"%s\", \"rate\": %.6g, \"jobs\": %zu, \"failed\": %zu, "
      "\"p50_ms\": %.6f, \"tail_ms\": %.6f, \"tail_pct\": %.4f, "
      "\"late_p50_ms\": %.6f, \"late_max_ms\": %.6f, \"queued\": %zu, "
      "\"backlog\": %s, \"reads_per_s\": %.6f, \"window_s\": %.6f}",
      kind.c_str(), rate, s.jobs, s.failed,
      std::isinf(s.p50_ms) ? -1.0 : s.p50_ms,
      std::isinf(s.tail_ms) ? -1.0 : s.tail_ms, s.tail_pct, s.late_p50_ms,
      s.late_max_ms, s.queued, s.backlog ? "true" : "false", s.reads_per_s,
      s.window_s);
  return buf;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, sep)) out.push_back(part);
  return out;
}

int Run(const pb::Args& args) {
  const std::string socket = args.Get("socket");
  const auto jobs = LoadJobs(args.Get("reads"), args.Get("expect"),
                             static_cast<std::size_t>(args.Int("job-reads")));
  const int connections = static_cast<int>(args.Int("connections"));
  pb::SpanBuffer spans;
  pb::SpanBuffer* sp = args.Has("spans") ? &spans : nullptr;
  std::vector<std::string> results;
  double max_rate = 0.0;
  std::vector<double> capacity;  // jobs/s of each closed phase
  std::size_t first_job = 0;
  const auto run = [&](const std::string& kind, double rate,
                       std::size_t count) {
    const std::int64_t parent =
        sp != nullptr ? sp->Open("serve.phase", -1, 0) : -1;
    const PhaseResult p = RunPhase(socket, jobs, first_job, count, rate,
                                   connections, sp, parent);
    if (sp != nullptr) sp->Close(parent);
    first_job += count;
    const Summary s = Summarize(p);
    results.push_back(ToJson(s, kind, rate));
    return s;
  };
  for (const std::string& phase : Split(args.Get("phase"), ',')) {
    const auto spec = Split(phase, ':');
    if (spec.at(0) == "closed") {
      const Summary s = run("closed", 0.0, std::stoul(spec.at(1)));
      capacity.push_back(static_cast<double>(s.jobs) / s.window_s);
    } else if (spec.at(0) == "open") {
      run("open", std::stod(spec.at(1)), std::stoul(spec.at(2)));
    } else if (spec.at(0) == "ladder") {
      // Scan of a fixed ascending ladder from the highest rung at or
      // below the median closed-loop capacity (an open loop on the same
      // connections sustains at least that): upward while rungs pass,
      // downward until one passes, at most kMaxRungs rungs.  A rung passes
      // when no job fails, the tail meets the limit and no backlog builds.
      const double limit_ms = std::stod(spec.at(1));
      const std::size_t count = std::stoul(spec.at(2));
      std::vector<double> rungs;
      for (const std::string& r : Split(spec.at(3), '/')) {
        rungs.push_back(std::stod(r));
      }
      constexpr int kMaxRungs = 10;
      int tested = 0;
      const auto passes = [&](std::size_t i) {
        ++tested;
        const Summary s = run("ladder", rungs[i], count);
        return s.failed == 0 && !s.backlog && s.tail_ms <= limit_ms;
      };
      std::sort(capacity.begin(), capacity.end());
      const double start =
          capacity.empty() ? 0.0 : capacity[capacity.size() / 2];
      std::size_t i = 0;
      while (i + 1 < rungs.size() && rungs[i + 1] <= start) ++i;
      if (passes(i)) {
        while (tested < kMaxRungs && i + 1 < rungs.size() && passes(i + 1)) {
          ++i;
        }
        max_rate = rungs[i];
      } else {
        while (tested < kMaxRungs && i > 0) {
          if (passes(--i)) {
            max_rate = rungs[i];
            break;
          }
        }
      }
    } else {
      throw std::runtime_error("unknown phase " + spec.at(0));
    }
  }
  std::string json = "{\"phases\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    json += (i != 0 ? ", " : "") + results[i];
  }
  char tail[64];
  std::snprintf(tail, sizeof(tail), "], \"max_rate\": %.6g}", max_rate);
  json += tail;
  if (sp != nullptr) spans.Write(args.Get("spans"));
  std::printf("%s\n", json.c_str());
  return 0;
}

int Wait(const pb::Args& args) {
  const std::string socket = args.Get("socket");
  constexpr std::int64_t kTimeoutNs = 60'000'000'000LL;
  const std::int64_t deadline = pb::NowNs() + kTimeoutNs;
  for (;;) {
    try {
      gkgpu::serve::QueryStats(socket);
      return 0;
    } catch (const std::exception&) {
      if (pb::NowNs() > deadline) {
        std::fprintf(stderr, "pb_load: daemon at %s never answered\n",
                     socket.c_str());
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs("usage: pb_load wait|stats|run --flag value ...\n", stderr);
    return 2;
  }
  try {
    const pb::Args args(argc, argv, 2);
    const std::string cmd = argv[1];
    if (cmd == "wait") return Wait(args);
    if (cmd == "stats") {
      std::fputs(gkgpu::serve::QueryStats(args.Get("socket")).c_str(),
                 stdout);
      return 0;
    }
    if (cmd == "run") return Run(args);
    std::fprintf(stderr, "pb_load: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_load: %s\n", e.what());
    return 1;
  }
}
