// Traced replay of one workload's inputs through the public call of each
// layer, on one thread where the CLI uses several.  Every call sits in a
// span (see pb_common.hpp); the spans are written to --spans at exit and
// the counts measured at the same boundaries go to --json.
//
//   pb_replay --index ref.gki --e E --max-insert N --spans spans.jsonl
//             --json counts.json --sam se.sam --paired-sam pe.sam
//             (--r1 R1.fq --r2 R2.fq | --reads R.fq --probe-r1 P1.fq
//              --probe-r2 P2.fq)
//
// The single-end chain (parse, seed, encode, kernel, engine filter,
// verify, SAM) runs over every read; with --r1/--r2 both mates enter it as
// single-end reads and the pairs then go through PairedEndMapper::MapPairs.
// A single-end workload has no pairs of its own, so the paired layer runs
// on a small fixed-size probe set of pairs from the same genome instead.
// The gpusim engine gets one device worker; with the calling thread that
// is two, so its CPU time is recorded too.  The replayed kernel's verdicts
// are checked against the engine's for every candidate ("kernel_mismatch"
// must stay 0), and the SAM the replay writes is the CLI's single-end
// output for the same reads.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "align/banded.hpp"
#include "core/engine.hpp"
#include "encode/encoded.hpp"
#include "gpusim/device.hpp"
#include "io/fastq.hpp"
#include "io/index_io.hpp"
#include "io/paired_fastq.hpp"
#include "mapper/mapper.hpp"
#include "mapper/sam.hpp"
#include "mapper/seed_index.hpp"
#include "paired/paired.hpp"
#include "pb_common.hpp"
#include "simd/dispatch.hpp"
#include "simd/gatekeeper_batch.hpp"

namespace {

using namespace gkgpu;

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

struct Counts {
  std::uint64_t reads = 0, fastq_bytes = 0, candidates = 0;
  std::uint64_t simd_pairs = 0, simd_bytes = 0;
  std::uint64_t filter_input = 0, filter_rejected = 0, filter_bypassed = 0;
  std::uint64_t kernel_mismatch = 0;
  std::uint64_t verify_pairs = 0, verify_pass = 0;
  std::uint64_t filter_accepted_defined = 0, false_accepts = 0;
  std::uint64_t sam_bytes = 0;
  PairedStats paired;
  bool has_paired = false;
  double filter_cpu_s = 0.0, cpu_s = 0.0, wall_s = 0.0;
};

void WriteCounts(const std::string& path, const Counts& c) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::fprintf(
      f,
      "{\"reads\": %llu, \"fastq_bytes\": %llu, \"candidates\": %llu, "
      "\"simd_pairs\": %llu, \"simd_bytes\": %llu, \"simd_tier\": \"%s\", "
      "\"filter_input\": %llu, \"filter_rejected\": %llu, "
      "\"filter_bypassed\": %llu, \"kernel_mismatch\": %llu, "
      "\"verify_pairs\": %llu, \"verify_pass\": %llu, "
      "\"filter_accepted_defined\": %llu, \"false_accepts\": %llu, "
      "\"sam_bytes\": %llu, "
      "\"filter_cpu_s\": %.6f, \"cpu_s\": %.6f, \"wall_s\": %.6f",
      u(c.reads), u(c.fastq_bytes), u(c.candidates), u(c.simd_pairs),
      u(c.simd_bytes), simd::LevelName(simd::ActiveLevel()),
      u(c.filter_input), u(c.filter_rejected), u(c.filter_bypassed),
      u(c.kernel_mismatch), u(c.verify_pairs), u(c.verify_pass),
      u(c.filter_accepted_defined), u(c.false_accepts), u(c.sam_bytes),
      c.filter_cpu_s, c.cpu_s, c.wall_s);
  if (c.has_paired) {
    const PairedStats& p = c.paired;
    std::fprintf(
        f,
        ", \"paired\": {\"pairs\": %llu, \"candidates_seeded\": %llu, "
        "\"candidates_paired\": %llu, \"verification_pairs\": %llu, "
        "\"rejected_pairs\": %llu, \"rescue_invocations\": %llu, "
        "\"rescued_mates\": %llu}",
        u(p.pairs), u(p.candidates_seeded), u(p.candidates_paired),
        u(p.verification_pairs), u(p.rejected_pairs), u(p.rescue_invocations),
        u(p.rescued_mates));
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Replay(const pb::Args& args) {
  pb::SpanBuffer spans;
  Counts counts;
  const double cpu0 = CpuSeconds();
  const std::int64_t wall0 = pb::NowNs();
  const int e = static_cast<int>(args.Int("e"));
  const bool paired_input = args.Has("r1");
  const std::int64_t root = spans.Open("replay", -1, 0);

  std::unique_ptr<MappedIndexFile> index;
  {
    pb::Scope s(spans, "io.index_open", root);
    index = std::make_unique<MappedIndexFile>(
        MappedIndexFile::Open(args.Get("index")));
  }

  // Parse: every record through the streaming readers.
  std::vector<std::string> reads, names;
  std::vector<FastqRecord> r1s, r2s;
  {
    pb::Scope s(spans, "io.fastq_parse", root);
    FastqRecord a, b;
    if (paired_input) {
      std::ifstream in1(args.Get("r1")), in2(args.Get("r2"));
      PairedFastqReader reader(in1, in2);
      while (reader.Next(&a, &b)) {
        r1s.push_back(a);
        r2s.push_back(b);
      }
      for (const auto* mates : {&r1s, &r2s}) {
        for (const FastqRecord& r : *mates) {
          reads.push_back(r.seq);
          names.push_back(r.name);
        }
      }
    } else {
      std::ifstream in(args.Get("reads"));
      FastqStreamReader reader(in);
      while (reader.Next(&a)) {
        reads.push_back(std::move(a.seq));
        names.push_back(std::move(a.name));
      }
    }
  }
  for (const std::string& path :
       paired_input ? std::vector<std::string>{args.Get("r1"), args.Get("r2")}
                    : std::vector<std::string>{args.Get("reads")}) {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    counts.fastq_bytes += static_cast<std::uint64_t>(f.tellg());
  }
  counts.reads = reads.size();
  if (reads.empty()) throw std::runtime_error("no reads");
  const int length = static_cast<int>(reads.front().size());

  std::vector<std::unique_ptr<gpusim::Device>> devices;
  std::unique_ptr<GateKeeperGpuEngine> engine;
  {
    pb::Scope s(spans, "core.engine_init", root);
    devices = gpusim::MakeSetup1(1, /*host_threads=*/1);
    std::vector<gpusim::Device*> ptrs;
    for (auto& d : devices) ptrs.push_back(d.get());
    EngineConfig cfg;
    cfg.read_length = length;
    cfg.error_threshold = e;
    engine = std::make_unique<GateKeeperGpuEngine>(cfg, ptrs);
    engine->LoadReference(index->encoding(), index->reference_fingerprint());
  }

  MapperConfig mcfg;
  mcfg.k = index->k();
  mcfg.read_length = length;
  mcfg.error_threshold = e;
  ReadMapper mapper(index->reference(), index->seed_index().Alias(), mcfg);
  {
    // The set-up cost of any path that builds the k-mer index from the
    // reference text instead of mapping the persisted one.
    pb::Scope s(spans, "mapper.index_build", root);
    SeedConfig scfg;
    scfg.k = index->k();
    scfg.mode = index->seed_mode();
    scfg.minimizer_w = index->minimizer_w();
    const SeedIndex rebuilt = SeedIndex::Build(index->reference(), scfg);
  }

  const ReferenceEncodingView enc = index->encoding();
  const std::string_view genome = mapper.genome();
  const int words = EncodedWords(length);
  const GateKeeperParams params = engine->config().algorithm;
  const std::size_t batch_reads = engine->config().max_reads_per_batch;
  std::vector<MappingRecord> records;
  std::vector<std::string_view> batch;
  std::vector<std::string> batch_rc;
  std::vector<CandidatePair> candidates;
  std::vector<OrientedCandidate> one_read;
  std::vector<std::int64_t> scratch;
  std::vector<Word> read_table;
  std::vector<std::uint8_t> read_bypass;
  std::vector<PairResult> kernel_out, decisions;
  BandedVerifier verifier;

  for (std::size_t base = 0, run = 0; base < reads.size();
       base += batch_reads, ++run) {
    const std::size_t count = std::min(batch_reads, reads.size() - base);
    const auto brun = static_cast<std::int64_t>(run);
    pb::Scope bs(spans, "batch", root, brun);
    batch.assign(reads.begin() + static_cast<std::ptrdiff_t>(base),
                 reads.begin() + static_cast<std::ptrdiff_t>(base + count));
    batch_rc.assign(count, std::string());
    candidates.clear();
    {
      pb::Scope s(spans, "mapper.seed", bs.id(), brun);
      for (std::size_t i = 0; i < count; ++i) {
        mapper.CollectCandidatesOriented(batch[i], &batch_rc[i], &scratch,
                                         &one_read);
        for (const OrientedCandidate oc : one_read) {
          candidates.push_back(
              {static_cast<std::uint32_t>(i), oc.strand, 0, oc.pos});
        }
      }
    }
    counts.candidates += candidates.size();
    {
      pb::Scope s(spans, "encode.read_table", bs.id(), brun);
      read_table.assign(count * static_cast<std::size_t>(words), 0);
      read_bypass.assign(count, 0);
      for (std::size_t i = 0; i < count; ++i) {
        read_bypass[i] =
            EncodeSequence(batch[i], read_table.data() + i * words) ? 1 : 0;
      }
    }
    {
      pb::Scope s(spans, "simd.kernel", bs.id(), brun);
      PairBlock block;
      block.size = candidates.size();
      block.length = length;
      block.words_per_seq = words;
      block.reads_enc = read_table.data();
      block.bypass = read_bypass.data();
      block.candidates = candidates.data();
      block.ref_words = enc.words.data();
      block.ref_n_mask = enc.n_mask.data();
      block.ref_len = enc.length;
      kernel_out.assign(candidates.size(), PairResult{});
      simd::GateKeeperFilterRange(block, 0, block.size, e, params,
                                  kernel_out.data());
    }
    counts.simd_pairs += candidates.size();
    counts.simd_bytes += candidates.size() *
                         (2 * sizeof(Word) * static_cast<std::size_t>(words) +
                          sizeof(CandidatePair) + sizeof(PairResult));
    {
      // The engine's device pool always adds the calling thread to its
      // worker, so the filter's CPU time is recorded beside its span.
      pb::Scope s(spans, "core.filter", bs.id(), brun);
      const double cpu = CpuSeconds();
      const FilterRunStats fs =
          engine->FilterCandidates(batch, candidates, &decisions);
      counts.filter_cpu_s += CpuSeconds() - cpu;
      counts.filter_rejected += fs.rejected;
      counts.filter_bypassed += fs.bypassed;
    }
    counts.filter_input += candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      counts.kernel_mismatch += kernel_out[i].accept != decisions[i].accept;
    }
    {
      pb::Scope s(spans, "align.verify", bs.id(), brun);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (decisions[i].accept == 0) continue;
        ++counts.verify_pairs;
        const CandidatePair c = candidates[i];
        const std::string_view read =
            c.strand != 0 ? std::string_view(batch_rc[c.read_index])
                          : batch[c.read_index];
        const int dist = verifier.Distance(
            read, genome.substr(static_cast<std::size_t>(c.ref_pos),
                                read.size()),
            e);
        const bool defined = decisions[i].bypassed == 0;
        counts.filter_accepted_defined += defined ? 1 : 0;
        if (dist < 0) {
          counts.false_accepts += defined ? 1 : 0;
          continue;
        }
        ++counts.verify_pass;
        records.push_back({static_cast<std::uint32_t>(base + c.read_index),
                           c.ref_pos, dist, c.strand});
      }
    }
  }

  std::ostringstream sam;
  {
    pb::Scope s(spans, "mapper.sam_format", root);
    WriteSamHeader(sam, mapper.reference(), "");
    WriteSamRecordsMultiChrom(sam, reads, names, records, mapper.reference());
  }
  const std::string sam_text = sam.str();
  counts.sam_bytes = sam_text.size();
  {
    std::ofstream out(args.Get("sam"), std::ios::binary);
    out << sam_text;
  }

  if (!paired_input) {
    pb::Scope s(spans, "paired.probe_parse", root);
    std::ifstream in1(args.Get("probe-r1")), in2(args.Get("probe-r2"));
    PairedFastqReader reader(in1, in2);
    FastqRecord a, b;
    while (reader.Next(&a, &b)) {
      r1s.push_back(std::move(a));
      r2s.push_back(std::move(b));
    }
  }
  {
    PairedConfig pconf;
    pconf.max_insert = args.Int("max-insert");
    PairedEndMapper paired(mapper, pconf);
    std::ostringstream pe_sam;
    {
      pb::Scope s(spans, "paired.map_pairs", root);
      WriteSamHeader(pe_sam, mapper.reference(), "");
      counts.paired = paired.MapPairs(r1s, r2s, engine.get(), &pe_sam);
    }
    counts.has_paired = true;
    std::ofstream out(args.Get("paired-sam"), std::ios::binary);
    out << pe_sam.str();
  }

  spans.Close(root);
  counts.cpu_s = CpuSeconds() - cpu0;
  counts.wall_s = static_cast<double>(pb::NowNs() - wall0) * 1e-9;
  spans.Write(args.Get("spans"));
  WriteCounts(args.Get("json"), counts);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Replay(pb::Args(argc, argv, 1));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_replay: %s\n", e.what());
    return 1;
  }
}
