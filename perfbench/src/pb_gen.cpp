// Deterministic input generator of the benchmark, built on src/sim.
//
//   pb_gen genome --length N --chromosomes C --seed S --out ref.fa
//   pb_gen reads  --ref ref.fa --count N --length L --seed S --out reads.fq
//   pb_gen pairs  --ref ref.fa --count N --length L --insert-mean M
//                 --insert-sd D --seed S --out1 r1.fq --out2 r2.fq
//
// Reads are drawn from every chromosome in proportion to its length, and
// from both strands.  The truth travels in the read name, which the SAM
// checker parses back:
//   single-end  r<i>_<chrom>_<pos>_<F|R>
//   pairs       p<i>_<chrom>_<pos1>_<F|R>_<pos2>_<F|R>   (mate 1, mate 2)
// Positions are 1-based leftmost reference coordinates of the sampled
// window; R means the read is the reverse complement of that window.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <random>
#include <string>
#include <vector>

#include "encode/revcomp.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "pb_common.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"

namespace {

using gkgpu::FastaRecord;
using gkgpu::FastqRecord;

std::string ChromName(const FastaRecord& rec) {
  return rec.name.substr(0, rec.name.find_first_of(" \t"));
}

/// Reads per chromosome, proportional to length; the remainder goes to
/// the last chromosome.
std::vector<std::size_t> SplitCount(const std::vector<FastaRecord>& chroms,
                                    std::size_t count) {
  std::size_t total = 0;
  for (const auto& c : chroms) total += c.seq.size();
  std::vector<std::size_t> out;
  std::size_t given = 0;
  for (std::size_t i = 0; i < chroms.size(); ++i) {
    const std::size_t n =
        i + 1 == chroms.size()
            ? count - given
            : static_cast<std::size_t>(static_cast<double>(count) *
                                       chroms[i].seq.size() / total);
    out.push_back(n);
    given += n;
  }
  return out;
}

int Genome(const pb::Args& args) {
  const auto length = static_cast<std::size_t>(args.Int("length"));
  const auto chromosomes = static_cast<std::size_t>(args.Int("chromosomes"));
  const auto seed = static_cast<std::uint64_t>(args.Int("seed"));
  std::vector<FastaRecord> records;
  const std::size_t per = length / chromosomes;
  for (std::size_t c = 0; c < chromosomes; ++c) {
    const std::size_t len =
        c + 1 == chromosomes ? length - per * (chromosomes - 1) : per;
    records.push_back({"chr" + std::to_string(c + 1),
                       gkgpu::GenerateGenome(len, seed * 1000 + c)});
  }
  gkgpu::WriteFastaFile(args.Get("out"), records);
  return 0;
}

int Reads(const pb::Args& args) {
  const auto chroms = gkgpu::ReadFastaFile(args.Get("ref"));
  const auto count = static_cast<std::size_t>(args.Int("count"));
  const int length = static_cast<int>(args.Int("length"));
  const auto seed = static_cast<std::uint64_t>(args.Int("seed"));
  const auto per_chrom = SplitCount(chroms, count);

  std::mt19937_64 rng(seed);
  std::vector<FastqRecord> out;
  out.reserve(count);
  for (std::size_t c = 0; c < chroms.size(); ++c) {
    const std::string name = ChromName(chroms[c]);
    const auto reads = gkgpu::SimulateReads(
        chroms[c].seq, per_chrom[c], length,
        gkgpu::ReadErrorProfile::Illumina(), seed * 7919 + c);
    for (const auto& r : reads) {
      const bool reverse = (rng() & 1) != 0;
      FastqRecord rec;
      rec.seq = reverse ? gkgpu::ReverseComplement(r.seq) : r.seq;
      rec.qual.assign(rec.seq.size(), 'I');
      rec.name = name + "_" + std::to_string(r.origin + 1) +
                 (reverse ? "_R" : "_F");
      out.push_back(std::move(rec));
    }
  }
  std::shuffle(out.begin(), out.end(), rng);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].name = "r" + std::to_string(i) + "_" + out[i].name;
  }
  gkgpu::WriteFastqFile(args.Get("out"), out);
  return 0;
}

int Pairs(const pb::Args& args) {
  const auto chroms = gkgpu::ReadFastaFile(args.Get("ref"));
  const auto count = static_cast<std::size_t>(args.Int("count"));
  const auto seed = static_cast<std::uint64_t>(args.Int("seed"));
  gkgpu::PairSimConfig cfg;
  cfg.read_length = static_cast<int>(args.Int("length"));
  cfg.insert_mean = args.Num("insert-mean");
  cfg.insert_sd = args.Num("insert-sd");
  const auto per_chrom = SplitCount(chroms, count);

  std::mt19937_64 rng(seed);
  struct Pair {
    FastqRecord r1, r2;
  };
  std::vector<Pair> out;
  out.reserve(count);
  for (std::size_t c = 0; c < chroms.size(); ++c) {
    const std::string name = ChromName(chroms[c]);
    const auto pairs = gkgpu::SimulatePairs(chroms[c].seq, per_chrom[c],
                                            cfg, seed * 7919 + c);
    for (const auto& p : pairs) {
      // SimulatePairs emits R1 forward and R2 reverse; swapping the mates
      // of half the fragments puts mate 1 on the reverse strand too.
      const bool swap = (rng() & 1) != 0;
      Pair pair;
      pair.r1.seq = swap ? p.seq2 : p.seq1;
      pair.r2.seq = swap ? p.seq1 : p.seq2;
      const std::string fwd = std::to_string(p.origin1 + 1) + "_F";
      const std::string rev = std::to_string(p.origin2 + 1) + "_R";
      pair.r1.name = name + "_" + (swap ? rev + "_" + fwd : fwd + "_" + rev);
      pair.r1.qual.assign(pair.r1.seq.size(), 'I');
      pair.r2.qual.assign(pair.r2.seq.size(), 'I');
      out.push_back(std::move(pair));
    }
  }
  std::shuffle(out.begin(), out.end(), rng);
  std::vector<FastqRecord> r1s, r2s;
  r1s.reserve(out.size());
  r2s.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].r1.name = "p" + std::to_string(i) + "_" + out[i].r1.name;
    out[i].r2.name = out[i].r1.name;
    r1s.push_back(std::move(out[i].r1));
    r2s.push_back(std::move(out[i].r2));
  }
  gkgpu::WriteFastqFile(args.Get("out1"), r1s);
  gkgpu::WriteFastqFile(args.Get("out2"), r2s);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs("usage: pb_gen genome|reads|pairs --flag value ...\n", stderr);
    return 2;
  }
  try {
    const pb::Args args(argc, argv, 2);
    const std::string cmd = argv[1];
    if (cmd == "genome") return Genome(args);
    if (cmd == "reads") return Reads(args);
    if (cmd == "pairs") return Pairs(args);
    std::fprintf(stderr, "pb_gen: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_gen: %s\n", e.what());
    return 1;
  }
}
