"""Pure helpers of the benchmark: SAM checking, summary statistics, span
self times and Prometheus scrapes.  Kept free of process handling so
test_checks.py can exercise them on small hand-made inputs."""

import json
import re
import statistics


# ----------------------------------------------------------------- SAM --

def read_fasta_lengths(path):
    """Chromosome name -> length, in file order."""
    lengths = {}
    name = None
    with open(path) as f:
        for line in f:
            if line.startswith(">"):
                name = line[1:].split()[0]
                lengths[name] = 0
            elif name is not None:
                lengths[name] += len(line.strip())
    return lengths


def parse_truth(qname, mate):
    """(chrom, 1-based pos, reverse?) encoded in a generated read name.

    Single-end names are r<i>_<chrom>_<pos>_<F|R>; pair names are
    p<i>_<chrom>_<pos1>_<F|R>_<pos2>_<F|R>, fields 2-3 for mate 1 and
    4-5 for mate 2."""
    f = qname.split("_")
    if mate == 2:
        return f[1], int(f[4]), f[5] == "R"
    return f[1], int(f[2]), f[3] == "R"


def check_sam(path, ref_lengths, reads, e, paired, unmapped_reported=None):
    """Checks one SAM file against the simulated truth.

    `reads` is the number of FASTQ records (two per pair).  Every record
    must belong to a generated read and every read may carry exactly one
    primary record.  Paired output must carry one primary per mate.
    Single-end drivers emit no record for an unmapped read, so there the
    number of reads without a record must equal `unmapped_reported`, the
    program's own count of unmapped reads.

    Returns a dict with the counts and a list of violations."""
    violations = []
    header_sq = []
    primaries = {}
    mapped = correct = records = 0
    with open(path) as f:
        for line in f:
            if line.startswith("@"):
                if line.startswith("@SQ"):
                    tags = dict(t.split(":", 1) for t in
                                line.rstrip("\n").split("\t")[1:])
                    header_sq.append((tags.get("SN"), int(tags.get("LN", -1))))
                continue
            records += 1
            qname, flag, rname, pos = line.split("\t", 4)[:4]
            flag = int(flag)
            if flag & 0x900:
                continue
            mate = 2 if flag & 0x80 else 1
            key = (qname, mate)
            primaries[key] = primaries.get(key, 0) + 1
            if flag & 0x4:
                continue
            mapped += 1
            try:
                chrom, tpos, reverse = parse_truth(qname, mate)
            except (IndexError, ValueError):
                violations.append("unknown read " + qname)
                continue
            if (rname == chrom and abs(int(pos) - tpos) <= e
                    and bool(flag & 0x10) == reverse):
                correct += 1
    if header_sq != list(ref_lengths.items()):
        violations.append("@SQ lines do not match the reference")
    dups = sum(1 for n in primaries.values() if n > 1)
    if dups:
        violations.append("%d reads with more than one primary record" % dups)
    if len(primaries) > reads:
        violations.append("%d primary reads for %d input reads"
                          % (len(primaries), reads))
    absent = reads - len(primaries)
    if paired and absent:
        violations.append("%d mates without a primary record" % absent)
    if not paired and unmapped_reported is not None and \
            absent != unmapped_reported:
        violations.append("%d reads without a record but the program "
                          "reports %d unmapped" % (absent, unmapped_reported))
    return {"records": records, "mapped": mapped, "correct": correct,
            "absent": absent, "mapped_frac": mapped / reads,
            "correct_frac": correct / reads, "violations": violations}


def parse_cli_tables(text):
    """Every `| name | value |` row the CLI prints, first occurrence wins;
    values with thousands separators become ints."""
    rows = {}
    for m in re.finditer(r"^\| ([^|]+?) +\| ([^|]+?) +\|$", text, re.M):
        key, value = m.group(1), m.group(2)
        if key in rows:
            continue
        try:
            rows[key] = int(value.replace(",", ""))
        except ValueError:
            rows[key] = value
    return rows


# ---------------------------------------------------------- statistics --

def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --------------------------------------------------------------- spans --

def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    """Span name -> summed self time in seconds: each span's duration
    minus the part of its interval that its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], cursor, s["start_ns"])
            hi = min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own = (s["end_ns"] - s["start_ns"] - covered) * 1e-9
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def durations(spans, name):
    return [(s["end_ns"] - s["start_ns"]) * 1e-9 for s in spans
            if s["name"] == name]


# --------------------------------------------------------- Prometheus --

def parse_prometheus(text):
    """{(family, frozenset(labels)): value} of a text exposition."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$", line)
        if not m:
            continue
        labels = frozenset(re.findall(r'(\w+)="([^"]*)"', m.group(3) or ""))
        out[(m.group(1), labels)] = float(m.group(4))
    return out


def prom(scrape, family, **labels):
    return scrape.get((family, frozenset(labels.items())), 0.0)
