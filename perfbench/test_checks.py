"""Tests of the benchmark's pure helpers:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import tempfile
import unittest

import checks

REF = {"chr1": 1000, "chr2": 500}
HEADER = "@HD\tVN:1.6\n@SQ\tSN:chr1\tLN:1000\n@SQ\tSN:chr2\tLN:500\n"


def sam_file(body, header=HEADER):
    fd, path = tempfile.mkstemp(suffix=".sam")
    with os.fdopen(fd, "w") as f:
        f.write(header + body)
    return path


def rec(qname, flag, rname, pos):
    return "%s\t%d\t%s\t%d\t60\t100M\t*\t0\t0\tACGT\t*\n" % (
        qname, flag, rname, pos)


class CheckSamTest(unittest.TestCase):
    def tearDown(self):
        for p in getattr(self, "paths", []):
            os.unlink(p)

    def check(self, body, reads, paired=False, unmapped=None, header=HEADER):
        path = sam_file(body, header)
        self.paths = getattr(self, "paths", []) + [path]
        return checks.check_sam(path, REF, reads, 5, paired, unmapped)

    def test_single_end_counts_mapped_and_correct(self):
        body = (rec("r0_chr1_100_F", 0, "chr1", 103) +   # within e
                rec("r1_chr2_50_R", 16, "chr2", 50) +    # reverse, exact
                rec("r2_chr1_200_F", 0, "chr1", 300) +   # mapped elsewhere
                rec("r3_chr1_10_R", 0, "chr1", 10))      # wrong strand
        r = self.check(body, reads=5, unmapped=1)
        self.assertEqual(r["violations"], [])
        self.assertEqual((r["mapped"], r["correct"], r["absent"]), (4, 2, 1))
        self.assertAlmostEqual(r["correct_frac"], 0.4)

    def test_absent_reads_must_match_reported_unmapped(self):
        r = self.check(rec("r0_chr1_100_F", 0, "chr1", 100), reads=3,
                       unmapped=1)
        self.assertIn("2 reads without a record but the program reports 1 "
                      "unmapped", r["violations"])

    def test_duplicate_primary_is_a_violation(self):
        body = (rec("r0_chr1_100_F", 0, "chr1", 100) +
                rec("r0_chr1_100_F", 0, "chr1", 400) +
                rec("r0_chr1_100_F", 256, "chr1", 700))  # secondary: fine
        r = self.check(body, reads=1, unmapped=0)
        self.assertEqual(r["violations"],
                         ["1 reads with more than one primary record"])

    def test_header_must_match_reference(self):
        r = self.check("", reads=1, unmapped=1,
                       header="@SQ\tSN:chr1\tLN:999\n")
        self.assertIn("@SQ lines do not match the reference", r["violations"])

    def test_pairs_need_one_primary_per_mate(self):
        name = "p0_chr1_100_F_345_R"
        body = (rec(name, 0x1 | 0x40, "chr1", 100) +
                rec(name, 0x1 | 0x80 | 0x10, "chr1", 345))
        r = self.check(body, reads=2, paired=True)
        self.assertEqual(r["violations"], [])
        self.assertEqual(r["correct"], 2)
        r = self.check(rec(name, 0x1 | 0x40, "chr1", 100), reads=2,
                       paired=True)
        self.assertIn("1 mates without a primary record", r["violations"])

    def test_unmapped_pair_records_are_not_mapped(self):
        name = "p0_chr1_100_F_345_R"
        body = (rec(name, 0x1 | 0x40 | 0x4 | 0x8, "*", 0) +
                rec(name, 0x1 | 0x80 | 0x4 | 0x8, "*", 0))
        r = self.check(body, reads=2, paired=True)
        self.assertEqual(r["violations"], [])
        self.assertEqual((r["mapped"], r["absent"]), (0, 0))


class SpanTest(unittest.TestCase):
    @staticmethod
    def span(i, name, parent, start, end):
        return {"id": i, "name": name, "parent": parent, "run": 0,
                "start_ns": start, "end_ns": end}

    def test_self_time_subtracts_child_coverage_once(self):
        spans = [self.span(0, "root", -1, 0, 100),
                 self.span(1, "a", 0, 10, 40),
                 self.span(2, "b", 0, 30, 60),   # overlaps a
                 self.span(3, "c", 2, 35, 45),
                 self.span(4, "a", 0, 90, 100)]
        t = checks.self_times(spans)
        self.assertAlmostEqual(t["root"], 50e-9)  # 100 - [10,60] - [90,100]
        self.assertAlmostEqual(t["a"], 40e-9)
        self.assertAlmostEqual(t["b"], 20e-9)
        self.assertAlmostEqual(t["c"], 10e-9)

    def test_durations(self):
        spans = [self.span(0, "x", -1, 0, 2_000_000),
                 self.span(1, "x", -1, 5, 1_000_005)]
        self.assertEqual(checks.durations(spans, "x"), [0.002, 0.001])


class ParseTest(unittest.TestCase):
    def test_cli_tables_first_occurrence_and_separators(self):
        text = ("| metric | value |\n|---|---|\n"
                "| verification pairs | 560,021   |\n"
                "| seeder             | dense     |\n"
                "| verification pairs | 1         |\n")
        rows = checks.parse_cli_tables(text)
        self.assertEqual(rows["verification pairs"], 560021)
        self.assertEqual(rows["seeder"], "dense")

    def test_prometheus(self):
        text = ("# HELP x y\n"
                'gkgpu_stage_service_seconds_sum{stage="verify"} 1.5\n'
                "gkgpu_serve_batches_total 7\n")
        s = checks.parse_prometheus(text)
        self.assertEqual(checks.prom(s, "gkgpu_stage_service_seconds_sum",
                                     stage="verify"), 1.5)
        self.assertEqual(checks.prom(s, "gkgpu_serve_batches_total"), 7.0)
        self.assertEqual(checks.prom(s, "missing"), 0.0)

    def test_truth_names(self):
        self.assertEqual(checks.parse_truth("r7_chr3_42_R", 1),
                         ("chr3", 42, True))
        self.assertEqual(checks.parse_truth("p1_chr2_10_R_300_F", 2),
                         ("chr2", 300, False))

    def test_quartiles(self):
        self.assertEqual(checks.quartiles([3.0]), (3.0, 3.0, 3.0))
        q1, q2, q3 = checks.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(q2, 3.0)
        self.assertLess(q1, q2)
        self.assertLess(q2, q3)


if __name__ == "__main__":
    unittest.main()
