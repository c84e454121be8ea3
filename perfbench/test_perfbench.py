#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Needs the perfbench binary built by perfbench/run.py (any earlier run
builds it). Covers the JSON the binary writes when strings carry control
characters, the self-time arithmetic of the traced run, and the refusal
to run without a source tree.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


class JsonOutputTest(unittest.TestCase):
    def test_control_characters_stay_valid_json(self):
        if not os.path.isfile(run.BINARY):
            self.skipTest("perfbench is not built; run perfbench/run.py once")
        p = subprocess.run([run.BINARY, "--selftest"], capture_output=True,
                           text=True, timeout=60)
        self.assertEqual(p.returncode, 0, p.stderr)
        doc = json.loads(p.stdout)
        self.assertEqual(doc["note"], "line\nbreak\r")
        self.assertEqual(doc["failures"], ["tab\there, bell\x07, nul-free"])
        self.assertEqual(doc["metrics"]["x.y_s"],
                         {"value": 0.1, "unit": "s", "samples": 3})


class SelfTimeTest(unittest.TestCase):
    def write_trace(self, events):
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as f:
            json.dump({"traceEvents": events, "farmer_dropped_events": 0}, f)
        self.addCleanup(os.remove, path)
        return path

    @staticmethod
    def span(name, ts, dur, tid=0):
        return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1,
                "tid": tid}

    def test_children_are_subtracted_once(self):
        path = self.write_trace([
            self.span("core.mine", 0, 1000),
            self.span("mine", 100, 500),          # core, inside core.mine
            self.span("merge", 200, 100),         # core, inside mine
            self.span("snapshot.encode", 700, 200),
            self.span("task", 0, 400, tid=1),     # another lane
            {"name": "steal", "ph": "i", "ts": 5, "s": "t", "pid": 1,
             "tid": 1},
        ])
        t = run.self_times(path)
        # core.mine 1000 - 500 - 200, mine 500 - 100, merge 100, task 400.
        self.assertAlmostEqual(t["core"], (300 + 400 + 100 + 400) / 1e6)
        self.assertAlmostEqual(t["snapshot"], 200 / 1e6)
        self.assertEqual(t["farm"], 0.0)

    def test_back_to_back_siblings(self):
        path = self.write_trace([
            self.span("serve.setup", 0, 100),
            self.span("snapshot.decode", 10, 40),
            self.span("serve.index_build", 50, 30),
        ])
        t = run.self_times(path)
        self.assertAlmostEqual(t["serve"], (100 - 70 + 30) / 1e6)
        self.assertAlmostEqual(t["snapshot"], 40 / 1e6)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_a_source_tree(self):
        root = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, root)
        shutil.copytree(HERE, os.path.join(root, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bc-irgs",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
