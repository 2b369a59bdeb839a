"""Smoke tests of the benchmark itself, on g-alt3-sym3 and z-translations at
word length 2 (a fraction of a second per operation).

    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SMOKE = {"smoke": [("g-alt3-sym3", 2), ("z-translations", 2)]}


def run_main(trace: int) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = run.main(["--workload", "smoke", "--seed", "3", "--seconds", "0",
                           "--trace", str(trace)], workloads=SMOKE)
    assert status == 0, out.getvalue()
    return out.getvalue().strip().splitlines()


class SmokeTest(unittest.TestCase):
    def setUp(self):
        run.OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=run.OUT_DIR)
        self.dir = Path(self.tmp.name)
        self.golden = json.loads((run.HERE / "golden.json").read_text())

    def tearDown(self):
        self.tmp.cleanup()

    def check_printed(self, trace: int, extra: dict):
        lines = run_main(trace)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        units = run.metric_units(trace)
        self.assertEqual(set(result["metrics"]), set(units))
        printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
        for name, unit in {**units, **extra}.items():
            self.assertEqual(printed.get(name), unit, name)
            if name in units:
                self.assertEqual(result["metrics"][name]["unit"], unit)
        host = json.loads(next(line for line in lines if line.startswith("host "))[5:])
        for key in ("nproc", "python", "loadavg_1m_start", "loadavg_1m_end", "seed"):
            self.assertIn(key, host)
        return result["metrics"]

    def test_end_to_end_metrics_printed_with_units(self):
        metrics = self.check_printed(0, {"error_rate": "ratio"})
        self.assertEqual(metrics["success_rate"]["value"], 1.0)

    def test_per_layer_metrics_printed_with_units(self):
        metrics = self.check_printed(1, {"error_rate": "ratio"})
        self.assertEqual(metrics["cstar.orbit_points"]["value"], 13 + 16)
        self.assertGreater(metrics["dynamics.products_attempted"]["value"],
                           metrics["dynamics.products_distinct"]["value"])

    def test_tampered_witness_is_a_failure(self):
        config = ("g-alt3-sym3", 2)
        cert = self.dir / "c.cert"
        self.assertTrue(run.run_op("certify", config, cert, 0, self.golden)["ok"])
        self.assertTrue(run.run_op("verify", config, cert, 0, self.golden)["ok"])
        header, _, body = cert.read_text().partition("\n")
        data = json.loads(body)
        data["witness_a"]["base"] = [1]
        cert.write_text(f"{header}\n{json.dumps(data, sort_keys=True, indent=1)}\n")
        rec = run.run_op("verify", config, cert, 0, self.golden)
        self.assertFalse(rec["ok"])
        records = [rec, run.run_op("certify", config, self.dir / "d.cert", 0, self.golden)]
        self.assertEqual(sum(not r["ok"] for r in records), 1)
        wrong = {run.config_name(*config): "0" * 64}
        rec = run.run_op("certify", config, self.dir / "f.cert", 0, wrong)
        self.assertFalse(rec["ok"])
        self.assertIn("golden mismatch", rec["reason"])

    def test_digest_ignores_version_and_seed_only(self):
        text = (self.dir / "e.cert")
        run.run_op("certify", ("z-translations", 2), text, 0, self.golden)
        original = text.read_text()
        header, _, body = original.partition("\n")
        data = json.loads(body)
        data["config"]["seed"] = 5
        data["version"] = "arboreal-cert/2"
        reseeded = f"arboreal-cert/2\n{json.dumps(data, sort_keys=True, indent=1)}\n"
        self.assertEqual(run.semantic_digest(reseeded), run.semantic_digest(original))
        data["orbit"]["points"] += 1
        recounted = f"{header}\n{json.dumps(data, sort_keys=True, indent=1)}\n"
        self.assertNotEqual(run.semantic_digest(recounted), run.semantic_digest(original))

    def test_wrappers_only_in_traced_children(self):
        records = run.run_pass(SMOKE["smoke"], random.Random(0), self.dir, 0, self.golden)
        self.assertTrue(all(r["ok"] and r["wrappers"] == 0 for r in records))
        traced = run.run_pass(SMOKE["smoke"], random.Random(0), self.dir, 1, self.golden)
        self.assertTrue(all(r["ok"] and r["wrappers"] > 0 for r in traced))
        self.assertNotIn("arboreal", sys.modules)


if __name__ == "__main__":
    unittest.main()
