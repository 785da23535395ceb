"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = metric_units() if trace else run.E2E_UNITS
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
        assert "\nfail_ratio 0 ratio" in proc.stdout


def _certify():
    lib = run.import_library()
    return WORKLOADS["certify"](lib, 7, "tiny")


def test_tampered_witness_is_a_failed_op():
    wl = _certify()
    op = wl.op

    def tampered(inputs):
        report = op(inputs)
        x, v = next((x, v) for x, v in report.per_address.items() if v.worst_witness)
        witness, dev = v.worst_witness
        report.per_address[x] = replace(v, worst_witness=(witness, dev + Fraction(1, 997)))
        return report

    wl.op = tampered
    res = run.timed_phase(wl, 0.2, 0, [])
    assert len(res.lat) >= wl.min_ops
    assert res.failed == len(res.lat)


def test_tampered_digest_is_a_failed_op():
    wl = _certify()
    clean = run.timed_phase(wl, 0.2, 0, [])
    assert clean.failed == 0
    expected = list(clean.digests[:run.DIGEST_OPS])
    expected[1] = "0" * 64
    again = run.timed_phase(wl, 0.2, 0, expected)
    assert again.failed == 1
    assert again.digests[:run.DIGEST_OPS] == clean.digests[:run.DIGEST_OPS]


def test_recorded_digests_cover_every_workload():
    recorded = json.loads((HERE / "digests.json").read_text())
    for name in WORKLOADS:
        assert len(recorded[name]) == run.DIGEST_OPS


def test_tail_has_ten_ops_beyond_it():
    lat = [float(i) for i in range(54)]
    value, pct = run.tail(lat)
    assert sum(x > value for x in lat) == run.TAIL_BEYOND
    assert pct == pytest.approx(100 * 44 / 54)


def test_checkout_without_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "transfer", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
