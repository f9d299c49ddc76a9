"""Tests of the benchmark's own machinery (not of the SDVM).

Run with ``python3 -m pytest sdvm_bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.apps import build_treesum_program, treesum_expected
from repro.common.config import SDVMConfig
from repro.sim.engine import Simulator
from repro.site.message_manager import MessageManager

from sdvm_bench.ledger import (Ledger, install_layer_spans, layer_of_module,
                               load_spans, self_times)
from sdvm_bench.metrics import END_TO_END, NAME_RE, PER_LAYER
from sdvm_bench.traced import counter_metrics
from sdvm_bench.workloads import (LIVE_NAME, SIM_WORKLOADS, WORKLOAD_NAMES,
                                  SimWorkload, sim_job, sim_setup)

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


def test_self_time_of_a_synthetic_span_tree():
    #   a [0, 10]
    #   +-- b [1, 4]
    #   |   +-- c [2, 3]
    #   +-- d [5, 9]
    #   e [11, 12]            (a second root)
    names = ["x.a", "x.b", "y.c", "y.d", "z.e"]
    table = self_times(names, name=[0, 1, 2, 3, 4],
                       parent=[-1, 0, 1, 0, -1],
                       start=[0.0, 1.0, 2.0, 5.0, 11.0],
                       end=[10.0, 4.0, 3.0, 9.0, 12.0])
    assert table.self_time == {"x.a": 3.0, "x.b": 2.0, "y.c": 1.0,
                               "y.d": 4.0, "z.e": 1.0}
    assert table.inclusive["x.a"] == 10.0
    layers = table.layer_self()
    assert layers["other"] == 0.0
    assert (layers.get("x"), layers.get("y"), layers.get("z")) == (5.0, 5.0,
                                                                   1.0)
    # self times of the roots' trees add up to the roots' durations
    assert table.total_self() == 10.0 + 1.0


def test_self_time_window_and_open_spans():
    names = ["x.a", "x.b"]
    # b never closed (end 0.0); a lies outside the window
    table = self_times(names, name=[0, 1], parent=[-1, 0],
                       start=[0.0, 1.0], end=[10.0, 0.0],
                       window=(0.5, 20.0))
    assert table.open_spans == 1
    assert table.count == {}


def test_ledger_records_nested_calls_and_round_trips(tmp_path):
    ledger = Ledger("unit")
    inner = ledger.wrap("y.inner", lambda value: value * 2)
    outer = ledger.wrap("x.outer", lambda value: inner(value) + 1,
                        size_arg=None)
    assert outer(20) == 41
    table = ledger.table()
    assert table.count == {"x.outer": 1, "y.inner": 1}
    assert table.self_time["x.outer"] >= 0.0
    assert abs(table.inclusive["x.outer"] - table.self_time["x.outer"]
               - table.inclusive["y.inner"]) < 1e-12
    path = str(tmp_path / "spans.gz")
    assert ledger.write_spans(path) == 2
    header, threads = load_spans(path)
    assert header["run_id"] == "unit"
    (columns,) = threads
    assert [header["names"][n] for n in columns["name"]] == ["x.outer",
                                                             "y.inner"]
    assert list(columns["parent"]) == [-1, 0]


def test_layer_map():
    assert layer_of_module("repro.site.message_manager") == "msgmgr"
    assert layer_of_module("repro.site.kernel") == "cpu"
    assert layer_of_module("repro.sched.manager") == "sched"
    assert layer_of_module("repro.site.daemon") == "other"
    assert layer_of_module("repro.simulator_like") == "other"


TINY = SimWorkload(
    name="tiny", why="unit test", nsites=2,
    make_config=lambda seed: SDVMConfig(seed=seed),
    build=build_treesum_program, args=(16, 10.0),
    expected=treesum_expected(16), timeout_virtual=10.0, setups=1,
    job_seconds=1.0)


def _tiny_run(config=None):
    cluster, _setup = sim_setup(TINY, 3, config=config)
    formed_at = cluster.sim.now
    sample, _handle = sim_job(cluster, TINY, None)
    assert sample.ok, sample.failure
    counts = counter_metrics(cluster)
    return (formed_at, sample.makespan, cluster.sim.events_executed,
            counts["msgmgr.sent"], counts["msgmgr.received"],
            cluster.cluster_report().derived["bytes_sent"])


def test_wrappers_only_observe():
    untraced = _tiny_run()
    originals = (Simulator.run, Simulator.schedule, MessageManager.send,
                 MessageManager.deliver_raw)
    ledger = Ledger("tiny")
    install_layer_spans(ledger)
    try:
        traced = _tiny_run(SDVMConfig(seed=3, trace=True))
    finally:
        ledger.uninstall()
    assert traced == untraced
    assert (Simulator.run, Simulator.schedule, MessageManager.send,
            MessageManager.deliver_raw) == originals
    table = ledger.table()
    assert table.count["sim.run"] >= 1
    assert table.count["messages.encode"] >= untraced[3]
    assert table.count["serde.loads"] == untraced[4]
    assert table.open_spans == 0


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_benchmark_json_agree():
    doc = _benchmark_json()
    for name in list(END_TO_END) + list(PER_LAYER):
        assert NAME_RE.match(name), name
    assert [m["name"] for m in doc["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(PER_LAYER)
    for metric in doc["end_to_end"]:
        assert (metric["unit"], metric["better"]) == END_TO_END[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert (metric["unit"], metric["better"]) == PER_LAYER[metric["name"]]
    # live-tcp runs on demand but is not in the gated set (README.md)
    assert [w["name"] for w in doc["workloads"]] == list(SIM_WORKLOADS)
    assert LIVE_NAME in WORKLOAD_NAMES


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "sdvm_bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "sdvm_bench/run.py", "--workload", "live-tcp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", list(END_TO_END) + list(PER_LAYER))
def test_metric_units_are_well_formed(name):
    unit = (END_TO_END[name][0] if name in END_TO_END
            else PER_LAYER[name][0])
    assert 0 < len(unit) <= 16
    assert all(ch.isalnum() or ch in "_/%.-" for ch in unit)
