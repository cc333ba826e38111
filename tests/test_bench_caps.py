import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import bench_caps

CHECKER = Path(__file__).with_name("bench_caps.py")

# The capped fields of each workload's traced seed-0 result line.
SEED0 = {
    "ct-fine": {"linops.matvecs_per_iter.pdfb": 4.015625,
                "solvers.iterations.pdfb": 192, "linops.norm_matvecs": 24},
    "ct-desk": {"linops.matvecs_per_iter.dfb": 5.001569858712716,
                "linops.matvecs_per_iter.pdfb": 5.001038421599169,
                "linops.matvecs_per_iter.admm": 4.002797202797203,
                "solvers.iterations.dfb": 1911,
                "solvers.iterations.pdfb": 1926,
                "solvers.iterations.admm": 715, "linops.norm_matvecs": 28},
    "tv-denoise": {"linops.matvecs_per_iter.dfb": 4.000594088816278,
                   "linops.matvecs_per_iter.pdfb": 4.0004453516422345,
                   "solvers.iterations.dfb": 26932,
                   "solvers.iterations.pdfb": 26945,
                   "linops.norm_matvecs": 16},
}


def seed0_line(workload):
    values = {**SEED0[workload], "trace.repeat_mismatches": 0}
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {k: {"value": v, "unit": "count"}
                        for k, v in values.items()}}


def edges():
    """(workload, field, the last value its cap admits, the first it
    refuses) for every cap in the table."""
    for workload, (products, iterations, norm) in bench_caps.CAPS.items():
        for algo, cap in products.items():
            yield (workload, "linops.matvecs_per_iter." + algo,
                   math.nextafter(cap, 0.0), cap)
        for algo, cap in iterations.items():
            yield workload, "solvers.iterations." + algo, cap, cap + 1
        yield workload, "linops.norm_matvecs", norm, norm + 1


@pytest.mark.parametrize("workload", sorted(bench_caps.CAPS))
def test_seed0_lines_break_no_cap(workload):
    assert set(SEED0) == set(bench_caps.CAPS)
    assert bench_caps.broken(workload, seed0_line(workload)) == []


@pytest.mark.parametrize("workload, field, last_ok, first_bad",
                         list(edges()))
def test_a_field_just_past_its_cap_is_named(workload, field, last_ok,
                                            first_bad):
    line = seed0_line(workload)
    line["metrics"][field]["value"] = last_ok
    assert bench_caps.broken(workload, line) == []
    line["metrics"][field]["value"] = first_bad
    (problem,) = bench_caps.broken(workload, line)
    assert field in problem


@pytest.mark.parametrize("workload", sorted(bench_caps.CAPS))
def test_an_incorrect_failed_or_unsteady_run_is_named(workload):
    for field, bad in (("correct", False), ("failed", 1),
                       ("trace.repeat_mismatches", 1)):
        line = seed0_line(workload)
        if field in line:
            line[field] = bad
        else:
            line["metrics"][field]["value"] = bad
        (problem,) = bench_caps.broken(workload, line)
        assert field in problem


def test_an_unknown_workload_fails():
    assert bench_caps.broken("ct-huge", seed0_line("ct-desk")) != []


@pytest.mark.parametrize("workload, edit, code", [
    ("ct-desk", {}, 0),
    ("ct-desk", {"failed": 1}, 1),
    ("ct-huge", {}, 1),
])
def test_the_script_exits_by_what_it_finds(workload, edit, code):
    line = dict(seed0_line("ct-desk"), **edit)
    done = subprocess.run([sys.executable, str(CHECKER), workload],
                          input=json.dumps(line), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == code
    assert (done.stderr == "") == (code == 0)
