"""Check a ``perfbench/run.py --trace 1`` result line against its caps.

``run.py --workload W --seed 0 --seconds 0 --trace 1 | tail -n 1 |
python3 tests/bench_caps.py W`` exits 1 and names each broken field; the
line counts the untraced pass's failures too.  The seed-0 caps, whose
traced counts ROADMAP's "Current figures" records:
- sparse products per iteration, to stay below: a traced ``proxsplit run``
  (ct-desk) makes 5 per dfb iteration, since the objective's B x is one
  product more, and 4 per pdfb or ADMM one, whose iterations make B x; the
  library makes 4, plus the B x0 a pdfb solve starts from, a larger share
  of ct-fine's few iterations;
- iterations, about 1.1 times the deterministic counts;
- set-up's power iteration (``norm_matvecs``), at its count.
"""

import json
import sys

CAPS = {  # workload: products per iteration, iterations, norm_matvecs
    "ct-fine": ({"pdfb": 4.03}, {"pdfb": 176}, 24),
    "ct-desk": ({"dfb": 5.01, "pdfb": 4.01, "admm": 4.01},
                {"dfb": 947, "pdfb": 971, "admm": 790}, 28),
    "tv-denoise": ({"dfb": 4.01, "pdfb": 4.01},
                   {"dfb": 4934, "pdfb": 5622}, 16),
}


def broken(workload, result):
    """One message per field of the result dict that breaks its cap."""
    if workload not in CAPS:
        return [f"no caps for workload {workload!r}"]
    products, iterations, norm_matvecs = CAPS[workload]
    below = {"linops.matvecs_per_iter." + a: c for a, c in products.items()}
    caps = {"failed": 0, "trace.repeat_mismatches": 0,
            "linops.norm_matvecs": norm_matvecs, **below,
            **{"solvers.iterations." + a: c for a, c in iterations.items()}}
    got = {**result, **{k: m["value"] for k, m in result["metrics"].items()}}
    out = [] if got["correct"] is True else [
        f"correct = {got['correct']!r}, not true"]
    for key, cap in caps.items():
        v = got.get(key)
        if not isinstance(v, (int, float)) or v > cap or (
                key in below and v == cap):
            out.append(f"{key} = {v!r} breaks its cap {cap}")
    return out


if __name__ == "__main__":
    found = broken(sys.argv[1], json.load(sys.stdin))
    sys.exit("\n".join(found) if found else 0)
