"""The benchmark's own self-test, run as a tier-1 test: every workload at tiny
shapes must produce a well-formed result line. It fails when the library stops
calling the functions the benchmark traces (``MultiHeadAdaptiveKernel.
generate_kernels``, ``kernels.apply_heads``, ...), since their per-layer
metrics would then come out empty."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"),
                           "--selftest"], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
