import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_check_passes():
    # runs every benchmark workload at tiny size under the tracer and
    # checks the layer isolation the workloads rely on
    result = subprocess.run([sys.executable, os.path.join("perfbench", "smoke.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
