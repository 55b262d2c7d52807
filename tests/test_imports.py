"""Importing the package stays cheap, and falsification never imports
`scipy.signal`: scipy loads only where a result needs it (the compare
rank-sum p-value), and the ARX filter loads scipy's compiled kernel on its
own."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_python(code: str) -> str:
    """stdout of `code` run by a fresh interpreter that imports from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, cwd=ROOT).stdout


def test_import_sasbt_defers_scipy_signal_and_stats():
    code = ("import sys, sasbt; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    assert run_python(code).strip() == "[]"


def test_loading_both_config_kinds_leaves_multiprocessing_and_scipy_unloaded():
    # the harness imports multiprocessing when a run starts worker processes
    # and scipy.stats for a rank-sum p-value; arx locates scipy's filter
    # kernel without importing scipy
    code = ("import sys, sasbt; from sasbt.harness import ExperimentConfig; "
            "ExperimentConfig.from_file('configs/compare_default.cfg'); "
            "ExperimentConfig.from_file('configs/falsify_tank.cfg'); "
            "print(sorted(m for m in ('multiprocessing', 'scipy') if m in sys.modules))")
    assert run_python(code).strip() == "[]"


FALSIFY_WITHOUT_SCIPY_SIGNAL = """
import sys, tempfile
from pathlib import Path
import numpy as np
from sasbt.falsify import benchmark_sut
from sasbt.harness import ExperimentConfig, parse_config_text, run_falsify

raw = parse_config_text(Path("configs/falsify_tank.cfg").read_text(encoding="utf-8"))
raw["experiment.repetitions"] = "1"
for na in ("2", "0"):  # a filter with feedback, then a pure FIR filter
    raw["falsify.arx_na"] = na
    config = ExperimentConfig.from_text("".join(f"{k} = {v}\\n" for k, v in raw.items()))
    with tempfile.TemporaryDirectory() as out:
        run_falsify(config, Path(out), quiet=True)
benchmark_sut("lti2", np.linspace(0.0, 1.0, 20))
print(sorted(m for m in ("scipy.signal", "scipy.stats") if m in sys.modules))
"""


def test_falsify_and_the_lti2_system_never_import_scipy_signal_or_stats():
    assert run_python(FALSIFY_WITHOUT_SCIPY_SIGNAL).strip() == "[]"


KERNEL_THEN_SCIPY_SIGNAL = """
import numpy as np
from sasbt import arx

rng = np.random.default_rng(3)
x = rng.normal(size=40)
cases = [(np.array([0.0, 1.0, 0.3]), np.array([1.0, -0.5, -0.2])),  # feedback
         (np.array([0.0, 0.7, -0.2, 0.1]), np.array([1.5]))]        # pure FIR
ours = [arx.lfilter(num, den, x).tobytes() for num, den in cases]
import scipy.signal
print(hasattr(scipy.signal, "_sigtools"))
print([scipy.signal.lfilter(num, den, x).tobytes() for num, den in cases] == ours)
"""


def test_scipy_signal_imported_after_the_kernel_is_intact_and_agrees():
    # the in-process oracle in test_arx.py imports scipy.signal first
    assert run_python(KERNEL_THEN_SCIPY_SIGNAL).split() == ["True", "True"]
