"""The runtime environment knobs are exactly the ones README documents.

Every ``REPRO_*`` name that appears under ``src/`` must be listed in
README.md, and README may name no program knob the source no longer
reads (``REPRO_BENCH_*`` floors belong to the benchmark drivers).
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _knobs(text):
    return {k for k in KNOB.findall(text) if not k.startswith("REPRO_BENCH_")}


def test_source_knobs_equal_documented_knobs():
    in_src = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        in_src |= _knobs(path.read_text(encoding="utf-8"))
    documented = _knobs((ROOT / "README.md").read_text(encoding="utf-8"))
    assert in_src == documented
    assert in_src == {"REPRO_KERNEL_BACKEND", "REPRO_BALANCER",
                      "REPRO_COST_MODEL", "REPRO_DES_PROFILE"}
