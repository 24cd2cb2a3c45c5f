"""Set-up probe: one fresh interpreter imports heavytail, loads configs and
builds their model objects, then exits.  The caller times the whole process.

    python3 bench/setup_probe.py --sampler ar1_scalar --family bench/configs/dense_ar1.json

``--sampler CFG`` builds the innovation law and the spectral-window sampler
(operator powers, norm bounds, series constants).  ``--family CFG`` builds
the innovation law and the operator family with every norm bound, for
configs whose window sampler cannot be built.
"""

from __future__ import annotations

import argparse

# importing a submodule runs the package __init__, which imports every module
from heavytail.config import load_config


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sampler", action="append", default=[])
    parser.add_argument("--family", action="append", default=[])
    args = parser.parse_args()
    for source in args.sampler:
        cfg = load_config(source)
        cfg.innovation()
        cfg.window_sampler()
    for source in args.family:
        cfg = load_config(source)
        cfg.innovation()
        cfg.family().summability()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
