"""What every CLI call pays before its work: import sociallearn, load and validate configs.

Usage: python3 bench/setup_probe.py CONFIG.yaml [CONFIG.yaml ...]
``run.py`` times this script from process start to exit, in a fresh interpreter.
"""

import sys

import sociallearn

for path in sys.argv[1:]:
    with open(path, "r", encoding="utf-8") as fh:
        sociallearn.load_config(fh.read())
