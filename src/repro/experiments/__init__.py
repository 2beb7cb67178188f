"""One module per paper figure/table, plus ablations (DESIGN.md §3).

Every module exposes ``run(...)`` returning structured results and
``main(...)`` printing the same rows/series the paper's figure plots.
``python -m repro.experiments.figure7`` (etc.) regenerates a figure
from the command line.
"""
