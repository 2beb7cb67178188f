"""The text every figure, table and grid command prints, pinned.

Figures, tables, the workload report and the ``compare`` and ``sweep``
commands are views over grid results: reshaping the code that runs
their grids or renders their text must leave every byte they print
unchanged.  Each view runs at one small scale and its printed text is
hashed; the digests were recorded while every view still ran its own
loop of :func:`~repro.sim.config.make_scheme` and
:func:`~repro.sim.simulator.run_trace`.  A mismatch prints the text,
so the changed rows can be read off the failure.
"""

import hashlib

import pytest

from repro.analysis.report import build_report, render_report
from repro.cli import main as cli_main
from repro.experiments import (
    figure3,
    figure7,
    figure8,
    figure9,
    figure10,
    headline,
    optgap,
    table2,
    traffic,
)
from repro.sim.config import ExperimentScale

SETS, ASSOC, LENGTH = 16, 8, 4_000
SCALE = ExperimentScale(
    num_sets=SETS, associativity=ASSOC, trace_length=LENGTH
)
SCALE_ARGS = ["--sets", str(SETS), "--assoc", str(ASSOC),
              "--length", str(LENGTH)]

#: View name -> a call that prints the view at SCALE.
VIEWS = {
    "figure3": lambda: figure3.main(scale=SCALE),
    "figure7": lambda: figure7.main(scale=SCALE),
    "figure8": lambda: figure8.main(scale=SCALE),
    "figure9": lambda: figure9.main(scale=SCALE),
    "figure10": lambda: figure10.main(scale=SCALE),
    "headline": lambda: headline.main(scale=SCALE),
    "table2": lambda: table2.main(scale=SCALE),
    "traffic": lambda: traffic.main(scale=SCALE),
    "optgap": lambda: optgap.main(scale=SCALE),
    "report": lambda: print(render_report(build_report("mcf", scale=SCALE))),
    "compare": lambda: cli_main(["compare", "mcf", *SCALE_ARGS]),
    "sweep": lambda: cli_main(["sweep", "mcf", *SCALE_ARGS]),
}

#: sha256 of each view's printed text.
DIGESTS = {
    "figure3":
        "77f4efe98688ce78bede8d6efd147bd432383f68b8baf9ce591f0f8926835e6c",
    "figure7":
        "f5b0bf143d64740a9ea7dcb37c81eac0dab6682b737d7096c8a57bfa7efa8136",
    "figure8":
        "f78596dccefaba01982a412449e202fe05485842035aead72a777acb48df2237",
    "figure9":
        "82b051b728104d41f396069e38a2e75bb09e8e1735e8fafcc8539d3a968b4da8",
    "figure10":
        "e3c151aac38124d288a67549039dd4d9405104b86764d489f571bfad2a630872",
    "headline":
        "9df287e5da1c113d6a1079a958da520878b1bcf18f310f7d1f2b57a224973eac",
    "table2":
        "bbc9753b2b5d6cfcef1d87acf45fcb91a79d758130638051e7b1e1ae3a56e549",
    "traffic":
        "2d99811b3e5d6e643489c132bb28e54fba6c6c48509801676603dd92205b559d",
    "optgap":
        "bc93707f898a1fa183c2e8cf70550e20f022c8259fb4bb934885c6a8cffaa9af",
    "report":
        "0a670880ac38d1191504797831b6c780cdd8e7f6a028b4c721376af35153f592",
    "compare":
        "ca0b4582de7026042b1daaf76848256970e4275fe760b06076b2d8bbe4b97cb4",
    "sweep":
        "d07986ff7c79ca5d932aa3ba6327fc4cb3934e5bf6e77d28bd753123c1474047",
}


@pytest.mark.parametrize("view", sorted(VIEWS))
def test_view_prints_pinned_text(view, capsys):
    VIEWS[view]()
    text = capsys.readouterr().out
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == DIGESTS[view], text
