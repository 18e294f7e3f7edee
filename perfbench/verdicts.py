"""Classifier verdicts of the seeded random ends, as a fixed answer key.

    python3 perfbench/verdicts.py

runs `classify_end_graph` on every end of `endgen.seeded_ends(seed)` for
seeds 1..SEEDS and writes ``verdicts.json``: per seed, one character per
end in grid order ("+" positive, "-" negative).  The `ends` workload
requires each random end's verdict to be conclusive and, for a seed in the
file, to equal the recorded one.  The file was written with the classifier
that the benchmark was defined with; write it again only when a verdict is
known to have been wrong.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "verdicts.json"
SEEDS = 100
SYMBOL = {"positive": "+", "negative": "-"}
VERDICT = {symbol: verdict for verdict, symbol in SYMBOL.items()}


def load() -> dict:
    """{seed: verdict string}."""
    return {int(seed): v for seed, v in json.loads(PATH.read_text()).items()}


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from chromroots import chromatic, spectral

    import endgen
    out = {}
    for seed in range(1, SEEDS + 1):
        out[str(seed)] = "".join(
            SYMBOL[spectral.classify_end_graph(
                chromatic.partitioned_chromatic(fg, cache={})).verdict]
            for fg in endgen.seeded_ends(seed))
        print(f"seed {seed}: {out[str(seed)].count('-')} negative",
              file=sys.stderr, flush=True)
    PATH.write_text(json.dumps(out, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
