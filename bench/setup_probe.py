"""Set-up probe: import the package and read one workload's documents.

    python3 bench/setup_probe.py <documents directory>

run.py starts it in a fresh interpreter and times it from before the
start to the CLOCK_MONOTONIC reading printed here, taken once the last
document has been parsed into a matroid.  So the time covers interpreter
start, numpy's import and the tables freecone builds at import time.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import freecone.cli  # noqa: E402,F401  (the CLI's imports are the set-up cost)
from freecone.documents import matroid_from_document, parse_json  # noqa: E402

for path in sorted(pathlib.Path(sys.argv[1]).glob("*.json")):
    matroid_from_document(parse_json(path.read_text(encoding="utf-8")))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
