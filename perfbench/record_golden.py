"""Record ``golden.json``, the fixture the benchmark checks outputs against.

Usage, from the repository root:  ``python3 perfbench/record_golden.py``

Run it only on a commit whose outputs are trusted; the committed file was
recorded at the commit that introduced the benchmark.  It runs every
table and verify invocation of the workloads in-process, keeps their
output (verify checks without ``elapsed_ms``), the weight distribution of
every enumerated instance, cross-checked against ``naive_weight_counts``
wherever q^dimension <= 2^16, and digests of the constructed codes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import instance_key, job_key, rows_digest, strip_elapsed  # noqa: E402
from prmw import CodeParams, build, code_to_json, naive_weight_counts, weight_report  # noqa: E402
from prmw.cli import main as cli_main  # noqa: E402
from workloads import BINARY_TABLES, CONSTRUCT_CASES, JSON, QARY_TABLES, VERIFY_RUNS  # noqa: E402

NAIVE_LIMIT = 1 << 16


def cli_json(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv + JSON)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return json.loads(buf.getvalue())


def weight_entry(family: str, q: int, n: int, d: int) -> dict:
    code = build(CodeParams(family, q, n, d))
    rep = weight_report(code)
    counts = {str(w): c for w, c in sorted(rep.weight_counts.items())}
    if q**code.dimension <= NAIVE_LIMIT:
        naive = {str(w): c for w, c in sorted(naive_weight_counts(code, NAIVE_LIMIT).items())}
        if naive != counts:
            raise SystemExit(f"{instance_key(family, q, n, d)}: weight_report disagrees with naive")
    return {"dimension": code.dimension, "counts": counts}


def main() -> int:
    golden: dict = {"table": {}, "verify": {}, "weights": {}, "construct": {}}
    instances = set()
    for argv in BINARY_TABLES + QARY_TABLES:
        rows = cli_json(argv)
        golden["table"][job_key(argv)] = rows
        instances |= {(r["family"], r["q"], r["n"], r["d"]) for r in rows}
    for argv in VERIFY_RUNS:
        doc = cli_json(argv)
        golden["verify"][job_key(argv)] = strip_elapsed(doc["checks"])
        q, n, d = (int(argv[argv.index(f) + 1]) for f in ("--q", "--n", "--d"))
        instances.add(("prm", q, n, d))
    for inst in sorted(instances):
        golden["weights"][instance_key(*inst)] = weight_entry(*inst)
    for family, q, n, d in CONSTRUCT_CASES:
        code = build(CodeParams(family, q, n, d))
        golden["construct"][instance_key(family, q, n, d)] = {
            "length": code.length,
            "dimension": code.dimension,
            "json_sha256": hashlib.sha256(code_to_json(code).encode("utf-8")).hexdigest(),
            "rows_sha256": rows_digest(code.gen.tolist()),
        }
    text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    (HERE / "golden.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
