"""One benchmark job in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC`` where SPEC is a JSON object
with ``src`` (the directory holding the ``prmw`` package), ``trace``
(bool), ``kind`` and either ``argv`` (``kind == "cli"``: one ``prmw``
invocation) or ``cases`` (``kind == "construct"``: build and serialize
each ``[family, q, n, d]``).  ``kind == "probe"`` only imports.

The last line written to stdout is a JSON envelope: ``t_ready`` (the
monotonic clock when ``prmw`` is imported, which ``run.py`` compares
with the time it spawned this process), ``out`` (what the CLI
wrote to stdout, or the construct results), ``main_s`` and, when
tracing, ``layers``.  The exit code is the CLI's.

Tracing is outside-in: the public functions ``prmw.cli`` calls are
replaced, in the ``prmw.cli`` namespace only, by wrappers that add their
duration to per-layer totals kept in memory and written once, in the
envelope.  None of the wrapped functions reaches another through the
``prmw.cli`` namespace, so the spans never nest and ``main_s`` minus
their sum is the CLI's own time.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import os
import sys
import time


def _count_scanned(args, kwargs, report):
    return report.codewords_scanned


def _count_cells(args, kwargs, code):
    return code.length * code.dimension


def _count_incidences(args, kwargs, violations):
    # one test per (support, subspace) pair, so a computed count: the
    # number of subspaces of every dimension checked
    from prmw.geometry import gaussian_binomial

    params = args[1] if len(args) > 1 else kwargs["params"]
    dims = args[2] if len(args) > 2 else kwargs.get("dims")
    dims = range(1, params.n) if dims is None else dims
    return sum(gaussian_binomial(params.n + 1, s + 1, params.q) for s in dims)


# (attribute of prmw.cli, layer span name, counter of the work done)
CLI_TRACED = [
    ("build", "codes.build", _count_cells),
    ("weight_report", "weights.report", _count_scanned),
    ("codeword_support", "weights.support", None),
    ("check_subspace_bounds", "geometry.bounds", _count_incidences),
    ("find_avoiding_subspace", "geometry.avoid", None),
    ("find_avoiding_subspace_at_least", "geometry.avoid", None),
    ("projective_support", "geometry.psupport", None),
    ("zero_set_is_hyperplane_union", "geometry.union", None),
]


class Layers:
    """Per-layer totals: name -> [calls, seconds, work count]."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.totals: dict[str, list] = {}

    def wrap(self, fn, name: str, counter=None):
        if not self.enabled:
            return fn
        total = self.totals.setdefault(name, [0, 0.0, 0])

        def traced(*args, **kwargs):
            t0 = time.monotonic()
            result = fn(*args, **kwargs)
            total[1] += time.monotonic() - t0
            total[0] += 1
            if counter is not None:
                total[2] += counter(args, kwargs, result)
            return result

        return traced


def run_cli(argv: list[str], layers: Layers) -> tuple[int, str]:
    import prmw.cli as cli

    for attr, name, counter in CLI_TRACED:
        setattr(cli, attr, layers.wrap(getattr(cli, attr), name, counter))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def run_construct(cases: list, layers: Layers) -> tuple[int, str]:
    from prmw import CodeParams, build, code_to_bitdump, code_to_json

    build = layers.wrap(build, "codes.build", _count_cells)
    to_json = layers.wrap(code_to_json, "codes.serialize")
    to_bits = layers.wrap(code_to_bitdump, "codes.serialize")
    results = []
    for family, q, n, d in cases:
        code = build(CodeParams(family, q, n, d))
        doc = to_json(code)
        entry = {
            "case": [family, q, n, d],
            "length": code.length,
            "dimension": code.dimension,
            "json_sha256": hashlib.sha256(doc.encode("utf-8")).hexdigest(),
        }
        if q == 2:
            entry["bitdump"] = base64.b64encode(to_bits(code)).decode("ascii")
        results.append(entry)
    return 0, json.dumps(results)


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import prmw.cli  # noqa: F401  (the set-up every invocation pays)

    t_ready = time.monotonic()
    if not prmw.__file__.startswith(os.path.join(spec["src"], "")):
        raise SystemExit(f"imported prmw from {prmw.__file__}, not from {spec['src']}")
    layers = Layers(spec.get("trace", False))
    t0 = time.monotonic()
    if spec["kind"] == "cli":
        rc, out = run_cli(spec["argv"], layers)
    elif spec["kind"] == "construct":
        rc, out = run_construct(spec["cases"], layers)
    else:
        rc, out = 0, ""
    main_s = time.monotonic() - t0
    envelope = {"t_ready": t_ready, "out": out, "main_s": main_s}
    if layers.enabled:
        envelope["layers"] = layers.totals
    sys.stdout.write(json.dumps(envelope) + "\n")
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
