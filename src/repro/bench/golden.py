"""Fixed-seed golden digests for every paper-facing artifact.

Optimization PRs must not change *what* the simulator computes, only
how fast.  This module canonicalizes that contract: each golden
scenario renders one paper table/figure (or runs a traced workload)
at a fixed seed and hashes the result.  The checked-in digests
(``tests/golden/golden.json``) are the pre-optimization reference;
``tests/bench/test_golden.py`` recomputes and compares them, so a
schedule-visible regression fails loudly with the scenario name.

Two digest families:

* **output digests** — sha256 of the rendered table/figure text
  (Tables 5-1..5-6, Figures 5-1/5-2, the §5.3 microbenchmark, the
  §2.3 consistency demo, the seeded resilience table, the scaling and
  block-sharing extension tables).  The rendered text includes
  simulated elapsed times and RPC counts, so any behavioral drift
  shows up.  The two nemesis entries hash the canonical cell list of
  the 70-cell matrix and of the sharded failover cells at seed 1, so
  their digests equal the ``repro-nemesis/1`` document digests.
* **trace digests** — :func:`repro.trace.trace_digest` over the full
  causal trace of the traced scenarios (the §5.3 microbenchmark, the
  resilience scenario, the two-client Andrew run per protocol).  A
  trace hashes every span and instant with timestamps, so these are
  byte-identical-schedule oracles.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "GOLDEN_OUTPUTS",
    "GOLDEN_TRACED",
    "GOLDEN_SCHEMA",
    "compute_output_digests",
    "compute_trace_digests",
    "run_golden",
    "check_golden",
    "write_golden",
    "default_golden_path",
]

GOLDEN_SCHEMA = "repro-golden/1"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- output digests ----------------------------------------------------------


def _table(name: str) -> Callable[[], str]:
    def build() -> str:
        from .. import experiments as ex

        builders = {
            "5-1": lambda: ex.andrew_table_5_1()[0],
            "5-2": lambda: ex.andrew_table_5_2()[0],
            "5-3": lambda: ex.sort_table_5_3()[0],
            "5-4": lambda: ex.sort_table_5_4()[0],
            "5-5": lambda: ex.sort_table_5_5()[0],
            "5-6": lambda: ex.sort_table_5_6()[0],
        }
        return builders[name]()

    return build


def _figure(protocol: str) -> Callable[[], str]:
    def build() -> str:
        from ..experiments import figure_series, render_figure

        return render_figure(figure_series(protocol))

    return build


def _micro() -> str:
    from ..experiments import micro_write_close_reread

    return micro_write_close_reread()[0]


def _consistency() -> str:
    from ..experiments import consistency_table

    return consistency_table()[0]


def _resilience() -> str:
    from ..experiments import resilience_table

    return resilience_table(seed=1)[0]


def _scaling() -> str:
    from ..experiments import scaling_table

    return scaling_table()[0]


def _blocksharing() -> str:
    from ..experiments import block_sharing_table

    return block_sharing_table()[0]


def _nemesis_cells(cells) -> str:
    """The canonical cell serialization a ``repro-nemesis/1`` document
    digest hashes, so the golden digest equals the document's."""
    import json

    from ..nemesis import nemesis_document

    return json.dumps(
        nemesis_document(cells, seed=1)["cells"], sort_keys=True, separators=(",", ":")
    )


def _nemesis_matrix() -> str:
    from ..nemesis import run_matrix

    return _nemesis_cells(run_matrix(seed=1))


def _nemesis_sharded() -> str:
    from ..nemesis import run_sharded_cells

    return _nemesis_cells(run_sharded_cells(seed=1))


#: scenario name -> zero-argument callable returning the canonical text
GOLDEN_OUTPUTS: Dict[str, Callable[[], str]] = {
    "table-5-1": _table("5-1"),
    "table-5-2": _table("5-2"),
    "table-5-3": _table("5-3"),
    "table-5-4": _table("5-4"),
    "table-5-5": _table("5-5"),
    "table-5-6": _table("5-6"),
    "figure-5-1": _figure("nfs"),
    "figure-5-2": _figure("snfs"),
    "micro-5-3": _micro,
    "consistency-2-3": _consistency,
    "resilience-seed1": _resilience,
    "scaling": _scaling,
    "blocksharing": _blocksharing,
    "nemesis-matrix-seed1": _nemesis_matrix,
    "nemesis-sharded-seed1": _nemesis_sharded,
}


def compute_output_digests(
    names: Optional[List[str]] = None,
) -> Dict[str, str]:
    """Render each requested golden scenario and hash its text."""
    out = {}
    for name, build in GOLDEN_OUTPUTS.items():
        if names is not None and name not in names:
            continue
        out[name] = _sha(build())
    return out


# -- trace digests -----------------------------------------------------------


def _traced_andrew(protocol: str) -> Callable[[], List[str]]:
    def run() -> List[str]:
        from ..experiments import run_traced_andrew
        from ..trace import trace_digest

        result = run_traced_andrew(protocol, seed=1989)
        return [trace_digest(result.tracer)]

    return run


def _traced_experiment(run_fn_name: str, **kwargs) -> Callable[[], List[str]]:
    """Run an experiment with ``REPRO_TRACE`` armed; digest every
    simulator's trace (one experiment may build several testbeds)."""

    def run() -> List[str]:
        from .. import experiments as ex
        from ..trace import Tracer, trace_digest

        run_fn = getattr(ex, run_fn_name)
        Tracer.drain_instances()
        had = os.environ.get("REPRO_TRACE")
        os.environ["REPRO_TRACE"] = "1"
        try:
            run_fn(**kwargs)
        finally:
            if had is None:
                os.environ.pop("REPRO_TRACE", None)
            else:
                os.environ["REPRO_TRACE"] = had
        return [trace_digest(tracer) for tracer in Tracer.drain_instances()]

    return run


#: scenario name -> zero-argument callable returning a digest list
GOLDEN_TRACED: Dict[str, Callable[[], List[str]]] = {
    "andrew-traced-nfs": _traced_andrew("nfs"),
    "andrew-traced-snfs": _traced_andrew("snfs"),
    "micro-5-3-traced": _traced_experiment("micro_write_close_reread"),
    "resilience-seed1-traced": _traced_experiment("resilience_table", seed=1),
}


def compute_trace_digests(
    names: Optional[List[str]] = None,
) -> Dict[str, List[str]]:
    """Run each traced golden scenario and collect its trace digests."""
    out = {}
    for name, run in GOLDEN_TRACED.items():
        if names is not None and name not in names:
            continue
        out[name] = run()
    return out


# -- the pooled regeneration / check path -------------------------------------
#
# Each golden scenario is one independent fixed-seed simulation, so the
# regeneration sweep is a textbook cell workload: ``python -m repro
# golden -j4`` recomputes every digest on the pool and either compares
# against the committed file (--check, the default) or rewrites it.


def default_golden_path() -> str:
    """The committed golden file, resolved relative to the repo root
    (the package lives at ``<root>/src/repro``)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(
        os.path.join(here, "..", "..", "..", "tests", "golden", "golden.json")
    )


def run_golden(
    jobs: int = 1, progress=None, accounting=None
) -> Tuple[Dict[str, str], Dict[str, List[str]], List[Dict]]:
    """Recompute every golden digest via the cell pool.

    Returns ``(outputs, trace_digests, error_rows)`` — scenarios whose
    cell errored are absent from the dicts and listed in the rows.
    """
    import time

    from ..parallel import CellSpec, pool_accounting, run_cells

    specs = [
        CellSpec(kind="golden-output", name=name) for name in GOLDEN_OUTPUTS
    ] + [
        CellSpec(kind="golden-traced", name=name) for name in GOLDEN_TRACED
    ]
    t0 = time.perf_counter()  # lint: ok=DET002 — wall-clock sweep accounting, not sim logic
    rows = run_cells(specs, jobs=jobs, progress=progress)
    total = time.perf_counter() - t0  # lint: ok=DET002 — wall-clock sweep accounting, not sim logic
    if accounting is not None:
        accounting.update(pool_accounting(rows, total, jobs))
    outputs: Dict[str, str] = {}
    traced: Dict[str, List[str]] = {}
    errors: List[Dict] = []
    for row in rows:
        if row["error"]:
            errors.append(row)
        elif row["kind"] == "golden-output":
            outputs[row["name"]] = row["result"]
        else:
            traced[row["name"]] = row["result"]
    return outputs, traced, errors


def check_golden(
    path: Optional[str] = None, jobs: int = 1, progress=None, accounting=None
) -> Tuple[bool, List[str]]:
    """Recompute all digests and diff against the committed file."""
    import json

    path = path or default_golden_path()
    with open(path) as fh:
        ref = json.load(fh)
    outputs, traced, errors = run_golden(
        jobs=jobs, progress=progress, accounting=accounting
    )
    lines: List[str] = []
    ok = True
    for row in errors:
        ok = False
        lines.append("ERROR    %-24s %s" % (row["name"], row["error"]))
    for family, fresh, committed in (
        ("output", outputs, ref.get("outputs", {})),
        ("traced", traced, ref.get("trace_digests", {})),
    ):
        for name in sorted(set(fresh) | set(committed)):
            if name not in fresh:
                if not any(row["name"] == name for row in errors):
                    ok = False
                    lines.append("MISSING  %-24s only in %s" % (name, path))
            elif name not in committed:
                ok = False
                lines.append("NEW      %-24s not in %s" % (name, path))
            elif fresh[name] != committed[name]:
                ok = False
                lines.append("CHANGED  %-24s (%s digest moved)" % (name, family))
            else:
                lines.append("ok       %-24s" % name)
    return ok, lines


def write_golden(path: Optional[str] = None, jobs: int = 1, progress=None) -> str:
    """Regenerate the committed golden file (sorted keys, newline EOF).

    Refuses to write a partial file when any cell errored."""
    import json

    path = path or default_golden_path()
    outputs, traced, errors = run_golden(jobs=jobs, progress=progress)
    if errors:
        raise RuntimeError(
            "refusing to write %s: %d golden cell(s) failed (%s)"
            % (path, len(errors), ", ".join(r["name"] for r in errors))
        )
    doc = {
        "schema": GOLDEN_SCHEMA,
        "outputs": outputs,
        "trace_digests": traced,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
