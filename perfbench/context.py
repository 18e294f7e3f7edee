"""The benchmark's set-up: load the fixtures and reference tables and warm
the lazy caches.  It imports nothing but chromroots, so that set-up timed
in a fresh interpreter pays for every import the package needs."""

import importlib


def load_context() -> dict:
    """Import chromroots, load the fixtures and reference tables and warm
    the lazy caches (build_MD, the Stirling rows); returns the
    workloads.Context fields."""
    chromatic = importlib.import_module("chromroots.chromatic")
    graphs = importlib.import_module("chromroots.graphs")
    tables = importlib.import_module("chromroots.tables")
    transfer = importlib.import_module("chromroots.transfer")
    h, w4 = graphs.load_fixture("H"), graphs.load_fixture("W4")
    q_h = tables.reference_partition_components()
    q_w4 = chromatic.partitioned_chromatic(w4)
    transfer.build_MD()
    return dict(h=h, w4=w4, q_h=q_h, q_w4=q_w4,
                family=transfer.StripFamily(q_h, q_w4, "H,W4"),
                roots_by_n=tables.reference_roots_by_n(),
                roots_doubling=tables.reference_roots_doubling())
