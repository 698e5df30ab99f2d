"""The benchmark's trace hooks must keep resolving against the engine.

``perfbench/spans.py`` wraps engine functions by (module, attribute)
name when a run is traced (``--trace 1``).  A rename in the engine
would only surface there, at trace time; these checks move that
failure into the test suite.  Nothing here installs the wrappers.
"""

import importlib
import inspect

from perfbench import spans


def _engine_hooks():
    for mod_name, attr, *_ in spans.PATCHES + spans.SPECIAL:
        if mod_name.startswith("ocr_lib_ray"):
            yield mod_name, attr


def test_every_engine_hook_resolves():
    hooks = list(_engine_hooks())
    assert hooks
    for mod_name, attr in hooks:
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{mod_name}.{attr} no longer resolves"
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{attr} is not callable"


def test_exchange_signature_matches_the_trace_wrapper():
    """The exchange wrapper re-calls the engine as
    ``fn(block_refs, bucket_fn, num_partitions, merge_fn=, pre_fn=)``."""
    from ocr_lib_ray.functions.bucket_tasks import exchange_to_bucket_refs

    params = inspect.signature(exchange_to_bucket_refs).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        ("block_refs", inspect.Parameter.empty),
        ("bucket_fn", inspect.Parameter.empty),
        ("num_partitions", inspect.Parameter.empty),
        ("merge_fn", None),
        ("pre_fn", None),
    ]


def test_band_count_hook_reads_the_band_verifier():
    """``dedup.lsh_candidates`` and ``dedup.lsh_pairs`` come from
    ``spans._count_band(out, args)`` around ``dedup._pairs_from_band``:
    candidates are the within-band_hash row pairs of the input frame,
    pairs the rows of the output."""
    import numpy as np
    import pandas as pd

    from ocr_lib_ray.functions import dedup

    same = np.arange(8, dtype=np.uint64).tobytes()
    other = np.full(8, 99, dtype=np.uint64).tobytes()
    g = pd.DataFrame(
        {
            "band": np.zeros(6, np.int32),
            "bucket": np.zeros(6, np.int32),
            "band_hash": np.array([7, 7, 7, 9, 9, 11], np.uint32),
            "doc_id": np.array([1, 2, 3, 4, 5, 6], np.int64),
            "signature": [same, same, other, same, same, same],
        }
    )
    out = dedup._pairs_from_band(g, 0.5)
    assert sorted(zip(out["d1"], out["d2"])) == [(1, 2), (4, 5)]
    assert spans._count_band(out, (g, 0.5)) == [3 + 1, 2]
