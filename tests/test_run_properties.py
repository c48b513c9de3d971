"""Run-level properties of the 613-cell case.

Whatever the execution layout (workers, partition, aggregation) and
whether or not a run is split by a resume under another layout, it writes
the history, restart and `rpointer` bytes of a reference run on 1 worker,
round_robin and 1 aggregator. A k-fold replica writes k copies of them.
"""

import os
import re
import shutil
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kiloland.compare import check_replication
from kiloland.decomp import SCHEMES
from kiloland.simulation import replicate_case, resume_case, run_case

from conftest import make_case_config, output_bytes

_MODELS = st.fixed_dictionaries({
    "n_days": st.integers(1, 4),
    "dt_hours": st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]),
    "history_interval": st.sampled_from(["end_of_run", "daily", "hourly", "none"]),
    "restart_interval": st.sampled_from(["end_of_run", "none", "every:1d", "every:2d"]),
})
_LAYOUTS = st.fixed_dictionaries({
    "lnd_workers": st.integers(1, 3),
    "partition_scheme": st.sampled_from(SCHEMES),
    "block_size": st.sampled_from([1, 5, 64, 700]),
    "n_aggregators": st.integers(1, 4),
    "buffer_limit": st.sampled_from([8, 1000, 2**20]),
})


@st.composite
def _cases(draw):
    """(model, layout, resume): `resume` is None or (day, layout of the
    resumed leg), the day being one the reference writes a restart for."""
    model, layout = draw(_MODELS), draw(_LAYOUTS)
    every = re.fullmatch(r"every:(\d)d", model["restart_interval"])
    days = [d for d in range(1, model["n_days"]) if every and d % int(every.group(1)) == 0]
    resume = None
    if days and draw(st.booleans()):
        resume = (draw(st.sampled_from(days)), draw(_LAYOUTS))
    return model, layout, resume


def _layout(workers, scheme="round_robin", block_size=64, aggregators=1, buffer_limit=2**20):
    return {"lnd_workers": workers, "partition_scheme": scheme, "block_size": block_size,
            "n_aggregators": aggregators, "buffer_limit": buffer_limit}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("run_properties")


@pytest.fixture(scope="module")
def reference(work, mini_inputs):
    """model -> output directory of its run on the reference layout, made once."""
    runs = {}

    def get(model: dict):
        key = tuple(sorted(model.items()))
        if key not in runs:
            out = work / f"ref{len(runs)}"
            run_case(make_case_config(mini_inputs, **model), str(out))
            runs[key] = out
        return runs[key]

    return get


@settings(max_examples=50, deadline=None)
@given(case=_cases())
# Daily history on 3 ranks: every rank's sums are reset at each flush.
@example(case=({"n_days": 2, "dt_hours": 1, "history_interval": "daily",
                "restart_interval": "end_of_run"}, _layout(3, "block", 64, 2), None))
# A resume under another layout, with the history count carried across.
@example(case=({"n_days": 3, "dt_hours": 3, "history_interval": "end_of_run",
                "restart_interval": "every:1d"}, _layout(2),
               (2, _layout(3, "block_round_robin", 5, 3, 8))))
def test_any_layout_and_resume_write_the_reference_bytes(reference, work, mini_inputs, case):
    model, layout, resume = case
    want = output_bytes(reference(model))
    cfg = make_case_config(mini_inputs, **model)
    out = work / "run"
    shutil.rmtree(out, ignore_errors=True)
    if resume is None:
        run_case(replace(cfg, **layout), str(out))
        assert output_bytes(out) == want
        return
    day, then = resume
    run_case(replace(cfg, n_days=day, **layout), str(out))
    resume_case(replace(cfg, **then), str(out), extra_days=model["n_days"] - day)
    got = output_bytes(out)
    assert {name: got.get(name) for name in want} == want
    # The first leg's end-of-run history is the only file the whole run lacks.
    extra = {f"mini.elm.h0.2014-01-{1 + day:02d}-00000.nc"}
    assert set(got) - set(want) <= (extra if model["history_interval"] == "end_of_run" else set())


@pytest.fixture(scope="module")
def replicas(work, mini_inputs):
    """k -> config of the case replicated k times, made once."""
    cfgs = {}

    def get(k: int):
        if k not in cfgs:
            cfgs[k] = replicate_case(make_case_config(mini_inputs), k, str(work / f"x{k}"))
        return cfgs[k]

    return get


@settings(max_examples=20, deadline=None)
@given(k=st.sampled_from([2, 3]), model=_MODELS, layout=_LAYOUTS)
@example(k=3, model={"n_days": 2, "dt_hours": 2, "history_interval": "daily",
                     "restart_interval": "every:1d"}, layout=_layout(2, "block", 5))
def test_replica_writes_k_copies(reference, replicas, work, k, model, layout):
    base = reference(model)
    out = work / "replica"
    shutil.rmtree(out, ignore_errors=True)
    cfg = replicas(k)
    run_case(replace(cfg, **model, **layout), str(out))
    names = _history_and_land_restarts(base)
    copies = [name.replace("mini.", f"{cfg.name}.", 1) for name in names]
    assert _history_and_land_restarts(out) == copies
    for name, copy in zip(names, copies):
        report = check_replication(str(base / name), str(out / copy), k)
        assert report.verdict == "identical", (name, report)


def _history_and_land_restarts(out_dir) -> list:
    return sorted(n for n in os.listdir(out_dir) if ".elm.h0." in n or ".elm.r." in n)
