"""Golden digests of the pipeline's outputs.

The 613-cell test case is built at a fixed seed and run for 2 days with
daily history and a restart bundle every day, on 1 and on 2 workers. The
SHA-256 of the forcing and surface files and of every history, restart and
`rpointer` file must equal the committed value, so any change to an output
byte fails here and names the file. The domain file is left out: its
coordinates go through numpy's `tan` and `arctan`, whose last bits differ
by CPU. The run outputs depend only on the input bytes and on `+ - * /`,
`min`, `max` and `where`, so they are pinned on every machine.
"""

import hashlib
import os

import pytest

from conftest import make_case_config, write_case_inputs
from kiloland.simulation import run_case

GOLDEN_SEED = 7

GOLDEN = {
    "forcing/forcing_met_2014-01.nc":
        "77a22e08981858b2db559eda243a1be92907fb1849af09c924745dd412cbefa8",
    "surface.nc":
        "243ea0652700b13d8a6c9f1abe67b3f661403cc2204239832f15cea5ac997804",
    "run/mini.elm.h0.2014-01-02-00000.nc":
        "9e4ba39e2650ae3a186787f65bcb14a28b2c251b09a8f737242c360e83b90bfe",
    "run/mini.elm.h0.2014-01-03-00000.nc":
        "087599ee2b691a9c1cf93c39c6eb4032766bd23350f6125d318791edbb6bad93",
    "run/mini.elm.r.2014-01-02-00000.nc":
        "e03cfdf4fbe549bb3b432ed1a42a90b6f08a47e6aa2a24596056b0348c26deb5",
    "run/mini.cpl.r.2014-01-02-00000.nc":
        "6e035c1e1b29b16628afe05627b3bfbf8f856c70913407f5411bca867d5455f6",
    "run/mini.datm.r.2014-01-02-00000.nc":
        "50f9cf23807880fce434c412ede418f43dee383816e15ca71158dcedd63ca3ed",
    "run/mini.elm.rh0.2014-01-02-00000.nc":
        "8174bb78bb1c37cf7c6459c811f7cc31467acd421dc74222f93d232a02f336dd",
    "run/mini.elm.r.2014-01-03-00000.nc":
        "099c6b248822252e9476ed32cc28f8d503ffd9fc4e700700f9bb60c8405b2a20",
    "run/mini.cpl.r.2014-01-03-00000.nc":
        "6fd97683017277a00a379aee34b3d1772b4a46c1efdf854079c562d199b9fb5d",
    "run/mini.datm.r.2014-01-03-00000.nc":
        "e5ac64986db71220f9cec10dcb0289ddf47491d9faeeb4621bf609d98bf79054",
    "run/mini.elm.rh0.2014-01-03-00000.nc":
        "61e55b61cedcaaf3b16a7733ec43d2dd4b3706d82609307c136886b1656142a1",
    "run/rpointer.mini":
        "c54b83e508669ce2554cbc6422da4d6fd0491da0037f5dc90c9a322689d7383d",
}

# Run outputs that carry timings or the execution layout, not model bytes.
UNPINNED = ("mini.iostats.csv", "mini.provenance.txt")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def golden_digests(root, workers: int) -> dict:
    """Run the golden case under `root` (inputs already written) and return
    {path relative to root: digest} for every pinned file."""
    cfg = make_case_config(
        root, n_days=2, history_interval="daily", restart_interval="every:1d",
        lnd_workers=workers,
    )
    out = os.path.join(str(root), f"run_w{workers}")
    run_case(cfg, out)
    found = {
        "forcing/forcing_met_2014-01.nc": os.path.join(str(root), "forcing",
                                                       "forcing_met_2014-01.nc"),
        "surface.nc": os.path.join(str(root), "surface.nc"),
    }
    for name in sorted(os.listdir(out)):
        if name not in UNPINNED:
            found[f"run/{name}"] = os.path.join(out, name)
    return {key: sha256(path) for key, path in found.items()}


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory, aksp_mini):
    root = tmp_path_factory.mktemp("golden")
    write_case_inputs(aksp_mini, root, seed=GOLDEN_SEED)
    return root


@pytest.mark.parametrize("workers", [1, 2])
def test_outputs_match_golden_digests(golden_inputs, workers):
    got = golden_digests(golden_inputs, workers)
    assert sorted(got) == sorted(GOLDEN), "the run wrote a different set of files"
    missed = [key for key in GOLDEN if got[key] != GOLDEN[key]]
    assert not missed, f"digest differs for {missed}"
