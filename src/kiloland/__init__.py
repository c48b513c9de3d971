"""kiloland: desk-scale land-simulation stack -- projected domains,
downscaled forcing, surface properties, a gridcell-parallel column driver,
a self-contained NetCDF-classic codec, and a scaling benchmark harness."""

import hashlib
import os

__version__ = "0.1.0"


def write_provenance(out_dir: str, name: str, config, seed, fingerprint=None) -> None:
    """Write `<name>.provenance.txt` in `out_dir`: a digest of `repr(config)`,
    the configuration fingerprint when given, the seed and the version."""
    digest = hashlib.sha256(repr(config).encode()).hexdigest()[:16]
    lines = [f"config_hash = {digest}"]
    if fingerprint is not None:
        lines.append(f"fingerprint = {fingerprint}")
    lines += [f"seed = {seed}", f"version = {__version__}"]
    with open(os.path.join(out_dir, f"{name}.provenance.txt"), "w") as fh:
        fh.write("".join(line + "\n" for line in lines))
