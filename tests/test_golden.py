"""Pinned artifact digests.

``run_pipeline`` with ICP on three benchmark configs and the clean
cylinder (continuous z symmetry, so the oracle's axis spin runs), seeds
0 and 1. A
change that alters a bit of ``poses.json`` or ``labels.txt`` fails here
and must update the digest and say why; the rerun test (A9) only
compares two runs of the same code.

The digests were recorded with numpy 2.4.6's bundled OpenBLAS on its
SkylakeX kernel, one BLAS thread. Its Haswell and Sandybridge kernels
(``OPENBLAS_CORETYPE``) round some products differently and fail all
eight, so a machine whose CPU selects another kernel fails here without
a code change; CI prints the kernel it got.
"""

import hashlib
import json

import pytest

from binpose.fileio import load_config
from binpose.pipeline import run_pipeline

BOX = {"kind": "box", "extents": [40, 120, 160]}
CUBE = {"kind": "box", "extents": [80, 80, 80]}
CYLINDER = {"kind": "cylinder", "radius": 30, "height": 120}
CLEAN = {"sigma_t_mm": 1.0, "sigma_r_deg": 2.0, "symmetric_ambiguity": True,
         "outlier_fraction": 0.0}
NOISY = {"sigma_t_mm": 4.0, "sigma_r_deg": 8.0, "symmetric_ambiguity": True,
         "outlier_fraction": 0.1}


def _config(shape, pitch, symmetry, oracle, min_points_1=20):
    return {
        "object": {"builtin": dict(shape, pitch=pitch), "symmetry": symmetry},
        "cluster": {"bandwidth_1": 5.0, "bandwidth_2": 2.5, "min_points_1": min_points_1,
                    "min_points_2": 50, "quat_scale": 20.0},
        "eval": {"tolerance_mm": 5.0, "visibility_threshold": 0.4},
        "synth": {"instance_range": [3, 5], "bin_extents": [700, 700, 500],
                  "occlusion_cell": 5.0, "occlusion_depth": 10.0},
        "oracle": oracle,
    }


CONFIGS = {
    "dense_box": _config(BOX, 7.0, {"dz_deg": 180}, CLEAN),
    "noisy_box": _config(BOX, 9.0, {"dz_deg": 180}, NOISY),
    "cube24": _config(CUBE, 8.0, {"dx_deg": 90, "dy_deg": 90, "dz_deg": 90}, CLEAN,
                      min_points_1=10),
    "cylinder": _config(CYLINDER, 6.0, {"dz_deg": 1}, CLEAN),
}

# (config, seed) -> sha256 of poses.json, labels.txt
GOLDEN = {
    ("dense_box", 0): ("270c2173bda695b5ae873ab9fac9986760075ea330356ff0916fe85ddbc479b8",
                       "7cdf99703e6ce984ad4531945a4e53bfb9c74bff28fb95ac6bb43249a0b0d6f3"),
    ("dense_box", 1): ("8faf3e2e10b05ecfbb58d70509d6a8c4a90545642a26c06ff31f50819314f2a0",
                       "bc32b8aa21c0d514882e67844348f52eaed6ce3277ffb0d3799f4b69de71dc87"),
    ("noisy_box", 0): ("c7431c7bddb2e8cedc2116be62f4e24348b3cb162ed2c41b685fd510f940660e",
                       "6f80ae89c3ed1bfdb4f2d81d5f0faa57e8b99da33a9963687f155c29682dc66a"),
    ("noisy_box", 1): ("2af32923fe533043dd4dc5f7b6c2f689af83e7281d6f5a1f00ff0600284af5dd",
                       "6dddbc484217c216b7ab9c33b6c27e98bcf7eefb8479041a3515382179381a65"),
    ("cube24", 0): ("7d1d224a1f133023afca7f57e68c0d1150901bad7aeec66e99e8d33de7ed18fc",
                    "556f32e3364296e73d6569d9900956b1845f191dedd7b1894789e4019ca7f622"),
    ("cube24", 1): ("7fe2032847b1a08e285afe200a383b2f6de3246885ac53267f2195b5b9b01f1e",
                    "0d7c677a6912715168736195ece75f63f78d046a2759f2334b6837de0963b5d8"),
    ("cylinder", 0): ("ed1eeda368403d94d1b5c8d9ab1e595450a6b75d627071748bbd7228782ce079",
                      "0a157ce9231faaeaa49e34d35ccb4b04ec812c3bbb67b45a7db02a02692e26e4"),
    ("cylinder", 1): ("c14d2444cc4f657c20fd58725c00fbc320fa210144dcaacd65f2263fec42c807",
                      "ac167dc5a9f7f53f9d785bb212a5683a880f8dc72d68ec287480a5c3314698db"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
def test_artifact_digests_are_pinned(tmp_path, key):
    name, seed = key
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIGS[name]))
    out = tmp_path / "out"
    run_pipeline(load_config(path), seed, out_dir=str(out), use_icp=True)
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("poses.json", "labels.txt"))
    assert digests == GOLDEN[key]
