"""File formats and configuration.

Everything is ASCII for diff-ability: PLY scene clouds with an optional
per-point instance id, CSV per-point predictions, JSON poses / scene
sidecars / reports, and a single JSON config with one section per
subsystem. Floats are written with shortest round-trip repr, so a
load/save cycle is byte identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .cluster import ClusterParams, PerPointPrediction
from .metrics import EvalConfig, EvalReport
from .so3 import Pose, SymmetryDescriptor, quat_normalize
from .synth import (ObjectModel, OracleParams, SceneGenParams, box_cloud,
                    cylinder_cloud, rod_model, sphere_cloud)
from .workspace import NormalizationTransform

SCHEMA_VERSION = 1


class PlyParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# PLY


def save_ply(path, points, instance_ids=None) -> None:
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    with open(path, "w") as f:
        f.write("ply\n")
        f.write("format ascii 1.0\n")
        f.write(f"element vertex {pts.shape[0]}\n")
        f.write("property float x\n")
        f.write("property float y\n")
        f.write("property float z\n")
        if instance_ids is not None:
            f.write("property int instance_id\n")
        f.write("end_header\n")
        if instance_ids is None:
            for p in pts:
                f.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        else:
            ids = np.asarray(instance_ids, dtype=int).reshape(-1)
            if ids.shape[0] != pts.shape[0]:
                raise ValueError("instance_ids length must match point count")
            for p, i in zip(pts, ids):
                f.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])} {int(i)}\n")


def load_ply(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read an ASCII PLY with float x, y, z and an optional int
    instance_id; returns (points, ids-or-None) preserving file order."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise PlyParseError("missing 'ply' magic", 1)
    n_vertex = None
    props: list[str] = []
    body_start = None
    for ln, raw in enumerate(lines[1:], start=2):
        tok = raw.split()
        if not tok or tok[0] == "comment":
            continue
        if tok[0] == "format":
            if tok[1:] != ["ascii", "1.0"]:
                raise PlyParseError("only 'format ascii 1.0' is supported", ln)
        elif tok[0] == "element":
            if tok[1] != "vertex":
                raise PlyParseError(f"unsupported element '{tok[1]}'", ln)
            n_vertex = int(tok[2])
        elif tok[0] == "property":
            props.append(tok[-1])
        elif tok[0] == "end_header":
            body_start = ln
            break
        else:
            raise PlyParseError(f"unexpected header token '{tok[0]}'", ln)
    if body_start is None:
        raise PlyParseError("header never ended (missing end_header)", len(lines))
    if n_vertex is None:
        raise PlyParseError("missing 'element vertex' declaration", body_start)
    if props[:3] != ["x", "y", "z"]:
        raise PlyParseError("vertex properties must start with x, y, z", body_start)
    with_ids = len(props) >= 4 and props[3] == "instance_id"

    body = lines[body_start:]
    if len(body) < n_vertex:
        raise PlyParseError(
            f"expected {n_vertex} vertex rows, file ends after {len(body)}",
            body_start + len(body))
    pts = np.empty((n_vertex, 3))
    ids = np.empty(n_vertex, dtype=int) if with_ids else None
    need = 4 if with_ids else 3
    for i in range(n_vertex):
        tok = body[i].split()
        if len(tok) < need:
            raise PlyParseError(f"expected {need} values, got {len(tok)}",
                                body_start + 1 + i)
        try:
            pts[i] = [float(tok[0]), float(tok[1]), float(tok[2])]
            if with_ids:
                ids[i] = int(tok[3])
        except ValueError as e:
            raise PlyParseError(str(e), body_start + 1 + i) from None
    return pts, ids


# ---------------------------------------------------------------------------
# predictions CSV

PRED_HEADER = "x,y,z,cx,cy,cz,qw,qx,qy,qz"


def save_predictions_csv(path, pred: PerPointPrediction) -> None:
    with open(path, "w") as f:
        f.write(PRED_HEADER + "\n")
        for p, c, q in zip(pred.positions, pred.centroids, pred.quats):
            row = list(p) + list(c) + list(q)
            f.write(",".join(_fmt(v) for v in row) + "\n")


def load_predictions_csv(path) -> PerPointPrediction:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != PRED_HEADER:
        raise ValueError(f"prediction CSV must start with header '{PRED_HEADER}'")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:] if ln.strip()])
    if data.size == 0:
        data = data.reshape(0, 10)
    if data.shape[1] != 10:
        raise ValueError("prediction CSV rows must have 10 columns")
    return PerPointPrediction(positions=data[:, 0:3], centroids=data[:, 3:6],
                              quats=data[:, 6:10])


# ---------------------------------------------------------------------------
# poses / labels / scene sidecar / report


def _pose_to_dict(pose: Pose, member_count: int | None = None) -> dict:
    d = {"qw": float(pose.quat[0]), "qx": float(pose.quat[1]),
         "qy": float(pose.quat[2]), "qz": float(pose.quat[3]),
         "tx": float(pose.t[0]), "ty": float(pose.t[1]), "tz": float(pose.t[2])}
    if member_count is not None:
        d["member_count"] = int(member_count)
    return d


def _pose_from_dict(d: dict) -> Pose:
    return Pose(quat_normalize([d["qw"], d["qx"], d["qy"], d["qz"]]),
                [d["tx"], d["ty"], d["tz"]])


def write_json(path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def save_poses_json(path, poses: list[Pose], member_counts=None) -> None:
    counts = member_counts if member_counts is not None else [None] * len(poses)
    write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "poses": [_pose_to_dict(p, c) for p, c in zip(poses, counts)],
    })


def load_poses_json(path) -> tuple[list[Pose], list[int | None]]:
    with open(path) as f:
        payload = json.load(f)
    poses = [_pose_from_dict(d) for d in payload["poses"]]
    counts = [d.get("member_count") for d in payload["poses"]]
    return poses, counts


def save_labels(path, labels) -> None:
    with open(path, "w") as f:
        for v in np.asarray(labels, dtype=int).reshape(-1):
            f.write(f"{int(v)}\n")


def load_labels(path) -> np.ndarray:
    with open(path) as f:
        return np.array([int(ln) for ln in f.read().split()], dtype=int)


def save_scene_json(path, poses: list[Pose], visible_counts, seed,
                    normalization: NormalizationTransform | None) -> None:
    write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "poses": [_pose_to_dict(p) for p in poses],
        "n_visible": [int(n) for n in visible_counts],
        "normalization": normalization.to_dict() if normalization else None,
    })


def load_scene_json(path) -> dict:
    with open(path) as f:
        payload = json.load(f)
    payload["poses"] = [_pose_from_dict(d) for d in payload["poses"]]
    if payload.get("normalization"):
        payload["normalization"] = NormalizationTransform.from_dict(payload["normalization"])
    return payload


def save_report_json(path, report: EvalReport, extra: dict | None = None) -> None:
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(report.to_dict())
    if extra:
        payload.update(extra)
    write_json(path, payload)


def save_report_csv(path, reports: list[EvalReport]) -> None:
    with open(path, "w") as f:
        f.write("scene,n_gt,n_pred,tp,f1_inst,recall\n")
        for i, r in enumerate(reports):
            f.write(f"{i},{r.n_gt},{r.n_pred},{r.tp},{_fmt(r.f1_inst)},{_fmt(r.recall)}\n")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class Config:
    """Validated bundle of one object plus all stage parameters."""

    model: ObjectModel
    cluster: ClusterParams
    eval: EvalConfig
    synth: SceneGenParams
    oracle: OracleParams


# config section -> its dataclass, one per Config field but the model
_SECTIONS = {name: cls for name, cls in get_type_hints(Config).items() if name != "model"}

# builtin kind -> (point cloud builder, its keyword parameters with defaults)
_BUILTIN_SHAPES = {
    "box": (box_cloud, {"extents": (40.0, 60.0, 80.0), "pitch": 8.0}),
    "cylinder": (cylinder_cloud, {"radius": 30.0, "height": 80.0, "pitch": 6.0}),
    "sphere": (sphere_cloud, {"radius": 40.0, "n_points": 500}),
    "rod": (lambda pitch: rod_model(pitch).points, {"pitch": 2.0}),
}


def _check_keys(section: str, d: dict, known) -> None:
    """Reject keys of config section ``d`` outside ``known``; the error
    names each one as section.key ("" is the top level)."""
    unknown = [f"{section}.{k}" if section else k for k in sorted(set(d) - set(known))]
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")


def _coerce(section: str, d: dict, defaults: dict) -> dict:
    """Config section ``d`` with each value converted to the type of its
    key's default."""
    _check_keys(section, d, defaults)
    out = {}
    for key, value in d.items():
        try:
            out[key] = type(defaults[key])(value)
        except (TypeError, ValueError) as e:
            raise ValueError(f"config key {section}.{key}: {e}") from None
    return out


def _load_section(section: str, d: dict, cls):
    """Dataclass ``cls`` from config section ``d``: absent keys take the
    field defaults, which every field has, and values are coerced to the
    types of those defaults."""
    return cls(**_coerce(section, d, {f.name: f.default for f in fields(cls)}))


def _build_builtin_model(shape: dict, symmetry: SymmetryDescriptor) -> ObjectModel:
    kind = shape.get("kind", "box")
    if kind not in _BUILTIN_SHAPES:
        raise ValueError(f"unknown builtin model kind {kind!r}")
    build, defaults = _BUILTIN_SHAPES[kind]
    params = {k: v for k, v in shape.items() if k not in ("kind", "name")}
    params = dict(defaults, **_coerce("object.builtin", params, defaults))
    return ObjectModel(shape.get("name", kind), build(**params), symmetry)


def load_config(path) -> Config:
    """Parse and validate the JSON config; referenced files must exist.

    Every section but ``object`` is read into the dataclass of the
    matching Config field. An unknown key anywhere raises ValueError.
    """
    with open(path) as f:
        raw = json.load(f)
    _check_keys("", raw, ["object", *_SECTIONS])
    obj = raw.get("object", {})
    _check_keys("object", obj, ("model_path", "name", "builtin", "symmetry"))
    symmetry = _load_section("object.symmetry", obj.get("symmetry", {}), SymmetryDescriptor)
    if "model_path" in obj:
        model_path = obj["model_path"]
        if not os.path.isabs(model_path):
            model_path = os.path.join(os.path.dirname(os.path.abspath(path)), model_path)
        if not os.path.exists(model_path):
            raise FileNotFoundError(f"object model file not found: {model_path}")
        pts, _ = load_ply(model_path)
        model = ObjectModel(obj.get("name", os.path.basename(model_path)), pts, symmetry)
    elif "builtin" in obj:
        model = _build_builtin_model(obj["builtin"], symmetry)
    else:
        raise ValueError("config object section needs 'model_path' or 'builtin'")
    return Config(model=model, **{name: _load_section(name, raw.get(name, {}), cls)
                                  for name, cls in _SECTIONS.items()})
