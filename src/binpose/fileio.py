"""File formats and configuration.

Everything is ASCII for diff-ability: PLY scene clouds with an optional
per-point instance id, CSV per-point predictions, JSON poses / scene
sidecars / reports, and a single JSON config with one section per
subsystem. Floats are written with shortest round-trip repr, so a
load/save cycle is byte identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .cluster import ClusterParams, PerPointPrediction
from .metrics import EvalConfig, EvalReport
from .so3 import Pose, SymmetryDescriptor
from .synth import (ObjectModel, OracleParams, SceneGenParams, box_cloud,
                    cylinder_cloud, rod_model, sphere_cloud)

SCHEMA_VERSION = 1


class PlyParseError(ValueError):
    """A malformed line of an ASCII input, PLY or prediction CSV; the
    message starts with its 1-based line number."""

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
            f.write("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in pts.tolist()))
        else:
            ids = np.asarray(instance_ids, dtype=int).reshape(-1)
            if ids.shape[0] != pts.shape[0]:
                raise ValueError("instance_ids length must match point count")
            f.write("".join(f"{x!r} {y!r} {z!r} {i}\n"
                            for (x, y, z), i in zip(pts.tolist(), ids.tolist())))


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
            if len(tok) < 3:
                raise PlyParseError("expected 'element <name> <count>'", ln)
            if tok[1] != "vertex":
                raise PlyParseError(f"unsupported element '{tok[1]}'", ln)
            try:
                n_vertex = int(tok[2])
            except ValueError:
                raise PlyParseError(f"element count '{tok[2]}' is not an integer", ln) from None
            if n_vertex < 0:
                raise PlyParseError(f"element count {n_vertex} is negative", ln)
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

    body = lines[body_start:body_start + n_vertex]
    if len(body) < n_vertex:
        raise PlyParseError(
            f"expected {n_vertex} vertex rows, file ends after {len(body)}",
            body_start + len(body))
    need = 4 if with_ids else 3
    columns = [("xyz", float, 3)] + ([("id", int)] if with_ids else [])
    rows = _load_rows(body, dtype=columns, usecols=range(need), ndmin=1)
    if rows is not None:
        return (np.ascontiguousarray(rows["xyz"]),
                np.ascontiguousarray(rows["id"]) if with_ids else None)
    # the fast parse failed: scan for the first bad row
    pts = np.empty((n_vertex, 3))
    ids = np.empty(n_vertex, dtype=int) if with_ids else None
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


def _load_rows(rows: list[str], **kwargs) -> np.ndarray | None:
    """Parse every row in one ``np.loadtxt`` call (the same floats as
    ``float`` per value); None when a row fails to parse or is blank, so
    the caller can scan for it."""
    if not rows:
        return None
    try:
        data = np.loadtxt(rows, comments=None, **kwargs)
    except (ValueError, OverflowError):
        return None
    return data if data.shape[0] == len(rows) else None


# ---------------------------------------------------------------------------
# predictions CSV

PRED_HEADER = "x,y,z,cx,cy,cz,qw,qx,qy,qz"


def save_predictions_csv(path, pred: PerPointPrediction) -> None:
    with open(path, "w") as f:
        f.write(PRED_HEADER + "\n")
        rows = np.concatenate([pred.positions, pred.centroids, pred.quats], axis=1)
        f.write("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))


def load_predictions_csv(path) -> PerPointPrediction:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != PRED_HEADER:
        raise ValueError(f"prediction CSV must start with header '{PRED_HEADER}'")
    body = [ln for ln in lines[1:] if ln.strip()]
    data = _load_rows(body, delimiter=",", ndmin=2)
    if data is None:   # the fast parse failed: scan for the first bad row
        data = np.empty((len(body), 10))
        numbered = ((i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip())
        for row, (i, ln) in zip(data, numbered):
            values = ln.split(",")
            if len(values) != 10:
                raise PlyParseError(f"expected 10 values, got {len(values)}", i)
            try:
                row[:] = [float(v) for v in values]
            except ValueError as e:
                raise PlyParseError(str(e), i) from None
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


def _load_poses_payload(path, lists) -> tuple[dict, list[Pose]]:
    """The JSON object in ``path`` and its ``poses`` list read into
    Poses. A payload that is not an object holding a list under each key
    of ``lists``, or a bad pose, raises ValueError naming the file and
    the key."""
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {json.dumps(payload)[:60]}")
    for key in lists:
        if key not in payload:
            raise ValueError(f"{path}: missing key {key!r}")
        if not isinstance(payload[key], list):
            raise ValueError(f"{path}: key {key!r} must be a list")
    poses = []
    for i, d in enumerate(payload["poses"]):
        try:
            poses.append(Pose([d["qw"], d["qx"], d["qy"], d["qz"]], [d["tx"], d["ty"], d["tz"]]))
        except KeyError as e:
            raise ValueError(f"{path}: poses[{i}] is missing key {e}") from None
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: poses[{i}]: {e}") from None
    return payload, poses


def write_json(path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def save_poses_json(path, poses: list[Pose], member_counts) -> None:
    write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "poses": [_pose_to_dict(p, c) for p, c in zip(poses, member_counts)],
    })


def load_poses_json(path) -> tuple[list[Pose], list[int | None]]:
    payload, poses = _load_poses_payload(path, ("poses",))
    return poses, [d.get("member_count") for d in payload["poses"]]


def save_labels(path, labels) -> None:
    with open(path, "w") as f:
        for v in np.asarray(labels, dtype=int).reshape(-1):
            f.write(f"{int(v)}\n")


def load_labels(path) -> np.ndarray:
    with open(path) as f:
        return np.array([int(ln) for ln in f.read().split()], dtype=int)


def save_scene_json(path, poses: list[Pose], visible_counts, seed) -> None:
    write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "poses": [_pose_to_dict(p) for p in poses],
        "n_visible": [int(n) for n in visible_counts],
    })


def load_scene_json(path) -> dict:
    payload, poses = _load_poses_payload(path, ("poses", "n_visible"))
    if "seed" not in payload:
        raise ValueError(f"{path}: missing key 'seed'")
    if payload["seed"] is not None and type(payload["seed"]) is not int:
        raise ValueError(f"{path}: key 'seed' must be an integer or null, "
                         f"got {json.dumps(payload['seed'])}")
    for i, n in enumerate(payload["n_visible"]):
        if type(n) is not int or n < 0:   # a bool is an int to isinstance
            raise ValueError(f"{path}: n_visible[{i}] must be an integer >= 0, "
                             f"got {json.dumps(n)}")
    return dict(payload, poses=poses)


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


def _section(section: str, d) -> dict:
    """Config section ``d``, which must be a JSON object ("" is the top level)."""
    if not isinstance(d, dict):
        raise ValueError(f"config section {section or '(top level)'} must be a JSON "
                         f"object, got {json.dumps(d)}")
    return d


def _check_keys(section: str, d: dict, known) -> None:
    """Reject keys of config section ``d`` outside ``known``; the error
    names each one as section.key ("" is the top level)."""
    unknown = [f"{section}.{k}" if section else k
               for k in sorted(set(_section(section, d)) - set(known))]
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")


# a default's type -> the JSON values its key takes, and their name
_JSON_TYPES = {bool: ((bool,), "a boolean"), int: ((int, float), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string")}


def _convert(default, value):
    """JSON ``value`` as the type of ``default``, which it must have, as
    bool(), int() and str() turn many a wrong value into a right one: a
    number key takes no boolean, an int key only an integral number, a
    tuple key a list of the default's length whose elements follow the
    same rule, and no key a NaN or infinity (which json.load accepts)."""
    if isinstance(default, tuple):
        if not isinstance(value, list) or len(value) != len(default):
            raise TypeError(f"expected a list of {len(default)} values, got {json.dumps(value)}")
        return tuple(_convert(d, v) for d, v in zip(default, value))
    if isinstance(value, float) and not math.isfinite(value):
        raise TypeError(f"{value} is not finite")
    accepted, name = _JSON_TYPES[type(default)]
    if (not isinstance(value, accepted) or isinstance(value, bool) != isinstance(default, bool)
            or (type(default) is int and value != int(value))):
        raise TypeError(f"expected {name}, got {json.dumps(value)}")
    return type(default)(value)


def _coerce(section: str, d: dict, defaults: dict) -> dict:
    """Config section ``d`` with each value converted by ``_convert`` to
    the type of its key's default."""
    _check_keys(section, d, defaults)
    out = {}
    for key, value in d.items():
        try:
            out[key] = _convert(defaults[key], value)
        except (TypeError, OverflowError) as e:
            raise ValueError(f"config key {section}.{key}: {e}") from None
    return out


def _load_section(section: str, d: dict, cls):
    """Dataclass ``cls`` from config section ``d``: absent keys take the
    field defaults, which every field has, and values are coerced to the
    types of those defaults."""
    return cls(**_coerce(section, d, {f.name: f.default for f in fields(cls)}))


def _builtin_points(shape: dict) -> tuple[str, np.ndarray]:
    """(kind, model points) of an ``object.builtin`` section."""
    shape = _section("object.builtin", shape)
    kind = _coerce("object.builtin", {"kind": shape.get("kind", "box")}, {"kind": ""})["kind"]
    if kind not in _BUILTIN_SHAPES:
        raise ValueError(f"unknown builtin model kind {kind!r}")
    build, defaults = _BUILTIN_SHAPES[kind]
    params = {k: v for k, v in shape.items() if k != "kind"}
    return kind, build(**dict(defaults, **_coerce("object.builtin", params, defaults)))


def load_config(path) -> Config:
    """Parse and validate the JSON config; referenced files must exist.

    Every section but ``object`` is read into the dataclass of the
    matching Config field. An unknown key, a value of the wrong JSON type
    or a non-finite one, or a section that is not a JSON object anywhere
    raises ValueError.
    """
    with open(path) as f:
        raw = json.load(f)
    _check_keys("", raw, ["object", *_SECTIONS])
    obj = raw.get("object", {})
    _check_keys("object", obj, ("model_path", "name", "builtin", "symmetry"))
    names = _coerce("object", {k: obj[k] for k in ("model_path", "name") if k in obj},
                    {"model_path": "", "name": ""})
    symmetry = _load_section("object.symmetry", obj.get("symmetry", {}), SymmetryDescriptor)
    if ("model_path" in obj) == ("builtin" in obj):
        raise ValueError("config object section needs exactly one of 'model_path' or 'builtin'")
    if "model_path" in obj:
        model_path = names["model_path"]
        if not os.path.isabs(model_path):
            model_path = os.path.join(os.path.dirname(os.path.abspath(path)), model_path)
        if not os.path.exists(model_path):
            raise FileNotFoundError(f"object model file not found: {model_path}")
        pts, _ = load_ply(model_path)
        default_name = os.path.basename(model_path)
    else:
        default_name, pts = _builtin_points(obj["builtin"])
    model = ObjectModel(names.get("name", default_name), pts, symmetry)
    return Config(model=model, **{name: _load_section(name, raw.get(name, {}), cls)
                                  for name, cls in _SECTIONS.items()})
