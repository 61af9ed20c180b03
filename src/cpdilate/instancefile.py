"""Instance file parsing and deterministic JSON serialization.

Schema (version 1): named algebras as block lists, states as vectors of
[re, im] pairs, CP maps as coordinate action matrices of [re, im] entries,
contexts tying a map to a covariant state pair, and optional QONS seeds
given as sums of elementary tensors a⊗b.  Complex scalars are always
[re, im]; matrices are row-major; block coordinates block-major.
"""

import json

import numpy as np

from .algebra import (AlgebraElement, MatrixBlockAlgebra, check_unit_vector,
                      element, make_algebra)
from .cpmap import CPMap, make_cpmap
from .errors import InputError

SCHEMA_VERSION = 1


def _complex_from_pair(pair):
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise InputError(f"expected a [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _vector_from_json(entries) -> np.ndarray:
    return np.array([_complex_from_pair(p) for p in entries],
                    dtype=np.complex128)


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[_complex_from_pair(p) for p in row] for row in rows],
                    dtype=np.complex128)


def _element_from_json(algebra: MatrixBlockAlgebra, blocks) -> AlgebraElement:
    if len(blocks) != algebra.block_count:
        raise InputError(f"element has {len(blocks)} blocks, algebra has "
                         f"{algebra.block_count}")
    mats = []
    for (d, _), flat in zip(algebra.blocks, blocks):
        vec = _vector_from_json(flat)
        if vec.size != d * d:
            raise InputError(f"block of dim {d} needs {d * d} entries, got {vec.size}")
        mats.append(vec.reshape(d, d))
    return element(algebra, mats)


def pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def vector_to_json(v) -> list:
    return [pair(z) for z in np.asarray(v).reshape(-1)]


def matrix_to_json(m) -> list:
    m = np.asarray(m)
    return [[pair(z) for z in row] for row in m]


class Instance:
    """Parsed instance file: named algebras, states, maps, contexts, seeds."""

    def __init__(self, raw: dict):
        if raw.get("schema") != SCHEMA_VERSION:
            raise InputError(f"unsupported schema {raw.get('schema')!r}, "
                             f"expected {SCHEMA_VERSION}")
        self.raw = raw
        self.tolerances = dict(raw.get("tolerances", {}))
        self.algebras = {}
        for name, spec in raw.get("algebras", {}).items():
            try:
                blocks = [(b["dim"], b["mult"]) for b in spec["blocks"]]
                self.algebras[name] = make_algebra(blocks)
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"algebra {name!r}: {exc}") from exc
        self.states = {}
        for name, spec in raw.get("states", {}).items():
            space = spec.get("space")
            if space not in self.algebras:
                raise InputError(f"state {name!r} references unknown space {space!r}")
            vec = _vector_from_json(spec["vector"])
            if vec.size != self.algebras[space].ambient_dim:
                raise InputError(f"state {name!r} has dim {vec.size}, space "
                                 f"{space!r} has {self.algebras[space].ambient_dim}")
            self.states[name] = (space, vec)
        self.cp_maps = {}
        for name, spec in raw.get("cp_maps", {}).items():
            src = spec.get("from")
            tgt = spec.get("to")
            if src not in self.algebras or tgt not in self.algebras:
                raise InputError(f"cp_map {name!r} references unknown algebras")
            action = _matrix_from_json(spec["action"])
            try:
                self.cp_maps[name] = make_cpmap(self.algebras[src],
                                                self.algebras[tgt], action)
            except ValueError as exc:
                raise InputError(f"cp_map {name!r}: {exc}") from exc
        self.contexts = {}
        for name, spec in raw.get("contexts", {}).items():
            for key in ("map", "f", "g"):
                if key not in spec:
                    raise InputError(f"context {name!r} is missing {key!r}")
            if spec["map"] not in self.cp_maps:
                raise InputError(f"context {name!r} references unknown map")
            if spec["f"] not in self.states or spec["g"] not in self.states:
                raise InputError(f"context {name!r} references unknown states")
            s = self.cp_maps[spec["map"]]
            for key, side, space in (("f", "source", s.source),
                                     ("g", "target", s.target)):
                vec = self.states[spec[key]][1]
                if vec.size != space.ambient_dim:
                    raise InputError(
                        f"context {name!r}: state {key} has dim {vec.size}, "
                        f"the map's {side} acts on dim {space.ambient_dim}")
                try:
                    check_unit_vector(vec)
                except ValueError as exc:
                    raise InputError(f"context {name!r}: state {key}: {exc}") from exc
            self.contexts[name] = spec
        self.seeds = dict(raw.get("seeds", {}))

    def cp_map(self, name: str) -> CPMap:
        if name not in self.cp_maps:
            raise InputError(f"unknown cp_map {name!r}")
        return self.cp_maps[name]

    def only_map_name(self) -> str:
        if len(self.cp_maps) != 1:
            raise InputError("instance has several cp_maps; name one with --map")
        return next(iter(self.cp_maps))

    def only_context_name(self) -> str:
        if len(self.contexts) != 1:
            raise InputError("instance has several contexts; name one with --context")
        return next(iter(self.contexts))

    def seed_elements(self, name: str, gns_data):
        """Materialize a named seed as operators G → H via Σ ρ(a_k)·ξ·b_k."""
        from .vnmodule import module_element
        if name not in self.seeds:
            raise InputError(f"unknown seed {name!r}")
        spec = self.seeds[name]
        s = gns_data.cpmap
        out = []
        for entry in spec.get("elements", []):
            total = None
            for term in entry.get("terms", []):
                a = _element_from_json(s.source, term["a"])
                b = _element_from_json(s.target, term["b"])
                op = module_element(gns_data, a, b)
                total = op if total is None else total + op
            if total is None:
                raise InputError(f"seed {name!r} has an element with no terms")
            out.append(total)
        return out


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from exc
    return Instance(raw)


def jsonify(obj):
    """Convert numbers, numpy arrays and containers to JSON-ready values.

    Complex entries become [re, im]; floats keep 17 significant digits via
    the shortest round-trip repr, so identical inputs give identical bytes.
    """
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1:
            return vector_to_json(obj)
        if obj.ndim == 2:
            return matrix_to_json(obj)
        return [jsonify(part) for part in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return pair(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, str) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_report(report: dict) -> str:
    return json.dumps(jsonify(report), indent=2, sort_keys=True) + "\n"
