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
from .numerics import DEFAULT_TOL, GOLDEN_TOL, IDENTITY_FLOOR, RESIDUAL_FLOOR

SCHEMA_VERSION = 1
# Default tolerance of each checked stage; a file's "tolerances" may override them.
STAGE_TOLERANCES = {"construct": DEFAULT_TOL, "verify": RESIDUAL_FLOOR,
                    "golden": GOLDEN_TOL, "roundtrip": IDENTITY_FLOOR}
# What parsing raises on an entry of the wrong type or shape, or a missing key.
MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def _complex_from_pair(pair):
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise InputError(f"expected a [re, im] pair, got {pair!r}")
    z = complex(float(pair[0]), float(pair[1]))
    if not np.isfinite(z):
        raise InputError(f"expected a finite [re, im] pair, got {pair!r}")
    return z


def _vector_from_json(entries) -> np.ndarray:
    return np.array([_complex_from_pair(p) for p in entries],
                    dtype=np.complex128)


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([_vector_from_json(row) for row in rows])


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
        tolerances = raw.get("tolerances", {})
        self.tolerances = {key: float(tolerances[key])
                           for key in STAGE_TOLERANCES if key in tolerances}
        if not all(0.0 <= tol < np.inf for tol in self.tolerances.values()):
            raise InputError(f"stage tolerances must be finite and >= 0, "
                             f"got {self.tolerances}")
        self.algebras = {}
        for name, spec in raw.get("algebras", {}).items():
            self.algebras[name] = make_algebra(
                [(b["dim"], b["mult"]) for b in spec["blocks"]])
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
            self.cp_maps[name] = make_cpmap(self.algebras[src], self.algebras[tgt],
                                            _matrix_from_json(spec["action"]))
        self.contexts = {}
        for name, spec in raw.get("contexts", {}).items():
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

    def named(self, table: str, name: str | None, flag: str):
        """(name, entry) of the ``cp_maps`` or ``contexts`` table; with no
        name, its only entry, else the CLI ``flag`` must name one."""
        entries = getattr(self, table)
        if name is None:
            if not entries:
                raise InputError(f"instance has no {table}")
            if len(entries) != 1:
                raise InputError(f"instance has several {table}; name one with {flag}")
            name = next(iter(entries))
        if name not in entries:
            raise InputError(f"unknown {table[:-1]} {name!r}")
        return name, entries[name]

    def cp_map(self, name: str) -> CPMap:
        return self.named("cp_maps", name, "--map")[1]

    def seed_elements(self, name: str, map_name: str, gns_data):
        """Materialize a named seed of the map ``map_name`` as operators
        G → H via Σ ρ(a_k)·ξ·b_k.  A seed declared for another map is an
        input error."""
        from .vnmodule import module_element
        if name not in self.seeds:
            raise InputError(f"unknown seed {name!r}")
        spec = self.seeds[name]
        s = gns_data.cpmap
        out = []
        try:
            if spec.get("map", map_name) != map_name:
                raise InputError(f"seed {name!r} is declared for map {spec['map']!r}, "
                                 f"not for map {map_name!r}")
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
        except MALFORMED as exc:
            raise InputError(f"seed {name!r}: {type(exc).__name__}: {exc}") from exc
        return out


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from exc
    try:
        return Instance(raw)
    except MALFORMED as exc:
        raise InputError(f"malformed instance file {path}: "
                         f"{type(exc).__name__}: {exc}") from exc


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
