"""Workload profiles, seeded instance files and the checked CLI operation.

Instances are drawn with public cpdilate names only, so a refactor of the
library's private helpers cannot break the benchmark.  Every operation is
one in-process ``cpdilate.cli.main`` call on an instance file, and every
report it writes is checked.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from cpdilate import (apply, build_context, coordinate_basis,
                      dilation_from_extension, dual_map, extend_cp_map,
                      make_algebra, represent, state_value, verify_dilation,
                      weak_tensor_dilation)
from cpdilate.cli import main as cli_main
from cpdilate.dilation import VERIFY_TOL
from cpdilate.duality import dual_pairing_residual
from cpdilate.instancefile import load_instance, matrix_to_json, vector_to_json
from cpdilate.sampling import random_unit_vector, random_unital_cp_map

POOL_SIZE = 24
MAX_DRAWS = 50
FAITHFUL_FLOOR = 1e-8


@dataclass(frozen=True)
class Profile:
    """A CLI command and the fixed (dim, mult) blocks of A and B."""

    command: str
    source: tuple
    target: tuple
    covariant: bool  # the instance carries a covariant bi-cyclic context


PROFILES = {
    "dilate-full": Profile("dilate", ((3, 1),), ((3, 1),), covariant=False),
    "dual-commutant": Profile("dual", ((3, 3),), ((1, 3), (1, 3)),
                              covariant=True),
    "roundtrip-extension": Profile("roundtrip", ((2, 2), (1, 1)),
                                   ((1, 3), (1, 1), (1, 1), (1, 1)),
                                   covariant=True),
}


def covariant_partner(s, g):
    """Unit vector f with φ_f = φ_g∘S, or None when φ_g∘S is not faithful.

    On each square block (d, d) of A the density ρ of φ_g∘S gives the
    block of f as the d×d matrix √ρ, which is cyclic for the block exactly
    when ρ has full rank.
    """
    omega = [state_value(g, represent(apply(s, a)))
             for a in coordinate_basis(s.source)]
    parts, pos = [], 0
    for d, mult in s.source.blocks:
        if mult != d:
            raise ValueError("covariant profiles need square blocks on A")
        # φ(E_uv) = ρ_vu, and the coordinates run row-major over (u, v).
        rho = np.array(omega[pos:pos + d * d]).reshape(d, d).T
        pos += d * d
        w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
        if w[0] <= FAITHFUL_FLOOR:
            return None
        parts.append(((v * np.sqrt(w)) @ v.conj().T).reshape(-1))
    f = np.concatenate(parts)
    return f / np.linalg.norm(f)


def _algebra_json(blocks):
    return {"blocks": [{"dim": d, "mult": m} for d, m in blocks]}


def draw_instance(profile, rng):
    """One instance as a dict, and the number of draws discarded first."""
    a_alg = make_algebra(profile.source)
    b_alg = make_algebra(profile.target)
    for discarded in range(MAX_DRAWS):
        s = random_unital_cp_map(rng, a_alg, b_alg)
        raw = {"schema": 1,
               "algebras": {"A": _algebra_json(profile.source),
                            "B": _algebra_json(profile.target)},
               "cp_maps": {"S": {"from": "A", "to": "B",
                                 "action": matrix_to_json(s.action)}}}
        if not profile.covariant:
            return raw, discarded
        g = random_unit_vector(rng, b_alg.ambient_dim)
        f = covariant_partner(s, g)
        if f is None:
            continue
        ctx = build_context(a_alg, b_alg, s, f, g)
        if not (ctx.covariant and ctx.f_cyclic_for_source
                and ctx.g_cyclic_for_target_commutant):
            continue
        raw["states"] = {"f": {"space": "A", "vector": vector_to_json(f)},
                         "g": {"space": "B", "vector": vector_to_json(g)}}
        raw["contexts"] = {"c": {"map": "S", "f": "f", "g": "g"}}
        return raw, discarded
    raise RuntimeError(f"no usable instance in {MAX_DRAWS} draws")


@dataclass(frozen=True)
class InstanceFile:
    path: str
    sha256: str
    discarded: int


def write_pool(profile, seed, directory, size=POOL_SIZE):
    """Write ``size`` instance files drawn from ``seed``; instance i draws
    from its own child seed, so it does not depend on the others' retries."""
    pool = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(size)):
        raw, discarded = draw_instance(profile, np.random.default_rng(child))
        text = json.dumps(raw, sort_keys=True).encode()
        path = os.path.join(directory, f"instance-{i}.json")
        with open(path, "wb") as fh:
            fh.write(text)
        pool.append(InstanceFile(path, hashlib.sha256(text).hexdigest(),
                                 discarded))
    return pool


def check_report(command, code, report):
    """Why an op's report does not certify it, or None when it does."""
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no readable report"
    if report.get("command") != command:
        return f"report is for command {report.get('command')!r}"
    stages = report.get("stages", [])
    if not stages:
        return "report has no stages"
    failing = [stage.get("name") for stage in stages if stage.get("pass") is not True]
    if failing or report.get("pass") is not True:
        return f"report fails stages {failing}"
    return None


@dataclass(frozen=True)
class OpRecord:
    latency: float
    failure: str | None  # None when the op is certified


class ClosedLoop:
    """One client sending the next op only after the last one returned.

    Ops cycle over the instance pool.  Beyond the report's own verdict, an
    op fails when its report bytes differ from the first report written for
    the same instance, since reports are deterministic.
    """

    def __init__(self, command, pool, work_dir):
        self.command = command
        self.pool = pool
        self.report_path = os.path.join(work_dir, "report.json")
        self.records = []
        self.first_reports = {}   # pool index -> (sha256, parsed report)
        self._next = 0

    def op(self, index=None):
        """One op on pool entry ``index``, by default the next in turn."""
        if index is None:
            index = self._next % len(self.pool)
            self._next += 1
        record = self._run(index)
        self.records.append(record)
        return record

    def run_for(self, seconds):
        """Issue ops until ``seconds`` have passed; returns the new records
        and the elapsed time."""
        first = len(self.records)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.op()
        return self.records[first:], time.perf_counter() - start

    def _run(self, index):
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        argv = [self.command, "--input", self.pool[index].path,
                "--output", self.report_path]
        start = time.perf_counter()
        try:
            code = cli_main(argv)
        except (Exception, SystemExit) as exc:  # a crashing op fails, the run goes on
            return OpRecord(time.perf_counter() - start,
                            f"raised {type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        report, digest = None, None
        if os.path.exists(self.report_path):
            with open(self.report_path, "rb") as fh:
                text = fh.read()
            digest = hashlib.sha256(text).hexdigest()
            try:
                report = json.loads(text)
            except json.JSONDecodeError:
                report = None
        failure = check_report(self.command, code, report)
        if report is None:
            return OpRecord(latency, failure)
        first_digest, _ = self.first_reports.setdefault(index, (digest, report))
        if failure is None and digest != first_digest:
            failure = "report differs from the first report of this instance"
        return OpRecord(latency, failure)


def cross_check(profile, instance_path, report):
    """Compare a CLI report with direct library calls on the same instance.

    Returns a list of mismatches: dims that differ from the library's, or a
    re-run certificate above its tolerance.
    """
    instance = load_instance(instance_path)
    s = instance.cp_map("S")
    dims = report.get("dims", {})
    problems = []

    def expect(key, library_value):
        if dims.get(key) != library_value:
            problems.append(f"{key}: report {dims.get(key)!r}, library {library_value!r}")

    def certified(what, residual, tol=VERIFY_TOL):
        if not residual <= tol:
            problems.append(f"{what} residual {residual:.3e} above {tol:.1e}")

    if profile.command == "dilate":
        d = weak_tensor_dilation(s)
        expect("H_dim", d.gns_data.h_dim)
        expect("K_dim", d.k_dim)
        expect("module_dim", int(d.gns_data.module_basis.shape[0]))
        certified("verify_dilation", verify_dilation(d).max_residual)
        return problems

    ctx = build_context(s.source, s.target, s, instance.states["f"][1],
                        instance.states["g"][1])
    if profile.command == "dual":
        s_prime = dual_map(ctx)
        expect("source_commutant_coords", s_prime.source.coord_dim)
        expect("target_commutant_coords", s_prime.target.coord_dim)
        certified("dual pairing", dual_pairing_residual(ctx, s_prime))
    else:
        ext = extend_cp_map(ctx)
        d_back = dilation_from_extension(ctx, ext.cpmap)
        expect("L_forward", ext.l_dim)
        expect("L_back", d_back.k_dim)
        certified("verify_dilation of the recovered dilation",
                  verify_dilation(d_back).max_residual)
    return problems
