"""Command-line front end.

Commands: dilate | dual | extend | roundtrip | paper-example | verify.
Instances come from a JSON file (--input), from the embedded worked
example (--builtin), or from the random generators (--random, at most
--dims ambient dimensions, 2 to 64, seeded by --rng-seed).  Reports are
deterministic JSON byte streams; wall-clock timings are only included
with --timings since they vary between runs.

Every command takes --output (write the JSON report to a file), --json
(print the report instead of a summary) and --tol (scale all stage
tolerances).  The other flags, by command:

    dilate          --input --builtin --random --dims --rng-seed --timings
                    --emit-matrices --map --seed-qons
    dual, extend    --input --builtin --random --dims --rng-seed --timings
                    --emit-matrices --context
    roundtrip       --input --builtin --random --dims --rng-seed --timings
                    --context
    paper-example   --timings --no-seed  (always the worked example)
    verify          --input --builtin

Exit codes: 0 pass, 1 input/parse error, 2 verification failure.  A usage
error (an unknown command or flag, or a malformed value) exits 2 through
argparse's SystemExit before any stage runs.
"""

import argparse
import contextlib
import functools
import sys
import time

import numpy as np

from . import sampling
from .algebra import AMBIENT_CAP, element
from .cpmap import apply
from .dilation import weak_tensor_dilation
from .duality import (HYPOTHESES, build_context, dilation_from_extension,
                      double_dual, dual_map, dual_pairing_residual,
                      extend_cp_map, extension_from_dilation,
                      is_minimal_dilation, state_transport_residual)
from .errors import CpdilateError, InputError
from .instancefile import (STAGE_TOLERANCES, Instance, dump_report,
                           load_instance, matrix_to_json)
from .vnmodule import gns, inner_product, module_element, qons

INV_SQRT2 = 1.0 / np.sqrt(2.0)

BUILTIN_EXAMPLE = {
    "schema": 1,
    "algebras": {
        "A": {"blocks": [{"dim": 1, "mult": 1}, {"dim": 1, "mult": 1}]},
        "B": {"blocks": [{"dim": 1, "mult": 1}, {"dim": 1, "mult": 1}]},
    },
    "states": {
        "f": {"space": "A", "vector": [[INV_SQRT2, 0.0], [INV_SQRT2, 0.0]]},
        "g": {"space": "B", "vector": [[INV_SQRT2, 0.0], [INV_SQRT2, 0.0]]},
    },
    "cp_maps": {
        "S": {"from": "A", "to": "B",
              "action": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]},
    },
    "contexts": {
        "uniform": {"map": "S", "f": "f", "g": "g"},
    },
    "seeds": {
        "standard": {"map": "S", "elements": [
            {"terms": [{"a": [[[1.0, 0.0]], [[1.0, 0.0]]],
                        "b": [[[1.0, 0.0]], [[1.0, 0.0]]]}]},
            {"terms": [{"a": [[[1.0, 0.0]], [[-1.0, 0.0]]],
                        "b": [[[1.0, 0.0]], [[0.0, 0.0]]]}]},
            {"terms": [{"a": [[[1.0, 0.0]], [[-1.0, 0.0]]],
                        "b": [[[0.0, 0.0]], [[1.0, 0.0]]]}]},
        ]},
    },
}

def builtin_instance() -> Instance:
    return Instance(BUILTIN_EXAMPLE)


class _Timer:
    def __init__(self):
        self.stages = {}

    @contextlib.contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        yield
        self.stages[name] = time.perf_counter() - t0


def _tolerances(instance: Instance | None, factor: float) -> dict:
    tols = {**STAGE_TOLERANCES, **(instance.tolerances if instance else {})}
    return {k: v * factor for k, v in tols.items()}


def _resolve_instance(args) -> Instance | None:
    if args.builtin:
        return builtin_instance()
    if args.input:
        return load_instance(args.input)
    if getattr(args, "random", False):
        return None
    raise InputError("no instance given; use --input, --builtin or --random")


def _emit(report: dict, args) -> None:
    text = dump_report(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json or not args.output:
        sys.stdout.write(text if args.json else _summary(report))


def _summary(report: dict) -> str:
    lines = [f"command: {report.get('command')}"]
    for stage in report.get("stages", []):
        status = "pass" if stage.get("pass") else "FAIL"
        worst = stage.get("max_residual")
        extra = f" (max residual {worst:.3e})" if isinstance(worst, float) else ""
        lines.append(f"  [{status}] {stage['name']}{extra}")
    lines.append("result: " + ("PASS" if report.get("pass") else "FAIL"))
    return "\n".join(lines) + "\n"


def _stage(name: str, residuals: dict, tol: float, **extra) -> dict:
    worst = max(residuals.values()) if residuals else 0.0
    stage = {"name": name, "residuals": residuals, "max_residual": worst,
             "tolerance": tol, "pass": worst <= tol}
    stage.update(extra)
    return stage


def _run(args, build) -> int:
    """Run one command: resolve its instance and tolerances, add the
    command's own report fields, emit the report and return 0 when it
    passes, 2 when it does not.

    ``build(args, instance, tols, timer)`` returns the command's fields,
    including ``stages``; its ``pass`` defaults to all stages passing.
    """
    instance = _resolve_instance(args)
    tols = _tolerances(instance, args.tol)
    timer = _Timer()
    report = {"schema": 1, "command": args.command, "tolerances": tols,
              **build(args, instance, tols, timer)}
    report.setdefault("pass", all(stage["pass"] for stage in report["stages"]))
    if getattr(args, "timings", False):
        report["timings"] = timer.stages
    _emit(report, args)
    return 0 if report["pass"] else 2


def _random_dilation_instance(args):
    rng = np.random.default_rng(args.rng_seed)
    a_alg = sampling.random_standard_algebra(rng, args.dims)
    b_alg = sampling.random_standard_algebra(rng, args.dims)
    return sampling.random_unital_cp_map(rng, a_alg, b_alg)


def cmd_dilate(args, instance, tols, timer) -> dict:
    data = None
    seed = None
    if instance is None:
        s = _random_dilation_instance(args)
        map_name = "random"
    else:
        map_name, s = instance.named("cp_maps", args.map, "--map")
        if args.seed_qons:
            with timer.stage("gns"):
                data = gns(s, tols["construct"])
            seed = instance.seed_elements(args.seed_qons, map_name, data)
    with timer.stage("dilate"):
        d = weak_tensor_dilation(s, seed_qons=seed, tol=tols["construct"],
                                 data=data)
    fields = {
        "map": map_name,
        "dims": {"H_dim": d.gns_data.h_dim, "K_dim": d.k_dim,
                 "module_dim": d.gns_data.module_dim},
        "stages": [_stage("dilation-certificate", d.certificate.as_dict(),
                          tols["verify"])],
    }
    if args.emit_matrices:
        fields["matrices"] = {
            "p_I": matrix_to_json(d.p_i_matrix),
            "j_on_basis": [matrix_to_json(m) for m in d.j_ops],
        }
    return fields


def _instance_context(instance: Instance, spec: dict, tols):
    s = instance.cp_map(spec["map"])
    f = instance.states[spec["f"]][1]
    g = instance.states[spec["g"]][1]
    return build_context(s.source, s.target, s, f, g, tols["construct"])


def _hypothesis_failures(ctx) -> list:
    """One failing stage per standing hypothesis that does not hold, named
    "covariance" or "cyclicity"."""
    stages = []
    for flag, (_, message) in HYPOTHESES.items():
        if getattr(ctx, flag):
            continue
        stage = {"name": "cyclicity", "pass": False, "message": message,
                 "residuals": {}}
        if flag == "covariant":
            stage.update(name="covariance", max_residual=ctx.covariance_residual,
                         residuals={"covariance": ctx.covariance_residual})
        stages.append(stage)
    return stages


def _with_context(body):
    """Command builder for a duality context.  The body runs as
    ``body(args, ctx, tols, timer)`` only when every standing hypothesis
    holds; otherwise the report lists the failed ones and does not pass."""
    def build(args, instance, tols, timer):
        if instance is None:
            rng = np.random.default_rng(args.rng_seed)
            ctx, name = sampling.random_covariant_context(rng, args.dims), "random"
        else:
            name, spec = instance.named("contexts", args.context, "--context")
            ctx = _instance_context(instance, spec, tols)
        failures = _hypothesis_failures(ctx)
        if failures:
            return {"context": name, "stages": failures}
        return {"context": name, **body(args, ctx, tols, timer)}
    return build


def cmd_dual(args, ctx, tols, timer) -> dict:
    with timer.stage("dual"):
        s_prime = dual_map(ctx, tols["construct"])
    residuals = {
        "pairing": dual_pairing_residual(ctx, s_prime),
        "state_transport": state_transport_residual(ctx, s_prime),
    }
    with timer.stage("double-dual"):
        _, residuals["double_dual_distance"] = double_dual(
            ctx, s_prime, tols["construct"])
    fields = {
        "dims": {"source_commutant_coords": ctx.target_commutant.coord_dim,
                 "target_commutant_coords": ctx.source_commutant.coord_dim},
        "stages": [_stage("dual-map", residuals, tols["verify"])],
    }
    if args.emit_matrices:
        fields["matrices"] = {"dual_action": matrix_to_json(s_prime.action)}
    return fields


def cmd_extend(args, ctx, tols, timer) -> dict:
    with timer.stage("extend"):
        ext = extend_cp_map(ctx, tols["construct"])
    residuals = {
        "restriction": ext.restriction_residual,
        "state_transport": ext.covariance_residual,
        "kraus_reconstruction": ext.kraus.reconstruction_residual,
        "unitality": ext.kraus.completeness_residual,
        "choi_negativity": max(0.0, -ext.cpmap.choi_min_eigenvalue),
    }
    stage = _stage("extension", residuals, tols["verify"],
                   is_cp=ext.cpmap.is_cp, is_unital=ext.cpmap.is_unital)
    fields = {
        "dims": {"L_dim": ext.l_dim},
        "stages": [stage],
        "pass": stage["pass"] and ext.cpmap.is_cp and ext.cpmap.is_unital,
    }
    if args.emit_matrices:
        fields["matrices"] = {"extension_action": matrix_to_json(ext.cpmap.action)}
    return fields


def cmd_roundtrip(args, ctx, tols, timer) -> dict:
    with timer.stage("pipeline"):
        data = gns(ctx.cpmap, tols["construct"])
        s_prime = dual_map(ctx, tols["construct"], data)
        d_prime = weak_tensor_dilation(s_prime, tol=tols["construct"])
        ext = extension_from_dilation(ctx, d_prime, tols["construct"])
    with timer.stage("back"):
        d_back = dilation_from_extension(ctx, ext, tols["construct"],
                                         s_prime=s_prime, data=data)
        ext_back = extension_from_dilation(ctx, d_back, tols["construct"])
    choi_distance = float(np.linalg.norm(
        ext_back.cpmap.choi_blocks[0] - ext.cpmap.choi_blocks[0]))
    residuals = {
        "choi_roundtrip": choi_distance,
        "recovered_certificate": d_back.certificate.max_residual,
    }
    dims_match = d_back.k_dim == ext.kraus.l_dim
    stage = _stage("roundtrip", residuals, tols["roundtrip"],
                   minimal=is_minimal_dilation(d_back, d_prime.gns_data,
                                               tols["construct"]),
                   l_dims_match=dims_match)
    return {"dims": {"L_forward": ext.l_dim, "L_back": d_back.k_dim},
            "stages": [stage], "pass": stage["pass"] and dims_match}


def cmd_paper_example(args, instance, tols, timer) -> dict:
    """Full reproduction of the embedded worked example."""
    golden_tol = tols["golden"]
    s = instance.cp_map("S")
    stages = []

    with timer.stage("gns"):
        data = gns(s, tols["construct"])
    # Gram of {p_i ⊗ e_j} is one-half times the identity on four dimensions.
    gram_residual = 0.0 if data.h_dim == 4 else 1.0
    gram_residual = max(gram_residual,
                        float(np.max(np.abs(data.gram_eigenvalues - 0.5))))
    stages.append(_stage("gns-gram", {"gram": gram_residual}, golden_tol,
                         H_dim=data.h_dim))

    # inner-product formula <x,y> = p1 S(x1* y1) + p2 S(x2* y2)
    a_alg, b_alg = s.source, s.target
    rng = np.random.default_rng(0)
    formula_residual = 0.0
    for _ in range(4):
        xs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x1 = element(a_alg, [np.array([[xs[0]]]), np.array([[xs[1]]])])
        x2 = element(a_alg, [np.array([[xs[2]]]), np.array([[xs[3]]])])
        y1 = element(a_alg, [np.array([[xs[3]]]), np.array([[xs[0]]])])
        y2 = element(a_alg, [np.array([[xs[1]]]), np.array([[xs[2]]])])
        p1 = element(b_alg, [np.array([[1.0]]), np.array([[0.0]])])
        p2 = element(b_alg, [np.array([[0.0]]), np.array([[1.0]])])
        x = module_element(data, x1, p1) + module_element(data, x2, p2)
        y = module_element(data, y1, p1) + module_element(data, y2, p2)
        got = inner_product(data, x, y, tols["construct"])
        expected = p1 @ apply(s, x1.adjoint() @ y1) + p2 @ apply(s, x2.adjoint() @ y2)
        formula_residual = max(formula_residual, (got - expected).norm())
    stages.append(_stage("inner-product-formula",
                         {"formula": formula_residual}, golden_tol))

    seed = None
    if not args.no_seed:
        seed = instance.seed_elements("standard", "S", data)
    with timer.stage("qons"):
        system = qons(data, seed, tols["construct"])
    qons_res = {"relations": system.relation_residual,
                "completeness": system.completeness_residual}
    if not args.no_seed:
        p_expected = [np.array([1.0, 1.0]), np.array([1.0, 0.0]),
                      np.array([0.0, 1.0])]
        proj_res = 0.0
        for p, expected in zip(system.projections, p_expected, strict=True):
            got = np.array([p.block_matrices[0][0, 0].real,
                            p.block_matrices[1][0, 0].real])
            proj_res = max(proj_res, float(np.max(np.abs(got - expected))))
        qons_res["projections"] = proj_res
    stages.append(_stage("qons", qons_res, golden_tol, size=len(system)))

    with timer.stage("dilate"):
        d = weak_tensor_dilation(s, seed_qons=seed, tol=tols["construct"])
    dil_res = dict(d.certificate.as_dict())
    if not args.no_seed:
        p_i_expected = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 1.0]).astype(complex)
        dil_res["p_I_golden"] = float(np.max(np.abs(d.p_i_matrix - p_i_expected)))
        golden = 0.0
        corner = 0.0
        for a1, a2 in [(1.0, 0.0), (0.0, 1.0), (0.75, -0.25)]:
            a = element(a_alg, [np.array([[a1]]), np.array([[a2]])])
            got = d.j(a)
            expected = _expected_worked_matrix(a1, a2)
            golden = max(golden, float(np.max(np.abs(got - expected))))
            block_10 = got.reshape(3, 2, 3, 2)[1, :, 0, :]
            corner = max(corner, float(np.max(np.abs(
                block_10 - 0.5 * (a1 - a2) * np.diag([1.0, 0.0])))))
        dil_res["j_golden"] = golden
        dil_res["j_block_10"] = corner
    else:
        dil_res["note_matrix_equality_skipped"] = 0.0
    stages.append(_stage("dilation", dil_res, golden_tol, K_dim=d.k_dim))

    fields = {"seeded": not args.no_seed, "stages": stages}
    if args.no_seed:
        fields["note"] = "matrix-equality checks skipped without the seed"
    return fields


def _expected_worked_matrix(a1: float, a2: float) -> np.ndarray:
    s = 0.5 * (a1 + a2)
    t = 0.5 * (a1 - a2)
    p1 = np.diag([1.0, 0.0])
    p2 = np.diag([0.0, 1.0])
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    return np.block([[s * eye, t * p1, t * p2],
                     [t * p1, s * p1, zero],
                     [t * p2, zero, s * p2]]).astype(complex)


def cmd_verify(args, instance, tols, timer) -> dict:
    stages = []
    for name, s in instance.cp_maps.items():
        stages.append({"name": f"cp_map:{name}", "is_cp": s.is_cp,
                       "is_unital": s.is_unital,
                       "choi_min_eigenvalue": s.choi_min_eigenvalue,
                       "residuals": {}, "pass": bool(s.is_cp)})
    for name, spec in instance.contexts.items():
        ctx = _instance_context(instance, spec, tols)
        messages = [stage["message"] for stage in _hypothesis_failures(ctx)]
        stages.append({"name": f"context:{name}",
                       "residuals": {"covariance": ctx.covariance_residual},
                       "covariant": ctx.covariant,
                       "f_cyclic_for_A": ctx.f_cyclic_for_source,
                       "g_cyclic_for_B_commutant": ctx.g_cyclic_for_target_commutant,
                       "messages": messages, "pass": not messages})
    return {"stages": stages}


def _bounded(cast, low, high, expected: str):
    """argparse type of a value ``cast(text)`` from ``low`` to ``high``."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = np.nan
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


# argparse keyword arguments of every flag.
OPTIONS = {
    "--input": {"help": "instance file (JSON)"},
    "--builtin": {"action": "store_true",
                  "help": "use the embedded worked example instance"},
    "--output": {"help": "write the JSON report to a file"},
    "--json": {"action": "store_true", "help": "print the JSON report to stdout"},
    "--tol": {"type": _bounded(float, 0.0, sys.float_info.max,
                               "a finite value >= 0"), "default": 1.0,
              "help": "scale factor applied to all stage tolerances"},
    "--timings": {"action": "store_true",
                  "help": "include wall-clock timings (non-deterministic)"},
    "--emit-matrices": {"action": "store_true",
                        "help": "include result matrices in the report"},
    "--random": {"action": "store_true", "help": "generate a random instance"},
    "--dims": {"type": _bounded(int, 2, AMBIENT_CAP,
                                f"an integer from 2 to {AMBIENT_CAP}"),
               "default": 4,
               "help": "maximum ambient dimension for --random"},
    "--rng-seed": {"type": int, "default": 0, "help": "seed for --random"},
    "--map": {"help": "name of the CP map in the instance file"},
    "--seed-qons": {"help": "name of a seed family in the instance file"},
    "--context": {"help": "name of the context in the instance file"},
    "--no-seed": {"action": "store_true",
                  "help": "run with the default seed; skip matrix-equality checks"},
}
REPORT_FLAGS = ("--output", "--json", "--tol")
# Flags of the commands that run on a file, the worked example or a random
# instance and time their stages.
PIPELINE_FLAGS = ("--input", "--builtin", "--random", "--dims", "--rng-seed",
                  "--timings")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cpdilate",
        description="weak tensor dilations and covariant extensions of CP maps")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("dilate", "construct and verify a weak tensor dilation", cmd_dilate,
         PIPELINE_FLAGS + ("--emit-matrices", "--map", "--seed-qons")),
        ("dual", "compute and verify the dual CP map", _with_context(cmd_dual),
         PIPELINE_FLAGS + ("--emit-matrices", "--context")),
        ("extend", "extend a CP map to the full algebras",
         _with_context(cmd_extend),
         PIPELINE_FLAGS + ("--emit-matrices", "--context")),
        ("roundtrip", "extension/dilation round trips",
         _with_context(cmd_roundtrip), PIPELINE_FLAGS + ("--context",)),
        ("paper-example", "reproduce the embedded worked example end to end",
         cmd_paper_example, ("--timings", "--no-seed")),
        ("verify", "validate an instance file and its flags", cmd_verify,
         ("--input", "--builtin")),
    )
    for name, help_text, build, flags in commands:
        p = sub.add_parser(name, help=help_text)
        for flag in flags + REPORT_FLAGS:
            p.add_argument(flag, **OPTIONS[flag])
        p.set_defaults(build=build)
    sub.choices["paper-example"].set_defaults(builtin=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args, args.build)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except CpdilateError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
