"""Checks that the benchmark's tools still fit the program they measure."""

import ast
import importlib.util
import inspect
import sys
from collections import Counter
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from protograph import cli, evaluation
from protograph.likelihood import MEASURES
from protograph.sampler import SamplerConfig
from protograph.trainer import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "protograph"


def load_benchmark_module(name):
    """A module of benchmarks/, loaded from its file."""
    path = ROOT / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracer = load_benchmark_module("tracer")
workloads = load_benchmark_module("workloads")
run = load_benchmark_module("run")


@pytest.mark.parametrize("owner, attr, name", tracer.SPAN_SITES + tracer.COUNT_SITES)
def test_every_traced_name_is_bound_in_its_owner(owner, attr, name):
    # the tracer patches vars(owner)[attr]; a name the owner no longer binds
    # (an import dropped as unused) would stop a traced benchmark run
    assert attr in vars(tracer._resolve(owner)), f"{owner}.{attr} ({name})"


def kept_imports():
    """(module, name) of every import in the package marked `# noqa: F401`."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                for alias in node.names:
                    yield f"protograph.{path.stem}", alias.asname or alias.name


def test_every_kept_import_is_a_traced_call_site():
    # an import kept only so that the tracer finds a call site must go once
    # the tracer no longer lists that site
    sites = {(owner, attr) for owner, attr, _ in tracer.SPAN_SITES + tracer.COUNT_SITES}
    kept = list(kept_imports())
    assert kept, "no kept import found: the scan is broken"
    assert [site for site in kept if site not in sites] == []


FILE_READS = {"open", "read_text", "read_bytes"}


def scopes_where(source: str, scope: str, matches) -> list[str]:
    """Dotted names of the functions (or modules) in ``source`` holding a
    node that ``matches``, once per such node, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if matches(child):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), scope)
    return found


def referenced_name(node) -> str | None:
    """The name a Name or Attribute node refers to."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def opens_to_write(call) -> bool:
    """Whether the call's mode, its second argument or ``mode=``, is a
    string that opens a file to write only ("w", "a" or "x", without "+")."""
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else None
    return isinstance(mode, str) and bool(set(mode) & set("wax")) and "+" not in mode


def file_readers(source: str, scope: str) -> list[str]:
    """Dotted names of the functions (or modules) in ``source`` that call
    ``open``, ``read_text`` or ``read_bytes``, in source order; an ``open``
    whose mode writes only is not a read."""
    return scopes_where(
        source, scope,
        lambda node: isinstance(node, ast.Call) and referenced_name(node.func) in FILE_READS
        and not opens_to_write(node),
    )


def test_file_reader_scan_finds_every_kind_of_read():
    # the scan's own check: a scan that found nothing would pass the test below
    source = """
import io
text = open("a").read()
def one(path):
    return Path(path).read_text()
class Reader:
    def two(self, path):
        def inner():
            return io.open(path, "rb").read() + self.path.read_bytes()
        return inner()
def writes(path):
    Path(path).write_text("x")
    open(path, "wb", buffering=8).write(b"x")
    io.open(path, mode="a").write("x")
def updates(path):
    return open(path, "r+b").read()
"""
    assert file_readers(source, "m") == [
        "m", "m.one", "m.Reader.two.inner", "m.Reader.two.inner", "m.updates",
    ]


def test_read_lines_is_the_one_file_reader():
    # every input file goes through data.read_lines, its one place for the
    # UTF-8 and line-number handling
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += file_readers(path.read_text(encoding="utf-8"), path.stem)
    assert found == ["data.read_lines"]


def message_raisers(source: str, scope: str, text: str) -> list[str]:
    """Dotted names of the functions (or modules) in ``source`` holding a
    ``raise`` whose exception holds a string constant containing ``text``,
    once per such raise, in source order."""

    def raises(node) -> bool:
        return isinstance(node, ast.Raise) and node.exc is not None and any(
            isinstance(part, ast.Constant) and isinstance(part.value, str) and text in part.value
            for part in ast.walk(node.exc)
        )

    return scopes_where(source, scope, raises)


def test_message_raiser_scan_finds_every_kind_of_raise():
    # the scan's own check: a scan that found nothing would pass the test below
    source = '''
if bad:
    raise ValueError("relation ids must be contiguous from 0")
def one(path, rid):
    """Raises on a duplicate relation id."""
    note = "duplicate relation id"
    raise ValueError(f"{path}: duplicate relation id {rid}")
class Reader:
    def two(self, rid):
        def inner():
            raise RuntimeError("bad: " + f"duplicate relation id {rid}") from None
        return inner
'''
    assert message_raisers(source, "m", "duplicate relation id") == ["m.one", "m.Reader.two.inner"]
    assert message_raisers(source, "m", "contiguous from 0") == ["m"]


@pytest.mark.parametrize("text, raiser", [
    ("duplicate relation id", "data.relation_order"),
    ("relation ids must be contiguous from 0", "data.relation_order"),
    ("unknown relation id", "data.load_dataset"),
])
def test_each_relation_id_message_is_raised_from_one_place(text, raiser):
    # a relation id is at once a registry line, an embedding row and a graph
    # node, so one function checks the ids of the registry and the embeddings
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += message_raisers(path.read_text(encoding="utf-8"), path.stem, text)
    assert found == [raiser]


def exp_sites(source: str, scope: str) -> list[str]:
    """Dotted names of the functions (or modules) in ``source`` that name
    numpy's ``exp``, as ``np.exp``, ``numpy.exp`` or an import from numpy,
    in source order."""

    def names_exp(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            return node.module == "numpy" and any(a.name == "exp" for a in node.names)
        return (
            isinstance(node, ast.Attribute) and node.attr == "exp"
            and referenced_name(node.value) in {"np", "numpy"}
        )

    return scopes_where(source, scope, names_exp)


def test_exp_scan_finds_every_kind_of_use():
    # the scan's own check: a scan that found nothing would pass the test below
    source = """
import math
import numpy
import numpy as np
from numpy import exp
def one(z):
    return np.exp(z) + math.exp(1.0)
class Softmax:
    def two(self, z):
        return np.log(numpy.exp(z, out=z))
def three(z):
    from numpy import exp as e
    return e(z) + z.exp
"""
    assert exp_sites(source, "m") == ["m", "m.one", "m.Softmax.two", "m.three"]


def test_only_numerics_calls_exp():
    # exponents go through the softmax kernels, where the drift's clamp keeps
    # exp off its slow path on underflowing outputs
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += exp_sites(path.read_text(encoding="utf-8"), path.stem)
    assert found == [
        "numerics.softmax_with_temperature", "numerics.log_softmax_with_temperature",
    ]


def last_axis_max_sites(source: str, scope: str) -> list[str]:
    """Dotted names of the functions (or modules) in ``source`` that take a
    maximum over the last axis, as ``z.max(axis=-1)``, ``z.max(-1)``,
    ``np.max(z, -1)`` or ``amax`` in their place, in source order; the
    builtin ``max`` is not numpy's."""

    def is_last_axis(node) -> bool:
        try:
            return ast.literal_eval(node) in (-1, (-1,))
        except (ValueError, TypeError, SyntaxError):
            return False

    def takes_last_axis_max(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in {"max", "amax"}:
            # numpy's functions take the axis second, an array's method first
            at = 1 if referenced_name(func.value) in {"np", "numpy"} else 0
        elif isinstance(func, ast.Name) and func.id == "amax":
            at = 1
        else:
            return False
        axes = node.args[at : at + 1] + [kw.value for kw in node.keywords if kw.arg == "axis"]
        return any(is_last_axis(axis) for axis in axes)

    return scopes_where(source, scope, takes_last_axis_max)


def test_last_axis_max_scan_finds_every_kind_of_use():
    # the scan's own check: a scan that found nothing would pass the test below
    source = """
import numpy
import numpy as np
from numpy import amax
top = np.max(z, axis=-1)
def one(z):
    return z.max(-1, keepdims=True) + max(z.size, -1) + z.max(axis=0) + np.max(z)
class Kernel:
    def two(self, z):
        return numpy.amax(z, -1) + self.z.max(axis=(-1,)) + z.max(axis=-2)
def three(z):
    return amax(z, axis=-1, keepdims=True) + np.max(z, 0)
"""
    assert last_axis_max_sites(source, "m") == [
        "m", "m.one", "m.Kernel.two", "m.Kernel.two", "m.three",
    ]


def test_only_numerics_takes_the_last_axis_max():
    # a row's maximum goes through numerics.row_max, a column fold many times
    # faster than numpy's reduce over a short last axis
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += last_axis_max_sites(path.read_text(encoding="utf-8"), path.stem)
    assert found == ["numerics.row_max"]


def measure_comparisons(source: str, scope: str) -> list[str]:
    """Dotted names of the functions (or modules) in ``source`` holding a
    comparison or a match case against a MEASURES name, alone or in a literal
    tuple, list or set, once per such node, in source order."""

    def names(node) -> set:
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return {item.value for item in items if isinstance(item, ast.Constant)} & set(MEASURES)

    def compares(node) -> bool:
        if isinstance(node, ast.MatchValue):
            return bool(names(node.value))
        return isinstance(node, ast.Compare) and any(
            names(side) for side in [node.left, *node.comparators]
        )

    return scopes_where(source, scope, compares)


def test_measure_scan_finds_every_kind_of_comparison():
    # the scan's own check: a scan that found nothing would pass the test below
    source = """
kernel = "dot" if measure == "dot" else "euclidean"
def one(measure):
    return {"dot": 1}[measure] + (measure == "cosine") + len("euclidean")
class Kernel:
    def two(self, ms):
        if "euclidean" != self.measure and self.d < 3:
            return [m for m in ms if m not in ("cosine", "dot")]
def three(measure):
    match measure:
        case "euclidean":
            return 1
"""
    assert measure_comparisons(source, "m") == ["m", "m.Kernel.two", "m.Kernel.two", "m.three"]


def test_only_likelihood_branches_on_the_measure():
    # the similarity kernel, its VJPs and the per-episode float count that
    # sizes a batch all live in likelihood.py, so a new measure is added there
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += measure_comparisons(path.read_text(encoding="utf-8"), path.stem)
    assert {scope.split(".")[0] for scope in found} == {"likelihood"}


EPISODE_FIELDS = {"support_x", "support_y", "query_x"}


def episode_field_parameters(source: str, scope: str) -> list[str]:
    """Dotted names of the functions (or modules, for a lambda) in ``source``
    taking a parameter named in EPISODE_FIELDS, once per such parameter."""
    return scopes_where(
        source, scope, lambda node: isinstance(node, ast.arg) and node.arg in EPISODE_FIELDS
    )


def test_episode_field_scan_finds_every_kind_of_parameter():
    # the scan's own check: a scan that found nothing would pass the test below
    source = """
rows = lambda support_x: support_x
def one(support_x, targets):
    return support_x
class Sampler:
    def two(self, *, support_y=None):
        return lambda query_x: query_x
def three(episode, *query_x, **support_y):
    support_x = episode.support_x
    return support_x
"""
    assert episode_field_parameters(source, "m") == [
        "m", "m.one", "m.Sampler.two", "m.Sampler.two", "m.three", "m.three",
    ]


def test_the_episode_travels_as_one_episode():
    # the forward takes a data.Episode, so no function outside data.py takes
    # the episode's rows or labels as separate arrays
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "data":
            found += episode_field_parameters(path.read_text(encoding="utf-8"), path.stem)
    assert found == []


RNG_CONSTRUCTORS = {"Philox", "Generator", "default_rng", "SeedSequence"}


def rng_constructors(source: str, module: str) -> list[str]:
    """``module:line name`` of every import or use of a name in RNG_CONSTRUCTORS
    in ``source``, in source order; type annotations are not uses."""
    tree = ast.parse(source)
    annotations = set()
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if note is not None:
                annotations.update(id(part) for part in ast.walk(note))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and id(node) not in annotations:
            names = [node.attr]
        elif isinstance(node, ast.Name) and id(node) not in annotations:
            names = [node.id]
        else:
            continue
        found += [(node.lineno, node.col_offset, name) for name in names
                  if name in RNG_CONSTRUCTORS]
    return [f"{module}:{line} {name}" for line, _, name in sorted(found)]


def test_rng_constructor_scan_finds_every_kind_of_use():
    # the scan's own check: a scan that found nothing would pass the test below
    source = """
import numpy as np
from numpy.random import default_rng
from numpy import random as npr
def draw(seed, gen: np.random.Generator) -> np.random.Generator:
    a = np.random.Generator(np.random.Philox(seed))
    make: np.random.SeedSequence = npr.SeedSequence
    return default_rng(seed)
"""
    assert rng_constructors(source, "m") == [
        "m:3 default_rng", "m:6 Generator", "m:6 Philox", "m:7 SeedSequence",
        "m:8 default_rng",
    ]


def test_only_numerics_builds_generators():
    # every draw goes through an RngStream or numerics.RekeyedPhilox, so a
    # stream is keyed in one place and no module keeps ambient generator state
    found = {path.stem: rng_constructors(path.read_text(encoding="utf-8"), path.stem)
             for path in sorted(SRC.glob("*.py"))}
    assert found.pop("numerics"), "no construction found in numerics.py: the scan is broken"
    assert [use for uses in found.values() for use in uses] == []


def philox_users(source: str, scope: str) -> list[str]:
    """Dotted names of the functions (or modules) in ``source`` that name
    ``RekeyedPhilox``, called or not, in source order; imports are not uses."""
    return scopes_where(source, scope, lambda node: referenced_name(node) == "RekeyedPhilox")


def test_philox_user_scan_finds_every_kind_of_use():
    # the scan's own check: a scan that found nothing would pass the test below
    source = """
from .numerics import RekeyedPhilox
from . import numerics
philox = RekeyedPhilox(rng)
def chain(rng):
    return numerics.RekeyedPhilox(rng).start(1)
class Sampler:
    def run(self):
        make = RekeyedPhilox
        return (lambda: make(self.rng))()
"""
    assert philox_users(source, "m") == ["m", "m.chain", "m.Sampler.run"]


def test_chain_noise_is_the_one_noise_implementation():
    # the chain's Langevin noise is drawn, and its rows put in target rank
    # order, in one function that the sampler and the trainer both import;
    # the only other re-keyed Philox draws the episodes
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += philox_users(path.read_text(encoding="utf-8"), path.stem)
    assert found == ["numerics.chain_noise", "numerics.StreamChoices.__init__"]


def test_child_hash_root_is_in_child_only():
    # chain_noise keys its steps from child()'s ids, so the hash is derived once
    root = 0xA5A5A5A5A5A5A5A5
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += scopes_where(path.read_text(encoding="utf-8"), path.stem,
                              lambda node: isinstance(node, ast.Constant) and node.value == root)
    assert found == ["numerics.RngStream.child"]


def test_cli_defaults_are_the_config_defaults(tmp_path, monkeypatch):
    # cli.OPTIONS and zero-shot evaluation take the sampler and training
    # defaults from the config dataclasses: runs with no such flag, and a
    # library call with no such argument, must use the defaults
    built = []
    monkeypatch.setattr(cli, "_load_graph_and_data", lambda opts: (None, None))
    monkeypatch.setattr(cli.trainer, "train", lambda *args, **_: built.append(args[2]) or ({}, []))
    checkpoint = str(tmp_path / "m.ckpt")
    assert cli.main(["train", "--checkpoint", checkpoint]) == 0
    episodes = cli.COMMANDS["train"].defaults["episodes"]  # no TrainConfig default
    assert built == [TrainConfig(episodes, checkpoint_path=checkpoint)]
    for name in ("eval", "sweep", "zero-shot"):
        opts = cli.Options(cli.build_parser().parse_args([name]), cli.COMMANDS[name])
        if name == "zero-shot":  # reads the sampler's tau and measure, builds no sampler
            assert (opts["tau"], opts["measure"]) == (SamplerConfig.tau, SamplerConfig.measure)
        else:
            assert cli._sampler_config(opts) == SamplerConfig(), name
    zero_shot = inspect.signature(evaluation.evaluate_zeroshot).parameters
    assert (zero_shot["measure"].default, zero_shot["tau"].default) == (
        SamplerConfig.measure, SamplerConfig.tau
    )


def argparse_conversions(source: str, scope: str) -> list[str]:
    """Dotted names of the functions (or modules) in ``source`` holding an
    ``add_argument`` call that passes ``type=`` or ``choices=``, as a keyword
    or in a ``**`` dict literal, once per such call, in source order."""

    def converts(node) -> bool:
        if not (isinstance(node, ast.Call) and referenced_name(node.func) == "add_argument"):
            return False
        keys = {k.arg for k in node.keywords}
        for k in node.keywords:
            if k.arg is None and isinstance(k.value, ast.Dict):
                keys |= {key.value for key in k.value.keys if isinstance(key, ast.Constant)}
        return bool(keys & {"type", "choices"})

    return scopes_where(source, scope, converts)


def test_argparse_conversion_scan_finds_every_kind_of_use():
    # the scan's own check: a scan that found nothing would pass the test below
    source = """
parser.add_argument("--n", type=int)
def one(p):
    p.add_argument("--mode", metavar="{a,b}", choices=("a", "b"))
    p.add_argument("--flag", action="store_const", const="true", help="on")
class Parser:
    def two(self):
        def inner(add_argument):
            add_argument("--x", **{"type": float, "help": "x"})
            add_argument("--y", **{"help": "y"})
        return inner
"""
    assert argparse_conversions(source, "m") == ["m", "m.one", "m.Parser.two.inner"]


def test_option_text_becomes_a_value_only_in_the_converter():
    # argparse only recognises option names: a type= or choices= would turn a
    # bad flag into a usage error (exit 2) that its config line does not give
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += argparse_conversions(path.read_text(encoding="utf-8"), path.stem)
    assert found == []


def literal_config_defaults(source: str, scope: str) -> list[str]:
    """Where ``source`` writes a SamplerConfig or TrainConfig default as a
    literal outside its dataclass, sorted: ``scope.f(name)`` for a
    default of f's parameter named as a field, ``scope.OPTIONS[key]`` for
    the default of an option that some call passes as a field
    (``field=opts[key]``), and ``scope.Config(name)`` for a config built
    with a field's own default."""
    defaults = {f.name: f.default for cls in (SamplerConfig, TrainConfig) for f in fields(cls)
                if f.default not in (MISSING, None)}

    def literal(node):
        try:
            return ast.literal_eval(node)
        except ValueError:
            return None

    tree = ast.parse(source)
    set_by = {  # option key -> the field a call passes it as
        sub.slice.value: node.arg
        for node in ast.walk(tree) if isinstance(node, ast.keyword) and node.arg in defaults
        for sub in ast.walk(node.value)
        if isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Constant)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args.posonlyargs + node.args.args
            pairs = [*zip(args[len(args) - len(node.args.defaults):], node.args.defaults),
                     *zip(node.args.kwonlyargs, node.args.kw_defaults)]
            found += [f"{scope}.{node.name}({arg.arg})" for arg, default in pairs
                      if arg.arg in defaults and literal(default) is not None]
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "OPTIONS":
            found += [f"{scope}.OPTIONS[{key.value}]"
                      for key, call in zip(node.value.keys, node.value.values)
                      if key.value in set_by and literal(call.args[1]) is not None]
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("SamplerConfig",
                                                                       "TrainConfig"):
            found += [f"{scope}.{ast.unparse(node.func)}({kw.arg})" for kw in node.keywords
                      if kw.arg in defaults and literal(kw.value) == defaults[kw.arg]]
    return sorted(found)


def test_literal_default_scan_finds_every_kind_of_copy():
    # the scan's own check: a scan that found nothing would pass the test below
    source = """
OPTIONS = {
    "lr": Option(float, 0.1, "rate"),
    "knn": Option(int, 10, "neighbors"),
    "tau": Option(float, SamplerConfig.tau, "temperature"),
}
def evaluate(rng, measure="dot", tau=SamplerConfig.tau, hops=1, *, chains=-1):
    return SamplerConfig(measure=measure, step_size=0.1, steps=2)
def build(opts):
    return TrainConfig(1, learning_rate=opts["lr"], sampler=SamplerConfig(tau=opts["tau"]))
"""
    assert literal_config_defaults(source, "m") == [
        "m.OPTIONS[lr]", "m.SamplerConfig(step_size)", "m.evaluate(chains)", "m.evaluate(measure)",
    ]


def test_no_config_default_is_written_twice():
    # SamplerConfig and TrainConfig own their defaults: a function, an option
    # or a config built elsewhere in src/ reads them, and never repeats one
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += literal_config_defaults(path.read_text(encoding="utf-8"), path.stem)
    assert found == []


# the sampler's records and the config knobs of its rules: the SGLD step, the
# likelihood scale and the warm start
CHAIN_FIELDS = {
    "trajectory", "support_probs", "step_sizes", "prior_weight", "likelihood_weight",
    "alpha", "beta",
}


def chain_rule_uses(source: str) -> list[str]:
    """The VJP names that ``source`` imports or calls, other than the episode
    forward's, and the CHAIN_FIELDS attributes it reads, sorted."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return sorted(
        name for name in names
        if name in CHAIN_FIELDS or name.endswith("_vjp") and name != "episode_forward_vjp"
    )


def test_chain_rule_scan_finds_every_kind_of_use():
    # the scan's own check: a scan that found nothing would pass the test below
    source = """
from .likelihood import EncoderParams, support_drift_vjp
from .sampler import episode_forward_vjp
from . import likelihood
def reverse(fwd, config):
    chain = fwd.record
    likelihood.similarity_softmax_vjp(chain.trajectory[-1], fwd.record.support_probs)
    return chain.step_sizes, config.prior_weight * config.likelihood_weight, config.alpha
"""
    assert chain_rule_uses(source) == [
        "alpha", "likelihood_weight", "prior_weight", "similarity_softmax_vjp", "step_sizes",
        "support_drift_vjp", "support_probs", "trajectory",
    ]


def test_trainer_leaves_the_chain_rules_to_the_sampler():
    # the reverse of the chain sits beside its forward in sampler.py; the
    # trainer only seeds it and carries its cotangents into the parameters
    assert chain_rule_uses((SRC / "trainer.py").read_text(encoding="utf-8")) == []


def switched_vjps(source: str, module: str) -> list[str]:
    """``module.function(parameter)`` of each parameter with a boolean default
    that a function of ``source`` whose name ends in ``_vjp`` takes, sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.name.endswith("_vjp"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        defaults += zip(args.kwonlyargs, args.kw_defaults)
        found += [f"{module}.{node.name}({arg.arg})" for arg, default in defaults
                  if isinstance(default, ast.Constant) and isinstance(default.value, bool)]
    return sorted(found)


def test_switched_vjp_scan_finds_every_kind_of_switch():
    # the scan's own check: a scan that found nothing would pass the test below
    source = """
def pairwise_vjp(d, enc, encodings=True):
    return d
def kernel_vjp(d, /, first=False, *, skip=False, tau=1.0, none=None):
    return d
def forward(d, record=True):
    return d
class Chain:
    def step_vjp(self, first, last=None, exact=False):
        return first
def plain_vjp(d, tau=1.0, measure="dot", *, scale=2):
    return d
"""
    assert switched_vjps(source, "m") == [
        "m.kernel_vjp(first)", "m.kernel_vjp(skip)", "m.pairwise_vjp(encodings)",
        "m.step_vjp(exact)",
    ]


def test_no_vjp_takes_a_boolean_switch():
    # each reverse pass has one path, that of the cotangents training reads;
    # a switch that skips part of a VJP would fork it again
    found = []
    for module in ("likelihood", "sampler"):
        found += switched_vjps((SRC / f"{module}.py").read_text(encoding="utf-8"), module)
    assert found == []


def referenced_names(tree) -> Counter:
    """How often each name is read in ``tree``: as a name, an attribute, an
    imported name or a string (the tracer names its call sites in strings)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def unreferenced_definitions(defining: dict[str, str], others: list[str]) -> list[str]:
    """Dotted names of the top-level functions and classes, and the methods
    not named ``__x__``, of the ``defining`` sources (module -> text) that no
    source, of ``defining`` or ``others``, reads outside the definition's own
    body, in source order. Names match bare, so a definition that shares its
    name with a read one passes."""
    trees = {module: ast.parse(text) for module, text in defining.items()}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        total += referenced_names(tree)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            items = [(node, f"{module}.{node.name}")]
            if isinstance(node, ast.ClassDef):
                items += [(m, f"{module}.{node.name}.{m.name}") for m in node.body
                          if isinstance(m, defs[:2])
                          and not (m.name.startswith("__") and m.name.endswith("__"))]
            found += [name for item, name in items
                      if total[item.name] == referenced_names(item)[item.name]]
    return found


def test_unreferenced_definition_scan_finds_every_kind_of_definition():
    # the scan's own check: a scan that found nothing would pass the test below
    source = """
def called():
    def nested():
        return 1
    return nested()
def recursive(n):
    return recursive(n - 1) if n else 0
def assigned():
    pass
class Kept:
    def method(self):
        return Kept
    def by_name(self):
        pass
    def __repr__(self):
        return ""
    def dead(self):
        pass
def caller(module):
    module.assigned = None
    return Kept().method(), getattr(Kept, "by_name"), called()
"""
    other = "from m import caller\n"
    assert unreferenced_definitions({"m": source}, [other]) == [
        "m.recursive", "m.assigned", "m.Kept.dead",
    ]
    assert unreferenced_definitions({"m": source}, []) == [
        "m.recursive", "m.assigned", "m.Kept.dead", "m.caller",
    ]


def test_every_definition_is_referenced():
    # a function, class or method that neither the program nor the benchmark
    # reaches is code only tests run; the CLI's entry point is reached
    # through __main__.py
    defining = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text(encoding="utf-8")
              for path in sorted((ROOT / "benchmarks").glob("*.py"))]
    assert unreferenced_definitions(defining, others) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_a_unit(name, tmp_path):
    # unit 0 of seed 0 down the benchmark's own path through the library: its
    # outputs must carry the digest the benchmark recorded for this platform,
    # so a change of output bytes fails here as it fails a benchmark run
    spec = workloads.WORKLOADS[name]
    work, out = tmp_path / "work", tmp_path / "out"
    work.mkdir()
    out.mkdir()
    workloads.prepare(spec, 0, work)
    inputs = workloads.load_inputs(spec, workloads.input_files(work))
    accuracy = workloads.run_unit(spec, inputs, run.unit_seed(0, 0), out, spec.unit_episodes)
    assert 0.0 <= accuracy <= 1.0
    names = workloads.output_names(spec)
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    key = run.platform_key(np)
    recorded = run.read_digest_table().get(key, {}).get(name, {}).get("0")
    if not recorded or recorded[0] is None:
        pytest.skip(f"no digest recorded for {name} seed 0 on {key}")
    assert run.unit_digest(run.digests(out, names)) == recorded[0]
