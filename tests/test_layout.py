"""Module boundaries of the package, read from its import statements."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import vecspike
import vecspike.pipeline as pipeline

PACKAGE = Path(vecspike.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
WHOLE_MODULE = "*"


def _imports(module: str) -> dict[str, set[str]]:
    """Package modules that ``module`` imports, each with the names it takes.

    ``from .core import X`` and ``from vecspike.core import X`` take
    ``{"X"}``; importing the module itself (``from . import core``,
    ``import vecspike.core``) takes ``WHOLE_MODULE``, which no allow-list
    holds.
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0 and source.split(".")[0] != "vecspike":
                continue
            source = source.removeprefix("vecspike").lstrip(".")
            if source:
                found.setdefault(source, set()).update(a.name for a in node.names)
            else:  # the package itself: each name is a module
                for alias in node.names:
                    found.setdefault(alias.name, set()).add(WHOLE_MODULE)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("vecspike."):
                    found.setdefault(alias.name.split(".")[1], set()).add(WHOLE_MODULE)
    return found


# (importer, imported, allowed names): None forbids the import; a set
# requires it and bounds the names taken
BOUNDARIES = [
    # geometry computes from shapes alone: no engine, oracle or memory model
    ("geometry", "dataflow", None),
    ("geometry", "core", None),
    ("geometry", "memmodel", None),
    ("geometry", "arch", {"CycleReport", "HardwareConfig"}),
    ("geometry", "errors", {"ConfigError", "ShapeError"}),
    # the oracle checks the engine, so it takes nothing from it
    ("core", "dataflow", None),
    # the engine is checked against the oracle, so it shares only types,
    # the encoding shift and the block split of a sign-bit operand
    ("dataflow", "core",
     {"ENCODING_SHIFT", "BinaryWeightTensor", "FoldedNeuronParams", "SpikeTrain",
      "TrainRows", "sign_blocks"}),
    ("dataflow", "arch", {"CycleReport", "HardwareConfig"}),
    # the traffic path runs without the engine and the oracle
    ("memmodel", "dataflow", None),
    ("memmodel", "core", None),
    ("memmodel", "geometry", {"step_buffers"}),
    # validation builds the memory model's compute-layer records, and takes
    # nothing else from it; memmodel names netconfig's types only under
    # TYPE_CHECKING, so the two import no cycle
    ("netconfig", "memmodel", {"ComputeLayer"}),
    # the register-level model runs only under test
    *[
        (path.stem, "pipeline", None)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "pipeline"
    ],
]


@pytest.mark.parametrize(
    "importer, imported, allowed",
    BOUNDARIES,
    ids=[f"{importer}-{imported}" for importer, imported, _ in BOUNDARIES],
)
def test_module_boundary(importer, imported, allowed):
    taken = _imports(importer).get(imported)
    if allowed is None:
        assert taken is None, f"{importer} imports {imported}: {taken}"
    else:
        assert taken and taken <= allowed, f"{importer} takes {taken} from {imported}"


def test_package_exports_no_name_of_the_register_level_model():
    own = {
        name for name, value in vars(pipeline).items()
        if getattr(value, "__module__", None) == pipeline.__name__
    }
    assert {"stream_conv_columns", "pe_multiply", "GroupAccumulator"} <= own
    assert not own & (set(vecspike.__all__) | set(vars(vecspike)))


def test_every_module_qualified_name_the_readme_cites_resolves():
    # `memmodel.compute_layers(net)` and `vecspike.dataflow.GemmWeights`
    # each cite a module attribute; a renamed or deleted one fails here
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    cited = set(re.findall(
        r"`(?:vecspike\.)?((?:%s)(?:\.\w+)+)(?:\([^`]*\))?`" % "|".join(modules),
        README.read_text(),
    ))
    assert cited
    missing = []
    for name in sorted(cited):
        module, *attrs = name.split(".")
        value = importlib.import_module(f"vecspike.{module}")
        for attr in attrs:
            value = getattr(value, attr, None)
        if value is None:
            missing.append(name)
    assert not missing, f"README.md cites names that do not resolve: {missing}"
