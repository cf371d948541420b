"""The package imports only the standard library and its declared
dependency, numpy: scipy and other installed packages stay out. Grid
transforms go through lattice.py's helpers, so numpy's FFT is called in
that module only, and the form a spectrum takes (a mode table or a half
spectrum) is known there and in stacks.py alone, which gives a stack of
weights its one spectrum (a lone weight's own, or several weights' tables
joined row by row): other modules neither name ``lattice._Spectrum`` nor
read a field's table, and use the spectrum ``stacks._weight_spectra``
hands them through its methods. Two geometries are compared in one function,
``lattice._require_same_geometry``, which raises the typed
GeometryMismatchError. The ragged layout of a stack of instances (its
offsets, and the ``reduceat`` reductions read at them) is known to
stacks.py alone."""

import ast
import sys
from pathlib import Path

#: ``dependencies`` in pyproject.toml.
DECLARED = {"numpy"}

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toruspos"


def _absolute_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | DECLARED
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    undeclared = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in _absolute_imports(path)
        if name.split(".")[0] not in allowed
    ]
    assert undeclared == []


def test_undeclared_imports_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\nimport numpy.linalg\nfrom . import lattice\n"
        "def f():\n    from scipy import linalg\n"
    )
    names = [name for _, name in _absolute_imports(module)]
    assert names == ["os", "numpy.linalg", "scipy"]


#: numpy.fft names that are not transforms.
FFT_HELPERS = {"fftfreq", "rfftfreq", "fftshift", "ifftshift"}


def _numpy_fft_uses(path: Path):
    """``(line, name)`` of each numpy.fft transform that ``path`` names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.fft"):
            for alias in node.names:
                if node.module == "numpy.fft" or alias.name == "fft":
                    yield node.lineno, alias.name
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "fft"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("np", "numpy")
            and node.attr not in FFT_HELPERS
        ):
            yield node.lineno, node.attr


def test_numpy_fft_transforms_are_called_only_in_lattice():
    sources = sorted(PACKAGE.glob("*.py"))
    outside = [
        f"{path.name}:{line}: {name}"
        for path in sources
        if path.name != "lattice.py"
        for line, name in _numpy_fft_uses(path)
    ]
    assert outside == []
    assert list(_numpy_fft_uses(PACKAGE / "lattice.py"))


def test_numpy_fft_uses_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\nfrom numpy.fft import rfftn\nfrom numpy import fft\n"
        "k = np.fft.fftfreq(8)\nx = np.fft.irfftn(k)\ny = numpy.fft.fft(k)\n"
    )
    names = [name for _, name in _numpy_fft_uses(module)]
    assert names == ["rfftn", "fft", "irfftn", "fft"]


#: Transform helpers and mode-table internals that only lattice.py names.
LATTICE_ONLY = {"_rfftn", "_irfftn", "_waves"}

#: The mode table type, named only where tables are built and read.
TABLE_MODULES = {"lattice.py", "expressions.py"}


def _names(path: Path):
    """``(line, name)`` of each identifier ``path`` names: a variable, an
    attribute, or a name imported from a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.name


def _defined(path: Path) -> set:
    """Names ``path`` defines at module level: functions, classes and
    assigned names."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


#: Modules that know a spectrum's form: they name the spectrum type
#: (``_Spectrum``) or read its table rows (``_Spectrum.wavevectors``).
ROW_MODULES = {"lattice.py", "stacks.py"}

#: Modules that read a field's mode table (``ScalarField._modes``): where
#: tables are built, and where a stack's weights are joined.
FIELD_TABLE_MODULES = TABLE_MODULES | {"stacks.py"}


def test_spectrum_forms_are_known_only_in_lattice():
    sources = sorted(PACKAGE.glob("*.py"))
    outside = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in _names(path)
        if (name in LATTICE_ONLY and path.name != "lattice.py")
        or (name == "_Modes" and path.name not in TABLE_MODULES)
        or (name in ("_Spectrum", "wavevectors") and path.name not in ROW_MODULES)
        or (name == "_modes" and path.name not in FIELD_TABLE_MODULES)
    ]
    assert outside == []
    # A listed name lattice.py no longer defines would guard nothing.
    assert LATTICE_ONLY <= _defined(PACKAGE / "lattice.py")


def test_names_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .lattice import _rfftn as forward, _Modes, _Spectrum\n"
        "import toruspos.lattice as lattice\n"
        "def f(field):\n    return lattice._irfftn(field), _waves\n"
        "def g(field):\n    return field._modes, lattice._Spectrum.of(field)\n"
    )
    names = [name for _, name in _names(module)]
    assert {"_rfftn", "_Modes", "_irfftn", "_waves", "_modes"} <= set(names)
    assert names.count("_Spectrum") == 2


def test_definitions_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\nfrom .planes import _split\n_A = 1\n_B: int = 2\n"
        "x, _C = 1, 2\ndef _f():\n    _D = 3\nclass _E:\n    pass\n"
    )
    assert _defined(module) == {"_A", "_B", "_f", "_E"}


#: numpy's Hermitian eigensolvers.
EIGENSOLVERS = {"eigh", "eigvalsh"}

#: The one function that eigensolves a class matrix ``r_const``: the
#: bundle's cached class spectrum (``curvature.class_spectrum``) reads it,
#: a corpus fills those caches from one stacked call of it
#: (``curvature._class_spectra``), and ``aligned_metric_matrix``, which
#: takes a bare matrix, calls it too.
CLASS_EIGENSOLVE = ("curvature.py", "_eigenpairs")


def _class_eigensolves(path: Path):
    """``(line, function)`` of each eigh or eigvalsh call in ``path`` with
    an argument that names ``r_const``; ``function`` is the innermost
    function the call is made in (None at module level)."""

    def names_r_const(node) -> bool:
        return any(
            (isinstance(n, ast.Name) and n.id == "r_const")
            or (isinstance(n, ast.Attribute) and n.attr == "r_const")
            for n in ast.walk(node)
        )

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                arguments = [*child.args, *(k.value for k in child.keywords)]
                if name in EIGENSOLVERS and any(map(names_r_const, arguments)):
                    yield child.lineno, function
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), None)


def test_only_the_class_spectrum_eigensolves_a_class():
    """Every route that needs the class's eigenvalues reads the bundle's
    one cached eigensolve (``class_spectrum``) instead of its own."""
    found = [
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, function in _class_eigensolves(path)
    ]
    assert found == [CLASS_EIGENSOLVE]


def test_class_eigensolves_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\nfrom numpy.linalg import eigvalsh\n"
        "def f(L):\n    return np.linalg.eigh(-L.r_const)\n"
        "def g(r_const, m):\n    return eigvalsh(a=r_const), np.linalg.eigh(m)\n"
        "mu = np.linalg.eigvalsh(np.asarray(r_const))\n"
    )
    assert list(_class_eigensolves(module)) == [(4, "f"), (6, "g"), (7, None)]


#: The one function that compares geometries.
GEOMETRY_CHECK = ("lattice.py", "_require_same_geometry")


def _geometry_comparisons(path: Path):
    """``(line, function)`` of each comparison in ``path`` with an operand
    that reads a ``.geometry`` attribute; ``function`` is the innermost
    function the comparison is made in (None at module level)."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Compare) and any(
                isinstance(operand, ast.Attribute) and operand.attr == "geometry"
                for operand in (child.left, *child.comparators)
            ):
                yield child.lineno, function
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), None)


def test_only_the_geometry_check_compares_geometries():
    found = [
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, function in _geometry_comparisons(path)
    ]
    assert found == [GEOMETRY_CHECK]


def test_geometry_comparisons_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(L, omega):\n    return L.geometry != omega.geometry\n"
        "def g(a, geom):\n    if geom == a.geometry:\n        pass\n"
        "ok = a.geometry.grid_shape == (4, 4)\n"
        "same = b.phi.geometry is c.geometry\n"
    )
    assert list(_geometry_comparisons(module)) == [(2, "f"), (4, "g"), (7, None)]


#: Names of the ragged layout: a stack's offsets and the per-instance
#: reductions taken at them.
RAGGED_NAMES = {"reduceat", "_offsets"}

#: The one module that knows the ragged layout.
STACK_MODULE = "stacks.py"


def test_only_the_stack_module_knows_the_ragged_layout():
    """Routes read per-instance values through ``stacks._Stack`` (``split``,
    ``minima``, ``sums`` and kin), so no other module indexes the joined
    points by hand."""
    outside = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _names(path)
        if name in RAGGED_NAMES and path.name != STACK_MODULE
    ]
    assert outside == []
    # A listed name the stack module no longer uses would guard nothing.
    assert RAGGED_NAMES <= {name for _, name in _names(PACKAGE / STACK_MODULE)}


def test_ragged_layout_names_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\n"
        "def f(x, stack):\n"
        "    starts = stack._offsets[:-1]\n"
        "    return np.minimum.reduceat(x, starts)\n"
    )
    found = sorted(name for _, name in _names(module) if name in RAGGED_NAMES)
    assert found == ["_offsets", "reduceat"]
