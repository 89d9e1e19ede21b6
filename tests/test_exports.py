"""Every name that an ftnet module exports resolves, and every helper and public name is used."""

import ast
import collections
import importlib
import pathlib
import pkgutil

import pytest

import ftnet

MODULES = ["ftnet"] + [f"ftnet.{m.name}" for m in pkgutil.iter_modules(ftnet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def names_in(stmt):
    """How often a statement reads each name: bare names, attributes and imported names."""
    names = collections.Counter()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def test_every_private_helper_has_a_caller():
    """Each module-level private function or class in ftnet is referenced in
    ftnet beyond its own definition, so a helper a refactor orphans fails."""
    src = pathlib.Path(ftnet.__file__).parent
    statements = [stmt for path in sorted(src.glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    used = [names_in(stmt) for stmt in statements]
    orphans = [
        stmt.name for stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not any(stmt.name in names for other, names in zip(statements, used) if other is not stmt)
    ]
    assert orphans == []


def test_every_public_name_has_a_caller():
    """Each public function, class, method and property defined in ftnet is
    referenced beyond its own definition, in ftnet or in the benchmark
    runner, so an API that nothing calls fails. It matches by name only:
    a name that something else also uses (such as ``frame_len``) passes."""
    src = pathlib.Path(ftnet.__file__).parent
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    own = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    runner = [ast.parse((bench / name).read_text(encoding="utf-8"))
              for name in ("run.py", "spans.py", "selftest.py")]
    used = sum((names_in(tree) for tree in own + runner), collections.Counter())
    unused = [
        node.name for tree in own for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and used[node.name] == names_in(node)[node.name]
    ]
    assert unused == []


def test_no_function_rebinds_module_state_but_the_worker():
    """Every ``global`` statement in ftnet names ``_executor``, the one worker.
    Module state that a function rebinds is shared by every thread, so grad
    mode and a sweep's pending jobs must live elsewhere."""
    src = pathlib.Path(ftnet.__file__).parent
    rebound = [
        f"{path.name}:{node.lineno} {name}" for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global) for name in node.names if name != "_executor"
    ]
    assert rebound == []


def test_only_the_model_reads_block_frames():
    """``model.forward_blocks`` is the one loop over frame blocks, so no other
    ftnet module reads ``block_frames`` to slice frames itself."""
    src = pathlib.Path(ftnet.__file__).parent
    readers = sorted(
        path.name for path in src.glob("*.py")
        if names_in(ast.parse(path.read_text(encoding="utf-8")))["block_frames"]
    )
    assert readers == ["model.py"]


def test_only_the_config_and_the_layer_table_read_conv_settings():
    """``model.layer_table`` is the one source of conv geometry, so outside
    ``ModelConfig`` and ``layer_table`` no ftnet code reads the settings that
    shape the convs."""
    src = pathlib.Path(ftnet.__file__).parent
    settings = {"kernel", "encoder_channels", "glu_dilations", "glu_bottleneck"}
    readers = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = [stmt for stmt in tree.body if isinstance(stmt, (ast.ClassDef, ast.FunctionDef))
                  and stmt.name in ("ModelConfig", "layer_table")]
        exempt = {id(node) for owner in owners for node in ast.walk(owner)}
        readers += [f"{path.name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in settings
                    and id(node) not in exempt]
    assert readers == []


def test_the_tensor_engine_calls_no_np_where():
    """``np.where`` branches per element, and random signs mispredict that
    branch, so the engine's activations select by arithmetic instead."""
    tree = ast.parse((pathlib.Path(ftnet.__file__).parent / "tensor.py").read_text(encoding="utf-8"))
    calls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "where"
    ]
    assert calls == []


def test_no_function_imports_in_its_body():
    """Every ftnet import sits at the top of its module, where a reader finds
    the module's dependencies and an import cycle shows at once."""
    src = pathlib.Path(ftnet.__file__).parent
    nested = [
        f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_only_audio_words_the_clip_rules():
    """``audio.require_rate`` and ``audio.samples`` are the one sample-rate
    check and the one seconds-to-samples rule, so outside ``audio.py`` no
    ftnet ``FormatError`` message names a rate in Hz, and no code says
    "under one sample"."""
    src = pathlib.Path(ftnet.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "audio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and "under one sample" in str(node.value):
                found.append(f"{path.name}:{node.lineno} under one sample")
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "FormatError"
                    and any(isinstance(part, ast.Constant) and "Hz" in str(part.value)
                            for arg in node.exc.args for part in ast.walk(arg))):
                found.append(f"{path.name}:{node.lineno} FormatError in Hz")
    assert found == []


def test_src_reaches_no_weight_through_dot_tensor():
    """A ``Parameter`` is the leaf tensor it trains, so ftnet uses each one
    directly. ``Parameter.tensor``, which returns the parameter itself, stays
    only for the benchmark runner, and no ftnet code reads it."""
    src = pathlib.Path(ftnet.__file__).parent
    readers = [
        f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "tensor"
    ]
    assert readers == []
