"""Package-wide invariants: one generation-size limit, the import graph and
the names the benchmark harness calls."""
import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ramcast.sim
from ramcast.channel import AccessProbabilities
from ramcast.gf2 import MAX_K, expected_decode_count, rank_cdf, rank_pmf
from ramcast.rlc_markov import build_chain, service_rates_grid
from ramcast.sim import SimConfig

PKG = Path(ramcast.sim.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("K", [0, MAX_K + 1, 2.5, 2.0, None])
def test_generation_size_limit_is_shared(strong, K):
    access = AccessProbabilities(0.5, 0.5)
    with pytest.raises(ValueError, match=f"K must be in \\[1, {MAX_K}\\]"):
        SimConfig(channel=strong, access=access, policy="rlc", K=K)
    with pytest.raises(ValueError, match=f"K must be in \\[1, {MAX_K}\\]"):
        build_chain(strong, access, K=K)
    with pytest.raises(ValueError, match=f"K must be in \\[1, {MAX_K}\\]"):
        service_rates_grid(strong, np.array([0.5]), K)
    for law in (rank_cdf, rank_pmf):
        with pytest.raises(ValueError, match=f"K must be in \\[1, {MAX_K}\\]"):
            law(K, 3)
    with pytest.raises(ValueError, match=f"K must be in \\[1, {MAX_K}\\]"):
        expected_decode_count(K)


def test_generation_size_accepts_numpy_integers(strong):
    K = np.int64(3)
    access = AccessProbabilities(0.5, 0.5)
    assert SimConfig(channel=strong, access=access, policy="rlc", K=K).K == 3
    assert build_chain(strong, access, K=K).K == 3
    assert rank_cdf(K, 4) == 0.615234375


def test_generation_size_is_checked_in_gf2():
    # gf2._check_generation_size is the one test of K against MAX_K, so a
    # larger limit is a change to one module.
    namers = {
        path.name
        for path in PKG.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id == "MAX_K")
        or (isinstance(node, ast.Attribute) and node.attr == "MAX_K")
        or (isinstance(node, ast.alias) and "MAX_K" in (node.name, node.asname))
    }
    assert namers <= {"gf2.py"}, namers


def test_grid_is_laid_out_in_regions():
    # regions.grid_rates builds the grid and regions.sweep lays out its
    # (n, n) rate tables; other modules read the grid and the tables they
    # return.
    grid_names = {"p_grid", "_grid_size"}
    namers = {
        path.name
        for path in PKG.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id in grid_names)
        or (isinstance(node, ast.Attribute) and node.attr in grid_names)
        or (isinstance(node, ast.alias) and {node.name, node.asname} & grid_names)
    }
    assert namers <= {"regions.py"}, namers


def test_one_chain_solver():
    # rlc_markov._level_pass solves every chain, one row per access value,
    # in one level pass; a second function that walks the levels would be a
    # second solver.
    tree = ast.parse((PKG / "rlc_markov.py").read_text(encoding="utf-8"))
    walkers = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr == "level_edge_slices"
            for node in ast.walk(fn)
        )
    ]
    assert walkers == ["_level_pass"]


def test_one_gf2_elimination_loop():
    # gf2.basis_insert is the only GF(2) elimination: the simulator's two
    # modes, decode and the checks all call it.  Any other code that reads a
    # vector's bit length would be the start of a second elimination loop.
    readers = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so inner ones win
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        readers += [
            (path.name, owner.get(id(node), "<module>"))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "bit_length"
        ]
    assert readers == [("gf2.py", "basis_insert")]


def test_cli_import_pulls_in_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PKG.parent), env.get("PYTHONPATH")]))
    code = (
        "import sys, ramcast.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_coefficient_draws_live_in_gf2():
    # The package draws random integers only as GF(2) coefficient vectors,
    # through gf2.draw_coefficients, so a wider draw is a change to one module.
    callers = {
        path.name
        for path in PKG.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "integers"
    }
    assert callers == {"gf2.py"}


def test_simulator_draws_each_block_in_one_place():
    # sim._block_draws draws the transmit, reception and coefficient streams
    # of both modes; only _run_arrivals draws its arrival streams itself.
    # The channel's matrices are read as stored, not entry by entry.
    tree = ast.parse((PKG / "sim.py").read_text(encoding="utf-8"))
    draws, entries = [], []
    for fn in tree.body:
        owner = getattr(fn, "name", "<module>")
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if callee in ("draw_coefficients", "random"):
                draws.append((owner, callee))
            elif isinstance(node.func, ast.Attribute) and callee in ("solo", "joint"):
                entries.append(owner)
    assert {owner for owner, callee in draws if callee == "draw_coefficients"} == {"_block_draws"}
    assert [d for d in draws if d[0] != "_block_draws"] == [("_run_arrivals", "random")]
    assert entries == []


def test_region_rates_are_chosen_in_regions():
    # A region kind provides only g_n on an access axis, and maps to it in
    # one place, regions.region_rates: each per-kind g function is named
    # only by its own module and there.  Only regions.grid_rates (which
    # regions.sweep calls) and regions.service_rates call region_rates, and
    # only regions forms the rate tables p_own * g_n(p_other), with an
    # outer product.
    owners = {
        "rate_bounds_grid": {"capacity.py"},
        "service_rates_grid": {"retrans.py", "rlc_markov.py"},
        "region_rates": {"regions.py"},
    }

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                yield node.name
            else:
                yield getattr(node, "id", None) or getattr(node, "attr", None)

    namers, outer = set(), set()
    for path in PKG.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "regions.py":
            (dispatch,) = (
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "region_rates"
            )
            assert {"rate_bounds_grid", "service_rates_grid"} <= set(names(dispatch))
            tree.body.remove(dispatch)
        for name in names(tree):
            if name in owners and path.name not in owners[name]:
                namers.add(path.name)
        outer |= {
            path.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "outer"
        }
    assert namers == set()
    assert outer == {"regions.py"}


def test_simulator_imports_no_chain_code():
    # The simulator is the independent oracle for the chain: inside the
    # package it may import only the channel model and GF(2) primitives.
    tree = ast.parse((PKG / "sim.py").read_text(encoding="utf-8"))
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                local.add(node.module)
            else:
                assert node.module.split(".")[0] != "ramcast", node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "ramcast", alias.name
    assert local == {"channel", "gf2"}


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id] + parts[::-1])
    return None


def test_benchmark_names_resolve():
    # perfbench/ wraps and calls these names from the outside; a missing
    # one would only show up there as an absent span or a failed job.
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tracing.body
        if isinstance(node, ast.Assign) and _dotted(node.targets[0]) == "TARGETS"
    )
    assert targets
    for target in targets:
        mod_name, fn_name = target.rsplit(".", 1)
        module = importlib.import_module(f"ramcast.{mod_name}")
        assert callable(getattr(module, fn_name, None)), target

    # job.py reads the package as ``ramcast`` and its simulator as ``sim``.
    job = ast.parse((PERFBENCH / "job.py").read_text(encoding="utf-8"))
    names = {_dotted(node) for node in ast.walk(job) if isinstance(node, ast.Attribute)}
    names = {
        "ramcast." + n if n.startswith("sim.") else n
        for n in names
        if n and n.split(".")[0] in ("ramcast", "sim")
    }
    assert "ramcast.build_chain" in names and "ramcast.sim.run" in names
    import ramcast.cli  # noqa: F401  (job.py imports it before reading ramcast.cli.main)

    for name in sorted(names):
        obj = ramcast
        for attr in name.split(".")[1:]:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)


# Library API for users of random linear coding that neither the package
# nor the benchmark calls.
_CODEC = {"gf2.encode", "gf2.decode"}


def _used_names(tree, skip: str | None = None) -> set[str]:
    """Names a module reads, outside its top-level definition ``skip``:
    loaded names and attributes, and the names it imports."""
    used = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name == skip:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_public_names_are_reached():
    # Each public name is there for the CLI, ``ramcast check`` or the
    # benchmark, so code elsewhere in the package or in perfbench/ uses it.
    # The re-exports of ``__init__`` and the tests do not count.
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in PKG.glob("*.py")
        if path.name != "__init__.py"
    }
    outside = {
        mod: set().union(
            *(_used_names(ast.parse(p.read_text(encoding="utf-8"))) for p in PERFBENCH.glob("*.py")),
            *(_used_names(tree) for other, tree in modules.items() if other != mod),
        )
        for mod in modules
    }
    unreached = []
    for mod, tree in sorted(modules.items()):
        exported = next(
            (
                ast.literal_eval(node.value)
                for node in tree.body
                if isinstance(node, ast.Assign) and _dotted(node.targets[0]) == "__all__"
            ),
            [],
        )
        for name in exported:
            reached = name in outside[mod] or name in _used_names(tree, skip=name)
            if not reached and f"{mod}.{name}" not in _CODEC:
                unreached.append(f"{mod}.{name}")
    assert unreached == []


# Record fields that only the tests read, each with the reader that keeps it.
_TEST_ONLY_FIELDS = {
    # The criterion-3 residual report in test_acceptance.py prints these rows.
    "checks.CheckResult.rows",
    # conftest.chain_states names each state (i, j, k) for the chain oracles;
    # the pass itself needs only the level slices and the fractions.
    "rlc_markov._StateSpace.J",
    "rlc_markov._StateSpace.C",
    # test_state_space_matches_loop_oracle checks each family's edges.
    "rlc_markov._StateSpace.e_fam",
}


def test_record_fields_are_read():
    # A dataclass field is there for a caller: some code in the package,
    # the class's own methods included, or in perfbench/ reads it as an
    # attribute.  A field nothing reads is state the producer keeps in step
    # for no one.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PKG.glob("*.py")}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in PERFBENCH.glob("*.py")]
    read = {
        node.attr
        for tree in [*trees.values(), *bench]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        f"{mod}.{cls.name}.{stmt.target.id}"
        for mod, tree in sorted(trees.items())
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    assert fields
    unread = [f for f in fields if f.rsplit(".", 1)[1] not in read and f not in _TEST_ONLY_FIELDS]
    assert unread == []


def test_write_csv_takes_the_path_first():
    # perfbench/tracing.py sizes each written CSV from the bound argument
    # "path"; under another name that metric would silently break.
    import ramcast.cli

    assert next(iter(inspect.signature(ramcast.cli.write_csv).parameters)) == "path"
