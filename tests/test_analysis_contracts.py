"""Seeded-stream contract linter: the repo is clean, violations are caught."""

import textwrap
from pathlib import Path

from repro.analysis import lint_paths, lint_source, lint_tree
from repro.analysis.contracts import format_contract_report

SRC = Path(__file__).resolve().parent.parent / "src"


def codes(diags):
    return [d.code for d in diags]


class TestRepoIsClean:
    def test_src_tree_passes(self):
        diags = lint_tree(SRC)
        assert diags == [], format_contract_report(diags)


class TestC001DefaultRng:
    def test_flags_np_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        diags = lint_source(src, "src/repro/qaoa/foo.py")
        assert codes(diags) == ["C001"]
        assert "foo.py:2" in diags[0].where

    def test_flags_bare_default_rng_import(self):
        src = textwrap.dedent(
            """
            from numpy.random import default_rng
            gen = default_rng(7)
            """
        )
        assert "C001" in codes(lint_source(src, "src/repro/x.py"))

    def test_sanctioned_module_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert lint_source(src, "src/repro/utils/rng.py") == []


class TestC002GlobalState:
    def test_flags_global_seed_and_draws(self):
        src = textwrap.dedent(
            """
            import numpy as np
            np.random.seed(3)
            v = np.random.rand(10)
            """
        )
        found = codes(lint_source(src, "src/repro/y.py"))
        assert found.count("C002") == 2

    def test_generator_type_annotation_allowed(self):
        src = textwrap.dedent(
            """
            import numpy as np
            def f(rng: np.random.Generator) -> None:
                pass
            seq = np.random.SeedSequence(4)
            """
        )
        assert lint_source(src, "src/repro/z.py") == []


KERNEL = "src/repro/mbqc/some_kernel.py"
NON_KERNEL = "src/repro/qaoa/driver.py"


class TestC003ScalarDrawsInLoops:
    def test_flags_scalar_draw_in_loop(self):
        src = textwrap.dedent(
            """
            def run(ops, rng):
                for op in ops:
                    if rng.random() < 0.5:
                        pass
            """
        )
        assert codes(lint_source(src, KERNEL)) == ["C003"]

    def test_whole_block_draw_allowed(self):
        src = textwrap.dedent(
            """
            def run(ops, rng):
                u = rng.random(len(ops))
                for op in ops:
                    v = rng.integers(3, size=8)
            """
        )
        assert lint_source(src, KERNEL) == []

    def test_outside_kernel_packages_not_flagged(self):
        src = textwrap.dedent(
            """
            def run(ops, rng):
                for op in ops:
                    if rng.random() < 0.5:
                        pass
            """
        )
        assert lint_source(src, NON_KERNEL) == []

    def test_loop_flagged_in_every_scope(self):
        # No scope is exempt: the names that once carried scalar draw
        # paths get the same finding as any other function or class.
        body = """
            def {name}(ops, rng):
                for op in ops:
                    if rng.random() < 0.5:
                        pass
            """
        for name in ("draw_pauli_fault", "_GeneratorDraws", "run_pattern"):
            src = textwrap.dedent(body.format(name=name))
            assert codes(lint_source(src, KERNEL)) == ["C003"], name
        src = textwrap.dedent(
            """
            class _GeneratorDraws:
                def outcomes(self, ops):
                    return [self._rng.integers(2) for _ in ops]
            """
        )
        assert codes(lint_source(src, KERNEL)) == ["C003"]

    def test_scalar_draw_outside_loop_fine(self):
        src = "def pick(rng):\n    return rng.integers(2)\n"
        assert lint_source(src, KERNEL) == []

    def test_comprehension_counts_as_loop(self):
        src = textwrap.dedent(
            """
            def run(ops, rng):
                return [rng.random() for _ in ops]
            """
        )
        assert codes(lint_source(src, KERNEL)) == ["C003"]

    def test_nested_function_resets_loop_context(self):
        # the draw is in a fresh function body, not lexically in the loop
        src = textwrap.dedent(
            """
            def run(ops, rng):
                for op in ops:
                    def thunk():
                        return rng.random(64)
            """
        )
        assert lint_source(src, KERNEL) == []


class TestDrivers:
    def test_lint_paths_reads_files(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(1)\n")
        diags = lint_paths([bad])
        assert codes(diags) == ["C002"]
        assert str(bad) in diags[0].where

    def test_lint_tree_on_single_file(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("import numpy as np\nr = np.random.default_rng()\n")
        assert codes(lint_tree(f)) == ["C001"]

    def test_format_contract_report_clean(self):
        assert format_contract_report([]) == "contracts clean"
