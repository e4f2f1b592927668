"""Per-rule fixtures for the ``repro.analysis`` invariant checker.

Every rule gets a violating, a clean, and a suppressed snippet, so a rule
that silently stops firing (or starts over-firing) is caught here rather
than by a regression slipping into the real tree.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.streaming.engine as engine_module
from repro.analysis.engine import analyze_source
from repro.analysis.rules_registry import check_registry
from repro.anomaly.base import AnomalyDetector

HOT_PATH = "src/repro/core/fixture.py"


def run(source: str, path: str = HOT_PATH):
    return analyze_source(textwrap.dedent(source), path)


def rules(findings):
    return [finding.rule for finding in findings]


# --------------------------------------------------------------- HP001


def test_hotpath_allocation_in_loop_is_flagged():
    findings = run(
        """
        @hotpath
        def advance(xs):
            out = None
            for x in xs:
                out = [x, x]
            return out
        """
    )
    assert rules(findings) == ["HP001"]
    assert "list literal" in findings[0].message


def test_hotpath_comprehension_in_loop_is_flagged():
    findings = run(
        """
        @hotpath
        def advance(xs):
            for x in xs:
                ys = [y + 1 for y in x]
            return ys
        """
    )
    assert rules(findings) == ["HP001"]


def test_hotpath_allocation_outside_loop_is_clean():
    findings = run(
        """
        @hotpath
        def advance(xs):
            scratch = [0.0] * 4
            for x in xs:
                scratch[0] = x
            return scratch
        """
    )
    assert findings == []


def test_unmarked_function_is_not_checked():
    findings = run(
        """
        def cold(xs):
            return [[x] for x in xs for _ in range(2)]
        """
    )
    assert findings == []


def test_tuples_and_index_tuples_are_exempt():
    findings = run(
        """
        @hotpath
        def advance(a, xs):
            for x in xs:
                pair = (x, x)
                a[:, None] = x
            return pair
        """
    )
    assert findings == []


def test_hotpath_allocation_suppressed_with_reason():
    findings = run(
        """
        @hotpath
        def advance(xs):
            for x in xs:
                out = [x]  # repro: allow[HP001] bounded warmup scratch
            return out
        """
    )
    assert findings == []


# --------------------------------------------------------------- HP002


def test_attribute_chain_in_loop_is_flagged():
    findings = run(
        """
        @hotpath
        def advance(self, values):
            for state in self.states:
                state.solver.extend(values)
        """
    )
    assert rules(findings) == ["HP002"]
    assert "state.solver.extend" in findings[0].message


def test_hoisted_attribute_chain_is_clean():
    findings = run(
        """
        @hotpath
        def advance(self, values):
            for state in self.states:
                solver = state.solver
                solver.extend(values)
        """
    )
    assert findings == []


def test_long_chain_is_one_finding():
    findings = run(
        """
        @hotpath
        def advance(self, values):
            for v in values:
                self.a.b.c.d(v)
        """
    )
    assert rules(findings) == ["HP002"]


# --------------------------------------------------------- HP003 / HP004


def test_try_except_in_loop_is_flagged():
    findings = run(
        """
        @hotpath
        def advance(xs):
            for x in xs:
                try:
                    x.go()
                except ValueError:
                    pass
        """
    )
    assert rules(findings) == ["HP003"]


def test_try_except_outside_loop_is_clean():
    findings = run(
        """
        @hotpath
        def advance(xs):
            try:
                for x in xs:
                    x.go()
            except ValueError:
                pass
        """
    )
    assert findings == []


def test_kwargs_forwarding_is_flagged_even_outside_loops():
    findings = run(
        """
        @hotpath
        def advance(target, **options):
            return target(**options)
        """
    )
    assert rules(findings) == ["HP004"]


# --------------------------------------------------------------- HP005


def test_blas_reductions_on_a_solver_hotpath_are_flagged():
    findings = run(
        """
        @hotpath
        def tail(lower, z, x, kernel):
            z[0] -= np.dot(lower[0], z)
            y = lower @ x
            y @= lower
            c = np.correlate(x, kernel, mode="valid")
            e = numpy.einsum("ij,j->i", lower, x)
            m = np.matmul(lower, x)
            return np.linalg.solve(lower, z), y, c, e, m
        """,
        "src/repro/solvers/fixture.py",
    )
    assert rules(findings) == ["HP005"] * 7
    spelled = [finding.message.split("'")[1] for finding in findings]
    assert sorted(spelled) == sorted(
        [
            "np.dot",
            "@",
            "@",
            "np.correlate",
            "numpy.einsum",
            "np.matmul",
            "np.linalg.solve",
        ]
    )


def test_elementwise_arithmetic_on_a_core_hotpath_is_clean():
    findings = run(
        """
        @hotpath
        def sweep(aug, k, out):
            factor = aug[k + 1 :, k] / aug[k, k]
            aug[k + 1 :, k + 1 :] -= factor[:, None] * aug[k, None, k + 1 :]
            np.multiply(aug[k], 2.0, out=out)
            return out.sum(axis=0), aug.dot
        """
    )
    assert findings == []


def test_blas_reductions_are_free_off_the_hotpath_and_outside_core_and_solvers():
    source = """
        {marker}
        def smooth(values, kernel):
            return np.correlate(values, kernel, mode="valid") @ kernel
        """
    assert run(source.format(marker=""), "src/repro/solvers/fixture.py") == []
    assert run(source.format(marker="@hotpath"), "src/repro/decomposition/x.py") == []
    assert rules(run(source.format(marker="@hotpath"))) == ["HP005", "HP005"]


def test_blas_reduction_suppressed_with_reason():
    findings = run(
        """
        @hotpath
        def reference(a, b):
            return np.dot(a, b)  # repro: allow[HP005] oracle, not on a bit-exact path
        """
    )
    assert findings == []


# --------------------------------------------------------------- HP006

NATIVE_PATH = "src/repro/core/fixture.c"


def test_value_changing_c_constructs_are_flagged():
    findings = run(
        """
        #include <math.h>
        #pragma STDC FP_CONTRACT ON
        static float narrow(long double x) { return (float)x; }
        void step(double *a, const double *b, double eps, int n)
        {
            for (int l = 0; l < n; l++) {
                a[l] = fma(a[l], b[l], 1.0);
                a[l] = fmax (fabs(a[l]), eps);
                a[l] = fmin(a[l], sqrt(b[l])) + expf(1.0f);
                a[l] = __builtin_fma(a[l], b[l], 1.0) + __builtin_sqrt(a[l]);
                a[l] = a[l] + sqrtf(1.0f);
            }
        }
        """,
        NATIVE_PATH,
    )
    assert rules(findings) == ["HP006"] * 10
    assert [finding.line for finding in findings] == [
        3, 4, 4, 4, 8, 9, 10, 10, 11, 12
    ]  # fmt: skip
    flagged = sorted(finding.message.split("'")[1] for finding in findings)
    assert flagged == sorted(
        "#pragma|float|float|long double|fma(|fmax(|fmin(|expf("
        "|__builtin_fma(|sqrtf(".split("|")
    )
    assert "fuses a multiply and an add" in next(
        finding.message for finding in findings if "__builtin_fma(" in finding.message
    )
    assert "another precision" in next(
        finding.message for finding in findings if "sqrtf(" in finding.message
    )


def test_fabs_and_sqrt_are_the_admitted_math_calls():
    """Both are correctly rounded by IEEE 754, so libm cannot vary them."""
    findings = run(
        """
        #include <math.h>
        void scale(double *a, const double *b, int n)
        {
            for (int l = 0; l < n; l++)
                a[l] = fabs(a[l]) / sqrt(b[l]) + __builtin_sqrt(__builtin_fabs(b[l]));
        }
        """,
        NATIVE_PATH,
    )
    assert findings == []


def test_plain_double_arithmetic_in_c_is_clean():
    findings = run(
        """
        /* no fma( here, no float, no #pragma: comments are not code */
        #include <math.h>
        #include <stdint.h>
        // d = fmax(d, eps) would drop the NaN
        static const char *NOTE = "float fmin( #pragma";
        #if defined(__has_attribute)
        #if __has_attribute(target_clones)
        #define CLONED __attribute__((target_clones("avx2", "default")))
        #endif
        #endif
        int wide(void) { return __builtin_cpu_supports("avx2"); }
        CLONED void step(double *a, const double *b, double eps, int64_t n)
        {
            for (int64_t l = 0; l < n; l++) {
                double d = __builtin_fabs(a[l] - b[l]);
                double product = d * b[l];
                a[l] = (d >= eps || d != d) ? a[l] - product : eps;
            }
        }
        """,
        NATIVE_PATH,
    )
    assert findings == []


def test_compiler_flags_must_pin_contraction_and_stay_value_safe():
    source = """
        COMPILERS = ("cc", "gcc")
        FLAGS = ({flags})
        """
    safe = '"-O3", "-ffp-contract=off", "-fPIC", "-shared"'
    assert run(source.format(flags=safe), "src/repro/core/_loader.py") == []
    findings = run(
        source.format(flags='"-O3", "-fPIC", "-shared"'), "src/repro/core/_loader.py"
    )
    assert rules(findings) == ["HP006"]
    assert "-ffp-contract=off" in findings[0].message
    for flag in (
        "-ffast-math",
        "-Ofast",
        "-funsafe-math-optimizations",
        "-ffinite-math-only",
        "-fassociative-math",
    ):
        findings = run(
            source.format(flags=f'{safe}, "{flag}"'), "src/repro/solvers/_loader.py"
        )
        assert rules(findings) == ["HP006"], flag
        assert flag in findings[0].message
    # Elsewhere in the tree a FLAGS tuple is somebody else's business.
    assert run(source.format(flags='"-Ofast"'), "src/repro/serving/x.py") == []


def test_the_shipped_native_source_and_flags_are_read(tmp_path):
    """`analyze_paths` picks up *.c beside the Python it walks."""
    from repro.analysis.engine import analyze_paths

    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "kernel.c").write_text("double f(double x) { return fmax(x, 0.0); }\n")
    (package / "_loader.py").write_text('FLAGS = ("-Ofast", "-ffp-contract=off")\n')
    findings = analyze_paths([tmp_path / "src"], registry=False)
    assert [(Path(f.path).name, f.rule) for f in findings] == [
        ("_loader.py", "HP006"),
        ("kernel.c", "HP006"),
    ]


# --------------------------------------------------------------- HP007

BOUND_C = """
#include <stdint.h>
#define CLONED __attribute__((target_clones("avx2", "default")))
/* a comment naming step(double x) { is not a definition */
int64_t step_scratch(int64_t n) { return n; }
const char *step_vector(void) { return "default"; }
CLONED int64_t step(
    int64_t n, const int64_t *columns, double scale,
    double *restrict out, int64_t stride)
{
    return n + (int64_t)(scale * out[columns[0] * stride]);
}
void reset(double *out) { out[0] = 0.0; }
"""

BINDING = """
import ctypes
from pathlib import Path

SOURCE = Path(__file__).with_name("step.c")
_POINTER = ctypes.c_void_p
_INT = ctypes.c_int64
_STEP = (_INT, _POINTER) + (ctypes.c_double,) + (_POINTER, _INT) * 1
ROUTINES = {{
    "step": ({restype}, {argtypes}),
    "step_scratch": (_INT, (_INT,)),
    "step_vector": (ctypes.c_char_p, ()),
    "reset": (None, (_POINTER,)),
}}
"""


def bind(tmp_path, restype="_INT", argtypes="_STEP", c_source=BOUND_C):
    """Findings of a loader module and the C file beside it."""
    (tmp_path / "step.c").write_text(c_source)
    module = tmp_path / "_loader.py"
    source = BINDING.format(restype=restype, argtypes=argtypes)
    module.write_text(source)
    return analyze_source(source, str(module))


def test_ctypes_declarations_that_match_their_prototypes_are_clean(tmp_path):
    assert bind(tmp_path) == []


def test_a_dropped_parameter_is_flagged_with_where_the_list_shifts(tmp_path):
    findings = bind(tmp_path, argtypes="(_INT, _POINTER, _POINTER, _INT)")
    assert rules(findings) == ["HP007", "HP007"]
    assert "takes 5 parameters in step.c, but argtypes declares 4" in (
        findings[0].message
    )
    assert "parameter 3 (scale) is double" in findings[1].message
    assert all(finding.line == 10 for finding in findings)  # the "step" entry


def test_a_wrong_kind_or_return_type_is_flagged(tmp_path):
    findings = bind(tmp_path, argtypes="(_INT, _INT, ctypes.c_double, _POINTER, _INT)")
    assert rules(findings) == ["HP007"]
    assert "parameter 2 (columns) is pointer in step.c" in findings[0].message
    assert "passes int64_t" in findings[0].message
    findings = bind(tmp_path, restype="None")
    assert rules(findings) == ["HP007"]
    assert "step returns int64_t in step.c, but its restype passes void" in (
        findings[0].message
    )
    # A ctypes type outside the four kinds matches no C parameter.
    findings = bind(
        tmp_path, argtypes="(_INT, _POINTER, ctypes.c_float, _POINTER, _INT)"
    )
    assert "parameter 3 (scale) is double" in findings[0].message
    assert "ctypes.c_float" in findings[0].message


def test_a_missing_definition_or_source_is_flagged(tmp_path):
    renamed = BOUND_C.replace("int64_t step(", "int64_t walk(")
    findings = bind(tmp_path, c_source=renamed)
    assert [finding.message for finding in findings] == [
        "step: no definition in step.c"
    ]
    module = tmp_path / "elsewhere" / "_loader.py"
    source = BINDING.format(restype="_INT", argtypes="_STEP")
    findings = analyze_source(source, str(module))
    assert rules(findings) == ["HP007"] and "cannot read step.c" in findings[0].message
    unreadable = source.replace("* 1", "* len(())")
    findings = analyze_source(unreadable, str(tmp_path / "_loader.py"))
    assert rules(findings) == ["HP007"] and "cannot read" in findings[0].message


STRUCT_C = """
#include <stdint.h>
struct step_args {
    int64_t n;
    const int64_t *columns;
    double scale, *out;
};
int64_t step(const struct step_args *args) { return args->n; }
"""

STRUCT_BINDING = """
import ctypes
from pathlib import Path

SOURCE = Path(__file__).with_name("step.c")
_INT = ctypes.c_int64


class StepArgs(ctypes.Structure):
    _fields_ = [{fields}]


ROUTINES = {{"step": (_INT, (ctypes.c_void_p,))}}
STRUCTS = {{"step_args": {cls}}}
"""

STEP_FIELDS = (
    '("n", _INT), ("columns", ctypes.c_void_p), '
    '("scale", ctypes.c_double), ("out", ctypes.c_void_p)'
)


def bind_struct(tmp_path, fields=STEP_FIELDS, cls="StepArgs", c_source=STRUCT_C):
    """Findings of a loader module declaring a structure, and its C file."""
    (tmp_path / "step.c").write_text(c_source)
    module = tmp_path / "_loader.py"
    source = STRUCT_BINDING.format(fields=fields, cls=cls)
    module.write_text(source)
    return analyze_source(source, str(module))


def test_a_structure_that_matches_its_c_declaration_is_clean(tmp_path):
    assert bind_struct(tmp_path) == []


def test_a_structure_out_of_order_or_of_another_kind_is_flagged(tmp_path):
    swapped = (
        '("n", _INT), ("columns", ctypes.c_void_p), '
        '("out", ctypes.c_void_p), ("scale", ctypes.c_double)'
    )
    findings = bind_struct(tmp_path, fields=swapped)
    assert rules(findings) == ["HP007"]
    assert (
        "struct step_args field 3 is double scale in step.c, but "
        "StepArgs._fields_ declares pointer out"
    ) in findings[0].message
    retyped = STEP_FIELDS.replace('("n", _INT)', '("n", ctypes.c_double)')
    findings = bind_struct(tmp_path, fields=retyped)
    assert rules(findings) == ["HP007"]
    assert "field 1 is int64_t n in step.c" in findings[0].message
    assert "declares double n" in findings[0].message


def test_a_structure_a_field_short_or_without_a_declaration_is_flagged(tmp_path):
    short = STEP_FIELDS.rsplit(", (", 1)[0]
    findings = bind_struct(tmp_path, fields=short)
    assert rules(findings) == ["HP007"]
    assert "has 4 fields in step.c, but StepArgs._fields_ declares 3" in (
        findings[0].message
    )
    renamed = STRUCT_C.replace("struct step_args {", "struct other {")
    findings = bind_struct(tmp_path, c_source=renamed)
    assert [finding.message for finding in findings] == [
        "struct step_args: no declaration in step.c"
    ]
    findings = bind_struct(tmp_path, cls="Missing")
    assert rules(findings) == ["HP007"]
    assert "'Missing' is not a module-level class" in findings[0].message


def test_the_shipped_loader_matches_advance_run_c():
    """The real binding, read from the tree: every routine and every
    structure, clean."""
    from repro.analysis.rules_native import check_signatures
    from repro.core import _native

    path = Path(_native.__file__)
    tree = ast.parse(path.read_text())
    assert check_signatures(tree, str(path)) == []
    assert set(_native.ROUTINES) == {
        "advance_run",
        "advance_run_scratch",
        "advance_run_helped",
        "advance_run_vector",
    }
    assert _native.STRUCTS == {
        "advance_side": _native.Side,
        "advance_run_args": _native.Run,
    }


# --------------------------------------------------------------- WAL001


def test_mutation_hoisted_above_wal_append_is_flagged():
    findings = run(
        """
        class Engine:
            def process(self, key, value):
                record = self._process_unlogged(key, value)
                self._wal_append("point", key, value)
                return record
        """
    )
    assert rules(findings) == ["WAL001"]
    assert "_process_unlogged" in findings[0].message


def test_append_before_mutation_is_clean():
    findings = run(
        """
        class Engine:
            def process(self, key, value):
                self._wal_append("point", key, value)
                record = self._process_unlogged(key, value)
                return record
        """
    )
    assert findings == []


def test_store_to_series_dict_before_append_is_flagged():
    findings = run(
        """
        class Engine:
            def put(self, key, state):
                self._series[key] = state
                self._wal_append("put", key)
        """
    )
    assert rules(findings) == ["WAL001"]


@pytest.mark.parametrize(
    "mutation",
    [
        "self._series[key] = None",
        "self._groups[key] = group",
        "self._absorbed[key] = (group, 0)",
        "self._never_absorb.add(key)",
        "del self._absorbed[key]",
    ],
)
def test_store_to_each_fleet_mapping_before_append_is_flagged(mutation):
    findings = run(
        f"""
        class Engine:
            def put(self, key, group):
                {mutation}
                self._wal_append("put", key)
        """
    )
    assert rules(findings) == ["WAL001"]


def test_guarded_fleet_mappings_are_the_engines():
    """The rule guards attributes the engine has, and all of its mappings."""
    from repro.analysis.rules_wal import _MUTATED_ATTRS

    engine = engine_module.MultiSeriesEngine.for_oneshotstl(24)
    assert all(hasattr(engine, name) for name in _MUTATED_ATTRS)
    assert _MUTATED_ATTRS == {"_series", "_groups", "_absorbed", "_never_absorb"}


def test_branch_local_appends_dominate_later_mutation():
    findings = run(
        """
        class Engine:
            def ingest(self, batch):
                if isinstance(batch, dict):
                    self._wal_append("grid", batch)
                else:
                    self._wal_append("rows", batch)
                return self._ingest_unlogged(batch)
        """
    )
    assert findings == []


def test_append_in_one_branch_only_does_not_dominate():
    findings = run(
        """
        class Engine:
            def ingest(self, batch):
                if isinstance(batch, dict):
                    self._wal_append("grid", batch)
                return self._ingest_unlogged(batch)
        """
    )
    assert rules(findings) == ["WAL001"]


def test_append_inside_loop_does_not_dominate():
    findings = run(
        """
        class Engine:
            def ingest(self, rows):
                for row in rows:
                    self._wal_append("row", row)
                return self._ingest_unlogged(rows)
        """
    )
    assert rules(findings) == ["WAL001"]


def test_group_append_after_a_mutation_is_flagged():
    findings = run(
        """
        class Engine:
            def ingest_many(self, batches):
                results = [self._ingest_grid(*batch) for batch in batches]
                self._wal_append([("grid", *batch) for batch in batches])
                return results
        """
    )
    assert rules(findings) == ["WAL001"]
    assert "_ingest_grid" in findings[0].message


def test_group_append_before_the_mutations_is_clean():
    # _commit's shape: one group append, then every record applied.
    findings = run(
        """
        class Engine:
            def _commit(self, records):
                self._wal_append(records)
                results = []
                for record in records:
                    try:
                        results.append(self._apply(record))
                    except ValueError:
                        pass
                return results
        """
    )
    assert findings == []


def test_the_engine_journals_through_one_writer_the_rule_sees():
    # WAL001 finds journaling methods by their ``self._wal_append`` call,
    # so a method appending to the store any other way would be outside
    # the invariant (as ingest_many was, through _wal_append_many).  One
    # method journals, and every public ingest form goes through it.
    tree = ast.parse(Path(engine_module.__file__).read_text())
    engine = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "MultiSeriesEngine"
    )
    store_writers = set()
    journaling = set()
    committing = set()
    for method in engine.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr.startswith("wal_append"):
                    store_writers.add(method.name)
                if node.func.attr == "_wal_append":
                    journaling.add(method.name)
                if node.func.attr == "_commit":
                    committing.add(method.name)
    assert store_writers == {"_wal_append"}
    assert journaling == {"_commit"}
    assert committing == {"process", "ingest_columnar", "ingest_grid", "ingest_many"}


def test_method_without_wal_append_is_not_checked():
    findings = run(
        """
        class Engine:
            def _process_unlogged(self, key, value):
                self._series[key] = value
        """
    )
    assert findings == []


# ------------------------------------------------------------- SLOTS001


def test_unslotted_dataclass_in_hot_module_is_flagged():
    findings = run(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Verdict:
            score: float
        """
    )
    assert rules(findings) == ["SLOTS001"]


def test_slotted_dataclass_is_clean():
    findings = run(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True, slots=True)
        class Verdict:
            score: float
        """
    )
    assert findings == []


def test_unslotted_dataclass_outside_hot_modules_is_clean():
    findings = run(
        """
        from dataclasses import dataclass

        @dataclass
        class Row:
            label: str
        """,
        path="src/repro/anomaly/fixture.py",
    )
    assert findings == []


# -------------------------------------------------------------- SPEC001


def test_non_primitive_spec_field_is_flagged():
    findings = run(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class BadSpec:
            initializer: object
        """,
        path="src/repro/specs.py",
    )
    assert rules(findings) == ["SPEC001"]


def test_primitive_and_nested_spec_fields_are_clean():
    findings = run(
        """
        from dataclasses import dataclass
        from typing import ClassVar

        @dataclass(frozen=True)
        class GoodSpec:
            name: str
            params: dict
            pipeline: PipelineSpec
            window: int | None
            kind: ClassVar[object] = None
        """,
        path="src/repro/specs.py",
    )
    assert findings == []


# -------------------------------------------------------------- PRIV001

ROUTER_PATH = "src/repro/sharding/fixture.py"


def test_private_attribute_of_another_object_is_flagged_above_the_engine():
    # the two reaches the rule was written against, in both upper tiers
    findings = run(
        """
        def normalize(batch):
            return MultiSeriesEngine._grid_from_dict(batch)

        def points_total(engine):
            return sum(engine._series_marker(key) for key in engine.keys())
        """,
        path=ROUTER_PATH,
    )
    assert rules(findings) == ["PRIV001", "PRIV001"]
    assert "MultiSeriesEngine._grid_from_dict" in findings[0].message
    assert "engine._series_marker" in findings[1].message
    served = run("total = backend._engine.points\n", path="src/repro/serving/fixture.py")
    assert rules(served) == ["PRIV001"]


def test_own_private_attributes_dunders_and_public_names_are_clean():
    findings = run(
        """
        class Router:
            def __init__(self):
                self._workers = {}

            @classmethod
            def build(cls):
                return cls._default()

            def total(self, engine):
                return engine.points_total() + len(self._workers) + len(engine.__dict__)
        """,
        path=ROUTER_PATH,
    )
    assert findings == []


def test_private_access_is_free_below_the_upper_tiers():
    source = "marker = engine._series_marker(key)\n"
    assert run(source, path="src/repro/streaming/fixture.py") == []
    assert rules(run(source, path=ROUTER_PATH)) == ["PRIV001"]


def test_private_access_suppressed_with_reason():
    findings = run(
        """
        # repro: allow[PRIV001] test seam: no public form of this counter yet
        marker = engine._series_marker(key)
        """,
        path=ROUTER_PATH,
    )
    assert findings == []


# --------------------------------------------------------------- PKL001

FORMAT_PATH = "src/repro/durability/format.py"


def test_a_pickle_family_import_is_flagged_under_repro():
    findings = run(
        """
        import pickle
        import marshal as wire, json
        from shelve import open as shelf
        from dill import dumps
        import cPickle
        """,
        path="src/repro/sharding/fixture.py",
    )
    assert rules(findings) == ["PKL001"] * 5
    assert "'pickle'" in findings[0].message
    assert [finding.line for finding in findings] == [2, 3, 4, 5, 6]


def test_the_allowlisted_module_and_other_imports_are_clean():
    source = "import pickle\nfrom pickle import HIGHEST_PROTOCOL\n"
    assert run(source, path=FORMAT_PATH) == []
    # ... which names one file, not its directory or its name elsewhere
    assert rules(run(source, path="src/repro/durability/store.py")) == ["PKL001"] * 2
    assert rules(run(source, path="src/repro/streaming/format.py")) == ["PKL001"] * 2
    clean = "import json\nfrom repro.durability.format import encode_segment\n"
    assert run(clean, path="src/repro/streaming/fixture.py") == []
    # outside the package (tests, benchmarks) the rule does not apply
    assert run(source, path="tests/test_fixture.py") == []


def test_pickle_import_suppressed_with_reason():
    findings = run(
        """
        # repro: allow[PKL001] a debugging dump that never reaches a store
        import pickle
        """,
        path="src/repro/core/fixture.py",
    )
    assert findings == []


# --------------------------------------------------------------- MAT001

ENGINE_PATH = "src/repro/streaming/fixture.py"


def test_materialize_on_a_write_path_is_flagged():
    findings = run(
        """
        class Engine:
            def _apply(self, key, value):
                group, column = self._absorbed[key]
                (state,) = group.materialize([column])
                return state.pipeline.process(value)

        states = group.materialize(columns)
        """,
        path=ENGINE_PATH,
    )
    assert rules(findings) == ["MAT001", "MAT001"]
    assert "'group.materialize'" in findings[0].message
    assert "in _apply" in findings[0].message
    assert "module scope" in findings[1].message
    assert [finding.line for finding in findings] == [5, 8]


def test_a_rewind_may_not_materialize():
    # A snapshot is segment bytes and a restore installs columns: neither
    # builds scalar state, however it reaches the groups.  Only the
    # decoder a snapshot's mapping view reads through may.
    findings = run(
        """
        def _decode_segment(source, saved, states, latency_window, peers):
            return [group.materialize(range(len(group.keys))) for group in saved]

        class Engine:
            def snapshot(self):
                absorbed = self._absorbed.items()
                return {k: g.materialize([c]) for k, (g, c) in absorbed}

            def restore(self, snapshot):
                for group in self._groups.values():
                    group.materialize(range(len(group.keys)))
        """,
        path=ENGINE_PATH,
    )
    assert rules(findings) == ["MAT001", "MAT001"]
    assert "in snapshot" in findings[0].message
    assert "in restore" in findings[1].message


def test_the_scalar_boundaries_may_materialize():
    findings = run(
        """
        class Engine:
            def _materialized(self, keys):
                return [group.materialize(columns) for group, columns in keys]

            def _process_unlogged(self, key, value):
                def fresh():
                    return group.materialize([column])
                return fresh()

            def _materialize(self):
                return self.records()
        """,
        path=ENGINE_PATH,
    )
    assert findings == []
    # outside the package (tests, benchmarks) the rule does not apply
    assert run("states = group.materialize([0])\n", path="tests/test_fixture.py") == []


def test_materialize_suppressed_with_reason():
    findings = run(
        """
        def dump(group):
            # repro: allow[MAT001] a debugging dump of one group's states
            return group.materialize(range(len(group.keys)))
        """,
        path=ENGINE_PATH,
    )
    assert findings == []


# ------------------------------------------------------- suppressions


def test_unknown_rule_id_in_suppression_is_a_finding():
    findings = run(
        """
        x = 1  # repro: allow[NOPE42] misremembered id
        """
    )
    assert rules(findings) == ["SUP001"]
    assert "NOPE42" in findings[0].message


def test_suppression_without_reason_is_a_finding():
    findings = run(
        """
        x = 1  # repro: allow[HP001]
        """
    )
    assert rules(findings) == ["SUP002"]


def test_standalone_suppression_covers_next_code_line():
    findings = run(
        """
        @hotpath
        def advance(xs):
            for x in xs:
                # repro: allow[HP001] bounded scratch, reason continues
                # over a second comment line
                out = [x]
            return out
        """
    )
    assert findings == []


def test_suppression_does_not_cover_other_rules():
    findings = run(
        """
        @hotpath
        def advance(self, xs):
            for x in xs:
                self.a.b.c(x)  # repro: allow[HP001] wrong rule named
        """
    )
    assert rules(findings) == ["HP002"]


# ------------------------------------------------------- registry rule


class _UnregisteredDetector(AnomalyDetector):
    """Concrete detector deliberately left out of the registry."""

    def detect(self, train_values, test_values) -> np.ndarray:
        return np.zeros(np.asarray(test_values).size)


def test_unregistered_detector_subclass_is_flagged():
    findings = check_registry(extra_classes=[_UnregisteredDetector])
    ours = [
        finding
        for finding in findings
        if "_UnregisteredDetector" in finding.message
    ]
    assert len(ours) == 1
    assert ours[0].rule == "REG001"
    assert ours[0].path.endswith("test_analysis_rules.py")


def test_registered_components_pass_registry_rule():
    # the only raw finding on the real tree is the (inline-suppressed)
    # PrefilteredDampDetector adapter; every registered component must
    # pass the REG002 spec round-trip outright
    findings = check_registry()
    assert all(
        "PrefilteredDampDetector" in finding.message for finding in findings
    )


# ------------------------------------------------------------------ CLI


def test_cli_reports_findings_and_exit_code(tmp_path):
    bad = tmp_path / "fixture.py"
    bad.write_text(
        textwrap.dedent(
            """
            @hotpath
            def advance(xs):
                for x in xs:
                    y = [x]
                return y
            """
        )
    )
    repo_src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--no-registry", str(bad)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": repo_src, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
    assert f"{bad}:5: HP001" in result.stdout
    assert "1 finding(s)" in result.stderr
