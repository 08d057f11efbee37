"""RPR102 — codec/schema drift checker.

The repository has two hand-maintained encodings whose silent drift is
the nastiest failure mode we have: a field added to a config dataclass
simply *vanishes* on the wire, and nothing crashes — the decoded object
just quietly reverts that field to its default; a field added to a state
class silently changes what the machine-state encoding (and any state
hash taken of it) means.

- ``repro.service.protocol`` encodes :class:`RunSpec` and the 16 config
  dataclasses (``CONFIG_CLASSES`` / ``_SPEC_FIELDS``);
- ``repro.core.epochs`` encodes (and nothing decodes) the full machine
  state against a ~50-class allowlist (``_REGISTRY`` / ``_SKIP_FIELDS``).

Both walk ``dataclasses.fields`` / ``__dict__`` generically, so
the *code* cannot drift — but that also means the code alone contains no
second description to diff against.  This pass therefore checks three
descriptions against each other, all extracted **statically** (pure AST,
no imports — so the canary tests can run the checker against modified
copies of a file without executing them):

1. the real class definitions (dataclass fields, ``__slots__``,
   ``self.x`` assignments, including project-resolvable base classes);
2. the codec's own tables (``CONFIG_CLASSES``, ``_SPEC_FIELDS``,
   ``_REGISTRY``, ``_ENUMS``, ``_SKIP_FIELDS``);
3. the hand-maintained field manifests (``WIRE_FIELDS`` in protocol.py,
   ``STATE_FIELDS`` in epochs.py) — the deliberate, reviewed record of
   every field the wire carries, with types on the RunSpec side so a
   *retype* is drift too.

Any new, renamed, retyped, or removed field shows up as a diff between
(1) and (3); a class added to a registry without a manifest entry, a
skip-field naming nothing, or a manifest entry whose class left the
registry are all findings.  Fix = update the codec + manifest together
(and bump the wire version when the shape changed).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import ModuleInfo, ProjectGraph, dotted_name
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule

__all__ = ["CodecDriftRule", "check_protocol", "check_state_codec"]

_PROTOCOL_MODULE = "repro.service.protocol"
_EPOCHS_MODULE = "repro.core.epochs"
_RUNSPEC_MODULE = "repro.harness.cache"

#: Annotation tokens that are always wire-encodable on the RunSpec side.
_ENCODABLE_TOKENS = frozenset(
    {
        "bool",
        "int",
        "float",
        "str",
        "None",
        "Optional",
        "Tuple",
        "tuple",
        "object",
        "...",
        "SchemeConfig",  # abstract base: concrete schemes are registered
    }
)


class ClassShape:
    """Statically-extracted field set of one class."""

    __slots__ = ("name", "module", "path", "line", "fields", "annotations", "is_dataclass")

    def __init__(self, name: str, module: str, path: str, line: int) -> None:
        self.name = name
        self.module = module
        self.path = path
        self.line = line
        self.fields: List[str] = []  # declaration order, bases first
        self.annotations: Dict[str, str] = {}
        self.is_dataclass = False


def _annotation_text(node: ast.AST) -> str:
    """Normalized annotation text (string annotations unquoted)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return "<unparseable>"


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        dotted = dotted_name(target)
        if dotted in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _find_classdef(module: ModuleInfo, name: str) -> Optional[ast.ClassDef]:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _locate_class(
    graph: ProjectGraph, module_name: str, class_name: str, depth: int = 5
) -> Optional[Tuple[ModuleInfo, ast.ClassDef]]:
    """Find the defining ClassDef, chasing package re-exports."""
    if depth <= 0:
        return None
    module = graph.modules.get(module_name)
    if module is None:
        return None
    node = _find_classdef(module, class_name)
    if node is not None:
        return module, node
    origin = module.imports.get(class_name)
    if origin is not None and "." in origin:
        next_module, next_name = origin.rsplit(".", 1)
        return _locate_class(graph, next_module, next_name, depth - 1)
    return None


def _extract_shape(
    graph: ProjectGraph, module: ModuleInfo, node: ast.ClassDef
) -> ClassShape:
    shape = ClassShape(node.name, module.name, module.path, node.lineno)
    shape.is_dataclass = _is_dataclass_decorated(node)

    # Base classes first: dataclass field order and slots MRO both put
    # inherited fields ahead of the class's own.
    for base in node.bases:
        dotted = dotted_name(base)
        if dotted is None:
            continue
        head, _, rest = dotted.partition(".")
        origin = module.imports.get(head)
        if origin is not None:
            candidate = f"{origin}.{rest}" if rest else origin
            if "." not in candidate:
                continue
            base_module, base_name = candidate.rsplit(".", 1)
        elif rest:
            continue  # attribute base on an unimported name: not resolvable
        else:
            base_module, base_name = module.name, dotted
        located = _locate_class(graph, base_module, base_name)
        if located is None:
            continue
        base_shape = _extract_shape(graph, located[0], located[1])
        for field_name in base_shape.fields:
            if field_name not in shape.fields:
                shape.fields.append(field_name)
                if field_name in base_shape.annotations:
                    shape.annotations[field_name] = base_shape.annotations[field_name]

    def add(field_name: str, annotation: Optional[str] = None) -> None:
        if field_name.startswith("__") or field_name == "self":
            return
        if field_name not in shape.fields:
            shape.fields.append(field_name)
        if annotation is not None:
            shape.annotations[field_name] = annotation

    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ann = _annotation_text(stmt.annotation)
            if ann.startswith("ClassVar"):
                continue
            if shape.is_dataclass:
                add(stmt.target.id, ann)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    if isinstance(stmt.value, (ast.Tuple, ast.List)):
                        for elt in stmt.value.elts:
                            if isinstance(elt, ast.Constant) and isinstance(
                                elt.value, str
                            ):
                                add(elt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(stmt):
                targets: List[ast.AST] = []
                if isinstance(sub, ast.Assign):
                    targets = list(sub.targets)
                elif isinstance(sub, ast.AnnAssign) and sub.target is not None:
                    targets = [sub.target]
                for target in targets:
                    if isinstance(target, ast.Tuple):
                        targets.extend(target.elts)
                        continue
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        add(target.attr)
    return shape


# --------------------------------------------------------------------- #
# Codec-table extraction (from protocol.py / epochs.py ASTs)
# --------------------------------------------------------------------- #


def _assigned_value(module: ModuleInfo, name: str) -> Optional[ast.expr]:
    for stmt in module.tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                return stmt.value if isinstance(stmt, ast.Assign) else stmt.value
    return None


def _registry_class_names(module: ModuleInfo, name: str) -> Optional[List[Tuple[str, int]]]:
    """Class names listed in a ``{cls.__name__: cls for cls in (...)}``."""
    value = _assigned_value(module, name)
    if not isinstance(value, ast.DictComp) or not value.generators:
        return None
    source = value.generators[0].iter
    if not isinstance(source, (ast.Tuple, ast.List)):
        return None
    out: List[Tuple[str, int]] = []
    for elt in source.elts:
        dotted = dotted_name(elt)
        if dotted is not None:
            out.append((dotted.rsplit(".", 1)[-1], elt.lineno))
    return out


def _manifest_entries(
    module: ModuleInfo, name: str
) -> Optional[Dict[str, Tuple[List[Tuple[str, Optional[str]]], int]]]:
    """Parse a manifest dict literal: class -> ([(field, type?)], line)."""
    value = _assigned_value(module, name)
    if not isinstance(value, ast.Dict):
        return None
    out: Dict[str, Tuple[List[Tuple[str, Optional[str]]], int]] = {}
    for key, val in zip(value.keys, value.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            continue
        fields: List[Tuple[str, Optional[str]]] = []
        if isinstance(val, (ast.Tuple, ast.List)):
            for elt in val.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    fields.append((elt.value, None))
                elif isinstance(elt, (ast.Tuple, ast.List)) and len(elt.elts) == 2:
                    first, second = elt.elts
                    if (
                        isinstance(first, ast.Constant)
                        and isinstance(first.value, str)
                        and isinstance(second, ast.Constant)
                        and isinstance(second.value, str)
                    ):
                        fields.append((first.value, second.value))
        out[key.value] = (fields, key.lineno)
    return out


def _spec_field_names(module: ModuleInfo) -> Optional[List[Tuple[str, int]]]:
    value = _assigned_value(module, "_SPEC_FIELDS")
    if not isinstance(value, (ast.Tuple, ast.List)):
        return None
    out: List[Tuple[str, int]] = []
    for elt in value.elts:
        if isinstance(elt, (ast.Tuple, ast.List)) and elt.elts:
            first = elt.elts[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                out.append((first.value, first.lineno))
    return out


def _skip_fields(module: ModuleInfo) -> Optional[Dict[str, Tuple[Set[str], int]]]:
    value = _assigned_value(module, "_SKIP_FIELDS")
    if not isinstance(value, ast.Dict):
        return None
    out: Dict[str, Tuple[Set[str], int]] = {}
    for key, val in zip(value.keys, value.values):
        name = dotted_name(key) if key is not None else None
        if name is None:
            continue
        names: Set[str] = set()
        if isinstance(val, ast.Call):  # frozenset({...})
            for arg in val.args:
                if isinstance(arg, (ast.Set, ast.Tuple, ast.List)):
                    for elt in arg.elts:
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                            names.add(elt.value)
        out[name.rsplit(".", 1)[-1]] = (names, key.lineno)
    return out


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #


def _finding(path: str, line: int, message: str, line_text: str = "") -> Finding:
    return Finding("RPR102", path, line, 1, message, line_text)


def _line_text(module: ModuleInfo, line: int) -> str:
    lines = module.source.splitlines()
    return lines[line - 1].strip() if 1 <= line <= len(lines) else ""


def _encodable(annotation: str, registered: Set[str]) -> bool:
    tokens = (
        annotation.replace("[", " ").replace("]", " ").replace(",", " ").split()
    )
    return all(tok in _ENCODABLE_TOKENS or tok in registered for tok in tokens)


def check_protocol(graph: ProjectGraph) -> List[Finding]:
    """Diff RunSpec + config dataclasses against the protocol codec."""
    module = graph.modules.get(_PROTOCOL_MODULE)
    if module is None:
        return []
    out: List[Finding] = []

    registry = _registry_class_names(module, "CONFIG_CLASSES")
    manifest = _manifest_entries(module, "WIRE_FIELDS")
    spec_fields = _spec_field_names(module)
    if registry is None or manifest is None or spec_fields is None:
        out.append(
            _finding(
                module.path, 1,
                "cannot statically read CONFIG_CLASSES/WIRE_FIELDS/_SPEC_FIELDS "
                "from the protocol module — keep them literal",
            )
        )
        return out
    registered = {name for name, _ in registry}

    # P1 — _SPEC_FIELDS must name exactly RunSpec's dataclass fields.
    located = _locate_class(graph, _RUNSPEC_MODULE, "RunSpec")
    if located is not None:
        spec_module, spec_node = located
        shape = _extract_shape(graph, spec_module, spec_node)
        wire_names = [name for name, _ in spec_fields]
        for field_name in shape.fields:
            if field_name not in wire_names:
                out.append(
                    _finding(
                        shape.path, shape.line,
                        f"RunSpec field `{field_name}` is missing from "
                        f"protocol._SPEC_FIELDS — it would silently not ship "
                        "on the wire",
                        _line_text(spec_module, shape.line),
                    )
                )
        for field_name, line in spec_fields:
            if field_name not in shape.fields:
                out.append(
                    _finding(
                        module.path, line,
                        f"_SPEC_FIELDS names `{field_name}` but RunSpec has no "
                        "such field — stale codec entry",
                        _line_text(module, line),
                    )
                )

    # P2/P3 — every registered class needs a manifest entry that exactly
    # matches its real (name, annotation) field list; every manifest entry
    # needs a registered class (RunSpec rides along in the manifest).
    for class_name, reg_line in registry:
        located = _locate_class(graph, _PROTOCOL_MODULE, class_name)
        if located is None:
            out.append(
                _finding(
                    module.path, reg_line,
                    f"cannot locate class `{class_name}` named in CONFIG_CLASSES",
                    _line_text(module, reg_line),
                )
            )
            continue
        def_module, node = located
        shape = _extract_shape(graph, def_module, node)
        entry = manifest.get(class_name)
        if entry is None:
            out.append(
                _finding(
                    module.path, reg_line,
                    f"config class `{class_name}` has no WIRE_FIELDS manifest "
                    "entry — add one (and bump PROTOCOL_VERSION if the wire "
                    "shape changed)",
                    _line_text(module, reg_line),
                )
            )
            continue
        out.extend(
            _diff_manifest(shape, def_module, module, entry, class_name, registered)
        )
    runspec_entry = manifest.get("RunSpec")
    spec_located = _locate_class(graph, _RUNSPEC_MODULE, "RunSpec")
    if runspec_entry is None:
        out.append(
            _finding(
                module.path, 1,
                "WIRE_FIELDS has no `RunSpec` entry — the spec's own field "
                "list must be manifested alongside the config classes",
            )
        )
    elif spec_located is not None:
        spec_module, spec_node = spec_located
        shape = _extract_shape(graph, spec_module, spec_node)
        out.extend(
            _diff_manifest(
                shape, spec_module, module, runspec_entry, "RunSpec", registered
            )
        )
    for class_name in manifest:
        if class_name != "RunSpec" and class_name not in registered:
            _, line = manifest[class_name]
            out.append(
                _finding(
                    module.path, line,
                    f"WIRE_FIELDS entry `{class_name}` matches no class in "
                    "CONFIG_CLASSES — stale manifest entry",
                    _line_text(module, line),
                )
            )
    return out


def _diff_manifest(
    shape: ClassShape,
    def_module: ModuleInfo,
    codec_module: ModuleInfo,
    entry: Tuple[List[Tuple[str, Optional[str]]], int],
    class_name: str,
    registered: Set[str],
) -> Iterator[Finding]:
    manifest_fields, entry_line = entry
    manifest_names = {name for name, _ in manifest_fields}
    manifest_types = {name: ann for name, ann in manifest_fields if ann is not None}
    for field_name in shape.fields:
        annotation = shape.annotations.get(field_name, "")
        if field_name not in manifest_names:
            yield _finding(
                shape.path, shape.line,
                f"`{class_name}.{field_name}` is not in the wire manifest — "
                "new/renamed field would ship as silent state loss; update "
                "WIRE_FIELDS (and the codec version) deliberately",
                _line_text(def_module, shape.line),
            )
        elif (
            field_name in manifest_types
            and annotation
            and manifest_types[field_name] != annotation
        ):
            yield _finding(
                shape.path, shape.line,
                f"`{class_name}.{field_name}` retyped: declared "
                f"`{annotation}` but the wire manifest says "
                f"`{manifest_types[field_name]}`",
                _line_text(def_module, shape.line),
            )
        if annotation and not _encodable(annotation, registered):
            yield _finding(
                shape.path, shape.line,
                f"`{class_name}.{field_name}: {annotation}` is not wire-"
                "encodable (scalars, tuples, and registered config classes "
                "only)",
                _line_text(def_module, shape.line),
            )
    for field_name in sorted(manifest_names):
        if field_name not in shape.fields:
            yield _finding(
                codec_module.path, entry_line,
                f"WIRE_FIELDS lists `{class_name}.{field_name}` but the class "
                "defines no such field — stale manifest entry",
                _line_text(codec_module, entry_line),
            )


def check_state_codec(graph: ProjectGraph) -> List[Finding]:
    """Diff the machine-state allowlist against the real class shapes."""
    module = graph.modules.get(_EPOCHS_MODULE)
    if module is None:
        return []
    out: List[Finding] = []

    registry = _registry_class_names(module, "_REGISTRY")
    enums = _registry_class_names(module, "_ENUMS")
    manifest = _manifest_entries(module, "STATE_FIELDS")
    skips = _skip_fields(module)
    if registry is None or enums is None or manifest is None or skips is None:
        out.append(
            _finding(
                module.path, 1,
                "cannot statically read _REGISTRY/_ENUMS/STATE_FIELDS/"
                "_SKIP_FIELDS from repro.core.epochs — keep them literal",
            )
        )
        return out
    registered = {name for name, _ in registry}

    # E1 — every allowlisted class's declared fields must match its
    # STATE_FIELDS manifest entry exactly.
    for class_name, reg_line in registry:
        located = _locate_class(graph, _EPOCHS_MODULE, class_name)
        if located is None:
            out.append(
                _finding(
                    module.path, reg_line,
                    f"cannot locate class `{class_name}` named in the machine-"
                    "state allowlist",
                    _line_text(module, reg_line),
                )
            )
            continue
        def_module, node = located
        shape = _extract_shape(graph, def_module, node)
        entry = manifest.get(class_name)
        if entry is None:
            out.append(
                _finding(
                    module.path, reg_line,
                    f"state class `{class_name}` has no STATE_FIELDS manifest "
                    "entry — add its declared fields (and bump "
                    "MACHINE_WIRE_VERSION if the wire shape changed)",
                    _line_text(module, reg_line),
                )
            )
            continue
        manifest_names = {name for name, _ in entry[0]}
        for field_name in shape.fields:
            if field_name not in manifest_names:
                out.append(
                    _finding(
                        shape.path, shape.line,
                        f"state class `{class_name}` grew field `{field_name}` "
                        "not recorded in epochs.STATE_FIELDS — the machine "
                        "encoding would silently change; update the manifest "
                        "(and _SKIP_FIELDS or MACHINE_WIRE_VERSION) "
                        "deliberately",
                        _line_text(def_module, shape.line),
                    )
                )
        for field_name in sorted(manifest_names):
            if field_name not in shape.fields:
                out.append(
                    _finding(
                        module.path, entry[1],
                        f"STATE_FIELDS lists `{class_name}.{field_name}` but "
                        "the class defines no such field — stale manifest "
                        "entry",
                        _line_text(module, entry[1]),
                    )
                )

    # E2 — skip-field entries must name registered classes + real fields.
    for class_name in sorted(skips):
        names, line = skips[class_name]
        if class_name not in registered:
            out.append(
                _finding(
                    module.path, line,
                    f"_SKIP_FIELDS names class `{class_name}` that is not in "
                    "the allowlist",
                    _line_text(module, line),
                )
            )
            continue
        located = _locate_class(graph, _EPOCHS_MODULE, class_name)
        if located is None:
            continue
        shape = _extract_shape(graph, located[0], located[1])
        for skip_name in sorted(names):
            if skip_name not in shape.fields:
                out.append(
                    _finding(
                        module.path, line,
                        f"_SKIP_FIELDS skips `{class_name}.{skip_name}` but the "
                        "class defines no such field — stale skip entry",
                        _line_text(module, line),
                    )
                )

    # E3 — enum allowlist entries must still exist.
    for enum_name, line in enums:
        if _locate_class(graph, _EPOCHS_MODULE, enum_name) is None:
            out.append(
                _finding(
                    module.path, line,
                    f"cannot locate enum `{enum_name}` named in _ENUMS",
                    _line_text(module, line),
                )
            )

    # E4 — manifest entries whose class left the registry are stale.
    for class_name in manifest:
        if class_name not in registered:
            _, line = manifest[class_name]
            out.append(
                _finding(
                    module.path, line,
                    f"STATE_FIELDS entry `{class_name}` matches no class in "
                    "the machine-state allowlist — stale manifest entry",
                    _line_text(module, line),
                )
            )
    return out


def render_state_manifest(graph: ProjectGraph) -> str:
    """Render the STATE_FIELDS literal for the current class shapes.

    Developer aid: run after deliberately changing state-class shape, and
    paste the output over the manifest in ``repro.core.epochs`` (alongside
    the matching ``MACHINE_WIRE_VERSION`` bump).
    """
    module = graph.modules.get(_EPOCHS_MODULE)
    if module is None:
        return ""
    registry = _registry_class_names(module, "_REGISTRY") or []
    lines = ["STATE_FIELDS: Dict[str, Tuple[str, ...]] = {"]
    for class_name, _ in registry:
        located = _locate_class(graph, _EPOCHS_MODULE, class_name)
        if located is None:
            continue
        shape = _extract_shape(graph, located[0], located[1])
        rendered = ", ".join(f'"{name}"' for name in sorted(shape.fields))
        if len(shape.fields) == 1:
            rendered += ","
        lines.append(f'    "{class_name}": ({rendered}),')
    lines.append("}")
    return "\n".join(lines)


class CodecDriftRule(Rule):
    """Registry entry for RPR102 (checked project-wide, not per-file)."""

    code = "RPR102"
    name = "codec-drift"
    summary = "wire codec out of sync with the dataclasses it encodes"
    deep = True
    rationale = (
        "spec_to_wire/_encode_value (repro.service.protocol) and\n"
        "encode_machine (repro.core.epochs) walk dataclass fields and\n"
        "__dict__/__slots__ generically, so a field added to a config\n"
        "dataclass or a state class is encoded by whatever code happens to\n"
        "run — but the *contract* (which fields the wire carries, at which\n"
        "version) is recorded in hand-maintained tables: CONFIG_CLASSES,\n"
        "_SPEC_FIELDS and the WIRE_FIELDS manifest on the protocol side;\n"
        "_REGISTRY, _ENUMS, _SKIP_FIELDS and the STATE_FIELDS manifest on\n"
        "the machine-state side.  This pass statically diffs the real class\n"
        "definitions against those tables and fails on any new, renamed,\n"
        "retyped or removed field, unregistered class, or stale entry — the\n"
        "drift that would otherwise ship as a config field silently lost on\n"
        "the wire, or as a machine-state encoding that changed meaning\n"
        "without a version bump."
    )
    fix_example = (
        "    # after adding `new_knob: int = 0` to AdaptiveConfig:\n"
        "    #   1. add (\"new_knob\", \"int\") to WIRE_FIELDS[\"AdaptiveConfig\"]\n"
        "    #   2. bump PROTOCOL_VERSION if old daemons must reject it\n"
        "    # state side: record the field in STATE_FIELDS (or _SKIP_FIELDS\n"
        "    # if it is a rebuild-on-demand cache) and bump\n"
        "    # MACHINE_WIRE_VERSION when the wire shape changed."
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for finding in check_protocol(graph):
            yield finding
        for finding in check_state_codec(graph):
            yield finding
