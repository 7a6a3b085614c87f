"""Digital-twin catalog of the production plant.

The catalog is a machine-readable description of every production module:
its skills, its components, and the functionalities those components expose
as HTTP services.  Everything the agents are told about the plant is
rendered from this registry, so adding a module is a data change, not a
code change.
"""

from __future__ import annotations

import re
import string
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple
from urllib.parse import urlsplit

from .jsonread import checked, get, items, nested, read_json
from .parsing import ParseError, is_skill_code, parse_function_steps

# Module kinds with semantics the plant understands.
MODULE_KINDS = ("storage", "inspection", "machining", "painting", "laser", "transport")

# Storage skills must declare which side of the inventory they drive.
STORAGE_ROLES = ("retrieve", "store")

_NO_PARAMS: Mapping[str, str] = MappingProxyType({})


class CatalogError(Exception):
    """The catalog file is malformed or violates a registry invariant."""


class CheckedRecord:
    """Listed before a `NamedTuple` base, runs the record's `_check` on every
    construction, `_replace` included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class Functionality(NamedTuple):
    """A single HTTP-invokable primitive of a module component."""

    name: str
    description: str
    url: str
    parameters: tuple[str, ...] = ()


class Component(NamedTuple):
    id: str
    name: str
    functionalities: tuple[Functionality, ...] = ()


class Skill(NamedTuple):
    """An offered capability of a module, invokable at ``endpoint``.

    ``feature`` names the workpiece feature the skill applies (production
    and inspection skills).  ``role`` marks storage skills as the retrieve
    or store side.  Transport skills carry neither.
    """

    code: str
    description: str
    endpoint: str
    feature: str | None = None
    role: str | None = None


class Module(NamedTuple):
    id: str
    name: str
    kind: str
    # How the module is announced in the manager context, e.g. "An inspection
    # module".  The capability noun lets a module say "capabilities" instead
    # of "skills" without special-casing the renderer.
    display: str
    capability_noun: str
    # Short phrase used in transport demands ("... from the storage module").
    transport_phrase: str | None
    skills: tuple[Skill, ...]
    components: tuple[Component, ...] = ()
    # Extra context paragraphs shown before the functionality list in the
    # operator prompt (only meaningful for modules with functionalities).
    operator_preamble: tuple[str, ...] = ()
    # Technical metadata carried along but never rendered into prompts; the
    # default is read-only, so modules built without it share nothing mutable.
    info: Mapping[str, object] = MappingProxyType({})


class PromptExample(NamedTuple):
    """A verified input/output pair shown in the Examples section."""

    input: str
    output: str


class TransportExample(NamedTuple):
    """Worked operator example, stored as endpoints into the shared template."""

    input: str
    start_module: str
    target_module: str


class PromptAssets(NamedTuple):
    """Fixed prompt text blocks that belong to the plant description."""

    manager_role_goal: str
    manager_rules: tuple[str, ...]
    manager_modules_intro: str
    manager_instructions: str
    manager_examples: tuple[PromptExample, ...]
    operator_role_goal: str
    operator_instructions: str
    operator_examples: tuple[TransportExample, ...]
    # Template for a canonical transport step sequence.  Placeholders:
    # {start}, {target} (module phrases) and {url_<functionality>}.
    transport_output_template: str
    # Template for the transport demand handed to the operator agent.
    transport_demand_template: str


class Registry:
    """Validated catalog with lookup helpers.

    Construction checks every registry invariant and builds every index, so
    any instance (loaded, built directly, or derived by :meth:`rebased`) is
    valid and every lookup is a dict read.  It holds each service URL as a
    path under `base_url`, the catalog's one origin.  Treat as read-only.
    """

    def __init__(self, modules: tuple[Module, ...], prompts: PromptAssets) -> None:
        self.prompts, self.base_url, self._endpoint_paths = prompts, None, set()
        if not modules:
            raise CatalogError("catalog describes no modules")
        self.modules = tuple(m._replace(
            skills=tuple(Skill(s.code, s.description, self._path(s.endpoint, f"module {m.id} skill {s.code}"),
                               s.feature, s.role) for s in m.skills),
            components=tuple(Component(c.id, c.name, tuple(
                Functionality(f.name, f.description, self._path(f.url, f"module {m.id} functionality {f.name}"),
                              f.parameters) for f in c.functionalities)) for c in m.components),
        ) for m in modules)
        self._modules: dict[str, Module] = {}
        self._skills: dict[str, tuple[Module, Skill]] = {}
        self._phrases: dict[str, Module] = {}
        self._features: dict[str, tuple[Module, Skill]] = {}
        self._functionalities: dict[tuple[str, str], Functionality] = {}
        for m in self.modules:
            where = f"module {m.id}"
            if m.kind not in MODULE_KINDS:
                raise CatalogError(f"{where}: unknown kind {m.kind!r}")
            if not m.skills:
                raise CatalogError(f"{where}: a module must offer at least one skill")
            if m.id in self._modules:
                raise CatalogError(f"duplicate module id {m.id!r}")
            self._modules[m.id] = m
            if m.transport_phrase is not None:
                if m.transport_phrase in self._phrases:
                    raise CatalogError(f"transport phrase {m.transport_phrase!r} names two modules")
                self._phrases[m.transport_phrase] = m
            elif m.kind != "transport":  # a transport to it could not be demanded
                raise CatalogError(f"{where}: only the transport module may have no transport phrase")
            for comp in m.components:
                names = [fn.name for fn in comp.functionalities]
                for fn in comp.functionalities:
                    if names.count(fn.name) > 1:
                        raise CatalogError(f"{where}: duplicate functionality {fn.name!r} in {comp.id}")
                    self._functionalities.setdefault((m.id, fn.name), fn)
            for s in m.skills:
                _check_skill(s, where)
                if s.code in self._skills:
                    raise CatalogError(f"duplicate skill code {s.code}")
                self._skills[s.code] = (m, s)
                if s.feature is not None:
                    if s.feature in self._features:
                        raise CatalogError(f"feature {s.feature!r} provided twice")
                    self._features[s.feature] = (m, s)
        # Catalog order of the skills, the planner's tie-break.
        self._ranks = {code: i for i, code in enumerate(self._skills)}

        self._storage = self._single_kind("storage")
        self._transport = self._single_kind("transport")
        # Reversed, so the first storage skill of each role wins.
        self._roles = {s.role: s for s in reversed(self._storage.skills) if s.role is not None}
        for role in STORAGE_ROLES:
            if role not in self._roles:
                raise CatalogError(f"storage module has no {role!r} skill")
        # The transport skill is the first robot skill with no feature or role.
        found = [s for s in self._transport.skills if s.feature is None and s.role is None]
        if not found:
            raise CatalogError("transport module offers no transport skill")
        self._transport_skill = found[0]
        self._output_paths = {f"url_{fn.name}": alias_url(fn.url) for comp in self._transport.components
                              for fn in comp.functionalities}
        if not self._output_paths:
            raise CatalogError(f"transport module {self._transport.id!r} exposes no functionalities")
        self._join(self.base_url)
        self._check_prompts()
        self._transport_calls: dict[tuple[str, str], tuple] = {}  # filled by `transport_calls`

    def _path(self, url: str, where: str) -> str:
        """The path of a service URL; the first one sets `base_url`."""
        parts = _split_url(url)
        if not (parts.scheme and parts.netloc and parts.path):
            raise CatalogError(f"{where}: not an absolute service URL: {url!r}")
        if re.search(r'["\s?#]', url):  # a URL in a prompt ends at whitespace or a '"'
            raise CatalogError(f"{where}: a service URL takes no query, fragment, space or '\"': {url!r}")
        if not is_request_path(parts.path):
            raise CatalogError(f"{where}: a service URL path takes printable ASCII only: {url!r}")
        origin = f"{parts.scheme}://{parts.netloc}"
        self.base_url = self.base_url or origin
        if origin != self.base_url:
            raise CatalogError(f"{where}: {url!r} is not under the catalog's one base URL {self.base_url!r}")
        self._endpoint_paths.add(canonical_url(parts.path))
        return parts.path

    def _join(self, base_url: str) -> None:
        """Set `base_url` and the two tables that join it to paths."""
        self.base_url = base_url
        self._output_urls = {key: base_url + path for key, path in self._output_paths.items()}
        self._endpoints = frozenset(base_url + path for path in self._endpoint_paths)

    def _check_prompts(self) -> None:
        """Refuse prompt text a prompt builder could not use, so that every
        prompt of a run can be built once the registry is, and keep the
        output template's functionalities as the steps of a transport."""
        p = self.prompts
        for agent, role_goal, instructions, examples in (
            ("manager", p.manager_role_goal, p.manager_instructions, p.manager_examples),
            ("operator", p.operator_role_goal, p.operator_instructions, p.operator_examples),
        ):
            for key, text in (("role_goal", role_goal), ("instructions", instructions)):
                if not text.strip():
                    raise CatalogError(f"{agent} {key} must be a string with non-space text, got {text!r}")
            if not examples:
                raise CatalogError(f"{agent} prompts need at least one worked example")
        phrased = [m.id for m in self._phrases.values()]
        for i, example in enumerate(p.operator_examples, start=1):
            for key, module_id in (("start_module", example.start_module), ("target_module", example.target_module)):
                if module_id not in phrased:
                    raise CatalogError(
                        f"operator example {i}: {key} {module_id!r} is no module with a transport phrase"
                    )
        _check_template(p.transport_demand_template, {"start", "target"}, "operator demand_template")
        # The oracle reads each demand back through this template: (name, format spec, conversion) of its fields.
        fields = {f[1:] for f in string.Formatter().parse(p.transport_demand_template) if f[1] is not None}
        if fields != {("start", "", None), ("target", "", None)}:
            raise CatalogError(f"operator demand_template must name {{start}} and {{target}}, with no conversion or "
                               f"format spec, or no demand can be read back: {p.transport_demand_template!r}")
        names = {"start", "target", *self._output_urls}
        _check_template(p.transport_output_template, names, "operator output_template")
        # A rebased registry fills in its URLs under its own base; one written out would still name this one.
        if any(self.base_url in literal for literal, *_ in string.Formatter().parse(p.transport_output_template)):
            raise CatalogError(f"operator output_template writes out the base URL {self.base_url!r}; it names each "
                               f"functionality URL by its {{url_<name>}} placeholder")
        # The plant routes a call by its URL, so a step calls the functionality that its URL names.
        robot = self.module_functionalities(self._transport.id)
        named = {canonical_url(self.base_url + fn.url): fn.name for fn in robot}
        # A run reads each transport's dock targets back from the operator's steps, as the examples show them.
        for i, example in enumerate(p.operator_examples, start=1):
            start, target = self._modules[example.start_module], self._modules[example.target_module]
            text = p.transport_output_template.format(
                start=start.transport_phrase, target=target.transport_phrase, **self._output_urls)
            try:
                steps = parse_function_steps(text)
            except ParseError:
                steps = []
            docked = [move_dock_target(self, s.description) for s in steps if s.action == "move_dock"]
            if docked != [start.id, target.id]:
                raise CatalogError(f"operator example {i}: the output_template's move_dock steps do not dock at "
                                   f"{start.id} and then {target.id} (they read {docked})")
            for s in steps:
                name = named.get(canonical_url(s.url))
                if name is None:
                    raise CatalogError(f"operator example {i}: output_template step {s.step} calls {s.url!r}, which "
                                       f"is no functionality URL of transport module {self._transport.id!r}")
                if name != s.action:
                    raise CatalogError(f"operator example {i}: output_template step {s.step} quotes functionality "
                                       f"{s.action!r}, but its URL names {name!r}")
            # The functionality of each step; the first move_dock docks at the start and the second at the target.
            self._transport_steps = tuple(s.action for s in steps)

    def _single_kind(self, kind: str) -> Module:
        found = [m for m in self.modules if m.kind == kind]
        if len(found) != 1:
            raise CatalogError(f"catalog must have exactly one {kind} module, not {len(found)}")
        return found[0]

    # -- lookups ---------------------------------------------------------

    def module(self, module_id: str) -> Module:
        try:
            return self._modules[module_id]
        except KeyError:
            raise CatalogError(f"unknown module id: {module_id!r}") from None

    def has_module(self, module_id: str) -> bool:
        return module_id in self._modules

    def skill(self, code: str) -> Skill:
        try:
            return self._skills[code][1]
        except KeyError:
            raise CatalogError(f"unknown skill code: {code!r}") from None

    def skill_entry(self, code: str) -> tuple[Module, Skill] | None:
        """(host module, skill) of a catalog skill code, or None."""
        return self._skills.get(code)

    def module_by_phrase(self, phrase: str) -> Module:
        try:
            return self._phrases[phrase]
        except KeyError:
            raise CatalogError(f"no module with transport phrase {phrase!r}") from None

    def storage_module(self) -> Module:
        return self._storage

    def transport_module(self) -> Module:
        return self._transport

    def storage_skill(self, role: str) -> Skill:
        try:
            return self._roles[role]
        except KeyError:
            raise CatalogError(f"storage module has no {role!r} skill") from None

    def transport_skill(self) -> Skill:
        """The inter-module transport skill (first one the robot offers)."""
        return self._transport_skill

    def functionality(self, module_id: str, name: str) -> Functionality:
        fn = self._functionalities.get((module_id, name))
        if fn is None:
            self.module(module_id)  # an unknown module is refused as such
            raise CatalogError(f"module {module_id!r} has no functionality {name!r}")
        return fn

    def output_urls(self) -> dict[str, str]:
        """`url_<name>` of each robot functionality, the operator output
        template's placeholders, in the singular spelling the examples use."""
        return self._output_urls

    def transport_calls(self, start: str, target: str) -> tuple[tuple[str, Mapping[str, str]], ...]:
        """The `(name, params)` calls of one transport from module `start` to module `target`, in the shape
        `PlantSim.apply_functionalities` takes: the operator output template's steps, each the functionality
        that its URL names.  The params are read-only, and each pair's calls are built once."""
        calls = self._transport_calls.get((start, target))
        if calls is None:
            docks = iter((start, target))
            calls = tuple((name, MappingProxyType({"target_module": next(docks)}) if name == "move_dock"
                           else _NO_PARAMS) for name in self._transport_steps)
            if start in self._modules and target in self._modules:  # so the cache holds at most modules² pairs
                self._transport_calls[start, target] = calls
        return calls

    def module_functionalities(self, module_id: str) -> tuple[Functionality, ...]:
        mod = self.module(module_id)
        return tuple(fn for comp in mod.components for fn in comp.functionalities)

    def feature_provider(self, kind: str) -> tuple[Module, Skill]:
        try:
            return self._features[kind]
        except KeyError:
            raise CatalogError(f"no skill provides feature {kind!r}") from None

    def skill_rank(self, code: str) -> int:
        """Position of the skill in catalog order."""
        try:
            return self._ranks[code]
        except KeyError:
            raise CatalogError(f"unknown skill code: {code!r}") from None

    def known_endpoints(self) -> frozenset[str]:
        """Every service URL in the catalog, in canonical form."""
        return self._endpoints

    # -- derivation ------------------------------------------------------

    def rebased(self, base_url: str) -> "Registry":
        """Copy under base_url's origin sharing every index; checks only that a prompt can carry base_url."""
        parts = _split_url(base_url)
        if not parts.scheme or not parts.netloc:
            raise CatalogError(f"base url must be absolute: {base_url!r}")
        if re.search(r'["\s]', base_url):
            raise CatalogError(f"base url {base_url!r} has a space or a '\"', where a URL in a prompt would end")
        copy = object.__new__(type(self))
        vars(copy).update(vars(self))
        copy._join(f"{parts.scheme}://{parts.netloc}")
        return copy


def _split_url(url: str):
    """`urlsplit(url)`, or an empty split where it raises (a host with an unclosed '[', say), which a
    caller refuses as not absolute."""
    try:
        return urlsplit(url)
    except ValueError:
        return urlsplit("")


def is_request_path(path: str) -> bool:
    """Whether an HTTP request line can carry `path`: printable ASCII with no space."""
    return path.isascii() and path.isprintable() and " " not in path


def _check_skill(s: Skill, where: str) -> None:
    if not is_skill_code(s.code):  # the manager's parser could not read it in a plan
        raise CatalogError(f"{where}: bad skill code {s.code!r}")
    if not s.description.strip():
        raise CatalogError(f"{where}: skill {s.code} has an empty description")
    if s.role is not None and s.role not in STORAGE_ROLES:
        raise CatalogError(f"{where}: skill {s.code} has unknown role {s.role!r}")
    if s.feature is not None and s.role is not None:
        raise CatalogError(f"{where}: skill {s.code} has both a feature and a role")


def _check_template(template: str, names: set[str], where: str) -> None:
    """Refuse a prompt template that `str.format` could not fill from
    `names`: a placeholder outside them (positional, indexed or nested in
    a format spec too), an unbalanced brace, or a conversion or format
    spec a string does not take."""
    try:
        for _, name, spec, _ in string.Formatter().parse(template):
            if name is not None and name not in names:
                raise CatalogError(f"{where} names unknown placeholder {{{name}}}; it may name {sorted(names)}")
            if spec:
                _check_template(spec, names, where)
        template.format_map(dict.fromkeys(names, ""))
    except ValueError as exc:
        raise CatalogError(f"{where}: {exc}") from None


_MOVE_DOCK_TARGET_RE = re.compile(r"to (?:the )?(.+?) module")


def move_dock_target(registry: Registry, description: str) -> str | None:
    """Module id a move_dock step drives to, read from its description."""
    for phrase in _MOVE_DOCK_TARGET_RE.findall(description):
        try:
            return registry.module_by_phrase(phrase).id
        except CatalogError:
            continue
    return None


# ---------------------------------------------------------------------------
# URL path aliasing

_PLURAL_SEG = "/functionalities/"
_SINGULAR_SEG = "/functionality/"


def canonical_url(url: str) -> str:
    """Normalize a service URL to the plural functionality path form."""
    return url.replace(_SINGULAR_SEG, _PLURAL_SEG)


def alias_url(url: str) -> str:
    """The accepted singular spelling of a functionality URL."""
    return url.replace(_PLURAL_SEG, _SINGULAR_SEG)


# ---------------------------------------------------------------------------
# Loading

def _load_skill(raw: dict) -> Skill:
    return Skill(get(raw, "code"), get(raw, "description"), get(raw, "endpoint"),
                 get(raw, "feature", default=None), get(raw, "role", default=None))


def _load_functionality(raw: dict) -> Functionality:
    return Functionality(get(raw, "name"), get(raw, "description"), get(raw, "url"),
                         items(raw, "parameters", kind=str, default=()))


def _load_component(raw: dict) -> Component:
    cid = get(raw, "id")
    return Component(cid, get(raw, "name", default=cid), items(raw, "functionalities", _load_functionality, default=()))


def _load_module(raw: dict) -> Module:
    return Module(
        id=get(raw, "id"),
        name=get(raw, "name"),
        kind=get(raw, "kind"),
        display=get(raw, "display"),
        capability_noun=get(raw, "capability_noun", default="skills"),
        transport_phrase=get(raw, "transport_phrase", default=None),
        skills=items(raw, "skills", _load_skill),
        components=items(raw, "components", _load_component, default=()),
        operator_preamble=items(raw, "operator_preamble", kind=str, default=()),
        info=dict(get(raw, "info", dict, {})),
    )


def _load_manager(raw: dict) -> tuple:
    """The manager's fields of `PromptAssets`, in their order."""
    return (get(raw, "role_goal"), items(raw, "rules", kind=str), get(raw, "modules_intro"), get(raw, "instructions"),
            items(raw, "examples", lambda e: PromptExample(get(e, "input"), get(e, "output"))))


def _load_operator(raw: dict) -> tuple:
    """The operator's fields of `PromptAssets`, in their order."""
    examples = items(raw, "examples", lambda e: TransportExample(
        get(e, "input"), get(e, "start_module"), get(e, "target_module")))
    return (get(raw, "role_goal"), get(raw, "instructions"), examples, get(raw, "output_template"),
            get(raw, "demand_template"))


def _load_prompts(raw: dict) -> PromptAssets:
    return PromptAssets(*nested(raw, "manager", _load_manager), *nested(raw, "operator", _load_operator))


def _load_registry(data: dict) -> Registry:
    return Registry(modules=items(data, "modules", _load_module, default=()),
                    prompts=nested(data, "prompts", _load_prompts))


def registry_from_dict(data: dict) -> Registry:
    """The registry a catalog's JSON value describes.  Each value's JSON type is checked here, and a
    message names its JSON path; `Registry` checks what the values mean."""
    return checked(data, dict, _load_registry, CatalogError, "catalog")


def load_catalog(path: str | Path) -> Registry:
    return registry_from_dict(read_json(path, "catalog file"))


def bundled_catalog() -> Registry:
    """The catalog shipped with the package (the reference plant)."""
    return registry_from_dict(read_json(Path(__file__).parent / "data" / "catalog.json", "catalog file"))


# ---------------------------------------------------------------------------
# Context rendering

def render_manager_context(registry: Registry) -> str:
    """Numbered plant description for the manager prompt.

    Process rules come first, then one entry per module listing its skills,
    numbered continuously and in catalog order.
    """
    lines = [f"({i}) {rule}" for i, rule in enumerate(registry.prompts.manager_rules, start=1)]
    lines.append(registry.prompts.manager_modules_intro)
    n = len(registry.prompts.manager_rules)
    # Module entries continue the rule numbering; the intro line is unnumbered.
    for mod in registry.modules:
        n += 1
        parts = ", ".join(f"({s.code}) {s.description}" for s in mod.skills)
        lines.append(f"({n}) {mod.display}. It has the following {mod.capability_noun}: {parts}.")
    return "\n".join(lines)


def render_operator_context(registry: Registry, module_id: str) -> str:
    """Functionality listing for one module, for the operator prompt."""
    mod = registry.module(module_id)
    fns = registry.module_functionalities(module_id)
    if not fns:
        raise CatalogError(f"module {module_id!r} exposes no functionalities")
    lines = list(mod.operator_preamble)
    for i, fn in enumerate(fns, start=1):
        lines.append(f'({i}) Functionality "{fn.name}" {fn.description}. This functionality can be called '
                     f'using the URL "{registry.base_url}{fn.url}".')
    return "\n".join(lines)
