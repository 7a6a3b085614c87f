"""Digital-twin catalog of the production plant.

The catalog is a machine-readable description of every production module:
its skills, its components, and the functionalities those components expose
as HTTP services.  Everything the agents are told about the plant is
rendered from this registry, so adding a module is a data change, not a
code change.
"""

from __future__ import annotations

import json
import string
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple
from urllib.parse import urlsplit, urlunsplit

# Module kinds with semantics the plant understands.
MODULE_KINDS = ("storage", "inspection", "machining", "painting", "laser", "transport")

# Storage skills must declare which side of the inventory they drive.
STORAGE_ROLES = ("retrieve", "store")


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
    valid and every lookup is a dict read.  Treat instances as read-only;
    derive changed copies via :meth:`rebased`.
    """

    def __init__(self, modules: tuple[Module, ...], prompts: PromptAssets) -> None:
        self.modules, self.prompts = modules, prompts
        if not self.modules:
            raise CatalogError("catalog describes no modules")
        self._modules: dict[str, Module] = {}
        self._skills: dict[str, tuple[Module, Skill]] = {}
        self._phrases: dict[str, Module] = {}
        self._features: dict[str, tuple[Module, Skill]] = {}
        urls: list[str] = []
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
            for comp in m.components:
                names = [fn.name for fn in comp.functionalities]
                for fn in comp.functionalities:
                    if names.count(fn.name) > 1:
                        raise CatalogError(f"{where}: duplicate functionality {fn.name!r} in {comp.id}")
                    urls.append(_checked_url(fn.url, f"{where} functionality {fn.name}"))
            for s in m.skills:
                _check_skill(s, where)
                if s.code in self._skills:
                    raise CatalogError(f"duplicate skill code {s.code}")
                self._skills[s.code] = (m, s)
                urls.append(_checked_url(s.endpoint, f"{where} skill {s.code}"))
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
        urls_named = {f"url_{fn.name}" for comp in self._transport.components for fn in comp.functionalities}
        _check_template(self.prompts.transport_demand_template, {"start", "target"}, "operator demand_template")
        _check_template(
            self.prompts.transport_output_template, {"start", "target", *urls_named}, "operator output_template"
        )
        self._endpoints = frozenset(canonical_url(u) for u in urls)

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
        return self._skill_entry(code)[1]

    def skill_host(self, code: str) -> Module:
        return self._skill_entry(code)[0]

    def has_skill(self, code: str) -> bool:
        return code in self._skills

    def _skill_entry(self, code: str) -> tuple[Module, Skill]:
        try:
            return self._skills[code]
        except KeyError:
            raise CatalogError(f"unknown skill code: {code!r}") from None

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
        mod = self.module(module_id)
        for comp in mod.components:
            for fn in comp.functionalities:
                if fn.name == name:
                    return fn
        raise CatalogError(f"module {module_id!r} has no functionality {name!r}")

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
        """Copy of the registry with every service URL moved under base_url.

        Only scheme and network location are rewritten; paths are kept, so
        the identifiers baked into the catalog survive the move to a live
        service instance.
        """
        base = urlsplit(base_url)
        if not base.scheme or not base.netloc:
            raise CatalogError(f"base url must be absolute: {base_url!r}")

        def swap(url: str) -> str:
            parts = urlsplit(url)
            return urlunsplit((base.scheme, base.netloc, parts.path, "", ""))

        modules = tuple(
            m._replace(
                skills=tuple(s._replace(endpoint=swap(s.endpoint)) for s in m.skills),
                components=tuple(
                    c._replace(functionalities=tuple(f._replace(url=swap(f.url)) for f in c.functionalities))
                    for c in m.components
                ),
            )
            for m in self.modules
        )
        return type(self)(modules, self.prompts)


def _check_skill(s: Skill, where: str) -> None:
    if len(s.code) < 2 or not s.code[0].isalpha() or not s.code[1:].isdigit():
        raise CatalogError(f"{where}: bad skill code {s.code!r}")
    if not s.description.strip():
        raise CatalogError(f"{where}: skill {s.code} has an empty description")
    for key, value in (("feature", s.feature), ("role", s.role)):
        if value is not None and not isinstance(value, str):
            raise CatalogError(f"{where}: skill {s.code} has a {key} that is not a string: {value!r}")
    if s.role is not None and s.role not in STORAGE_ROLES:
        raise CatalogError(f"{where}: skill {s.code} has unknown role {s.role!r}")
    if s.feature is not None and s.role is not None:
        raise CatalogError(f"{where}: skill {s.code} has both a feature and a role")


def _check_template(template: object, names: set[str], where: str) -> None:
    """Refuse a prompt template that `str.format` could not fill from
    `names`: a placeholder outside them (positional, indexed or nested in
    a format spec too), an unbalanced brace, or a conversion or format
    spec a string does not take."""
    if not isinstance(template, str):
        raise CatalogError(f"{where} is not a string: {template!r}")
    try:
        for _, name, spec, _ in string.Formatter().parse(template):
            if name is not None and name not in names:
                raise CatalogError(f"{where} names unknown placeholder {{{name}}}; it may name {sorted(names)}")
            if spec:
                _check_template(spec, names, where)
        template.format_map(dict.fromkeys(names, ""))
    except ValueError as exc:
        raise CatalogError(f"{where}: {exc}") from None


def _checked_url(url: str, where: str) -> str:
    parts = urlsplit(url)
    if not parts.scheme or not parts.netloc or not parts.path:
        raise CatalogError(f"{where}: not an absolute service URL: {url!r}")
    return url


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

def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise CatalogError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _load_skill(raw: dict, where: str) -> Skill:
    return Skill(
        code=_require(raw, "code", where),
        description=_require(raw, "description", where),
        endpoint=_require(raw, "endpoint", where),
        feature=raw.get("feature"),
        role=raw.get("role"),
    )


def _load_component(raw: dict, where: str) -> Component:
    cid = _require(raw, "id", where)
    where = f"{where} component {cid}"
    return Component(
        id=cid,
        name=raw.get("name", cid),
        functionalities=tuple(
            Functionality(
                name=_require(f, "name", where),
                description=_require(f, "description", where),
                url=_require(f, "url", where),
                parameters=tuple(f.get("parameters", [])),
            )
            for f in raw.get("functionalities", [])
        ),
    )


def _load_module(raw: dict) -> Module:
    mid = _require(raw, "id", "module")
    where = f"module {mid}"
    return Module(
        id=mid,
        name=_require(raw, "name", where),
        kind=_require(raw, "kind", where),
        display=_require(raw, "display", where),
        capability_noun=raw.get("capability_noun", "skills"),
        transport_phrase=raw.get("transport_phrase"),
        skills=tuple(_load_skill(s, where) for s in _require(raw, "skills", where)),
        components=tuple(_load_component(c, where) for c in raw.get("components", [])),
        operator_preamble=tuple(raw.get("operator_preamble", [])),
        info=dict(raw.get("info", {})),
    )


def _load_prompts(raw: dict) -> PromptAssets:
    man = _require(raw, "manager", "prompts")
    op = _require(raw, "operator", "prompts")
    return PromptAssets(
        manager_role_goal=_require(man, "role_goal", "manager prompts"),
        manager_rules=tuple(_require(man, "rules", "manager prompts")),
        manager_modules_intro=_require(man, "modules_intro", "manager prompts"),
        manager_instructions=_require(man, "instructions", "manager prompts"),
        manager_examples=tuple(
            PromptExample(input=e["input"], output=e["output"])
            for e in _require(man, "examples", "manager prompts")
        ),
        operator_role_goal=_require(op, "role_goal", "operator prompts"),
        operator_instructions=_require(op, "instructions", "operator prompts"),
        operator_examples=tuple(
            TransportExample(
                input=e["input"],
                start_module=e["start_module"],
                target_module=e["target_module"],
            )
            for e in _require(op, "examples", "operator prompts")
        ),
        transport_output_template=_require(op, "output_template", "operator prompts"),
        transport_demand_template=_require(op, "demand_template", "operator prompts"),
    )


def registry_from_dict(data: dict) -> Registry:
    try:
        return Registry(
            modules=tuple(_load_module(m) for m in data.get("modules", [])),
            prompts=_load_prompts(_require(data, "prompts", "catalog")),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise CatalogError(f"catalog entry of the wrong shape: {type(exc).__name__}: {exc}") from exc


def load_catalog(path: str | Path) -> Registry:
    return registry_from_dict(read_json(path, "catalog file"))


def read_json(path: str | Path, what: str):
    """The JSON value in the file at `path`; `what` names the file in errors."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} not found: {p}")
    with p.open("r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{what} is not valid JSON: {exc}") from exc


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
        lines.append(
            f'({i}) Functionality "{fn.name}" {fn.description}. '
            f'This functionality can be called using the URL "{fn.url}".'
        )
    return "\n".join(lines)
