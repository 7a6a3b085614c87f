import json

import pytest

from plantagents.catalog import (
    CatalogError,
    Registry,
    _load_module,
    alias_url,
    bundled_catalog,
    canonical_url,
    load_catalog,
    read_json,
    registry_from_dict,
    render_manager_context,
    render_operator_context,
)

MODULE_IDS = [
    "inspection_module",
    "storage_module",
    "robotino_7",
    "cnc_module",
    "painting_module",
    "laser_module",
]

SKILL_CODES = ["I1", "I2", "I3", "S1", "S2", "T1", "T2", "M1", "M2", "M3", "P1", "P2", "L1"]


def test_bundled_catalog_shape(registry):
    assert [m.id for m in registry.modules] == MODULE_IDS
    assert [s.code for m in registry.modules for s in m.skills] == SKILL_CODES


def test_module_lookup(registry):
    mod = registry.module("cnc_module")
    assert mod.kind == "machining"
    assert registry.has_module("cnc_module")
    assert not registry.has_module("cnc")
    with pytest.raises(CatalogError, match="unknown module"):
        registry.module("drill_module")


def test_skill_lookup(registry):
    skill = registry.skill("M1")
    assert skill.feature == "drilled"
    assert registry.skill_host("M1").id == "cnc_module"
    with pytest.raises(CatalogError, match="unknown skill"):
        registry.skill("M9")


def test_storage_and_transport_roles(registry):
    assert registry.storage_module().id == "storage_module"
    assert registry.transport_module().id == "robotino_7"
    assert registry.storage_skill("retrieve").code == "S1"
    assert registry.storage_skill("store").code == "S2"
    assert registry.transport_skill().code == "T1"


def test_feature_provider(registry):
    mod, skill = registry.feature_provider("laser_pattern")
    assert (mod.id, skill.code) == ("laser_module", "L1")
    with pytest.raises(CatalogError):
        registry.feature_provider("welded")


def test_feature_kinds_unique(registry):
    kinds = [s.feature for m in registry.modules for s in m.skills if s.feature]
    assert len(kinds) == len(set(kinds))
    assert set(kinds) == {
        "raw_checked",
        "fault_checked",
        "quality_tested",
        "drilled",
        "milled",
        "polished",
        "coated",
        "paint_pattern",
        "laser_pattern",
    }


def test_module_by_phrase(registry):
    assert registry.module_by_phrase("laser machine").id == "laser_module"
    with pytest.raises(CatalogError):
        registry.module_by_phrase("welding")


def test_functionality_lookup(registry):
    fn = registry.functionality("robotino_7", "move_dock")
    assert fn.parameters == ("target_module",)
    fns = registry.module_functionalities("robotino_7")
    assert [f.name for f in fns] == ["move_dock", "load", "unload", "undock"]
    assert registry.module_functionalities("cnc_module") == ()


def test_known_endpoints_are_canonical(registry):
    urls = registry.known_endpoints()
    assert any("/functionalities/move_dock" in u for u in urls)
    assert not any("/functionality/" in u for u in urls)


def test_url_alias_roundtrip():
    plural = "http://h:1/robotino_7/functionalities/load"
    singular = "http://h:1/robotino_7/functionality/load"
    assert alias_url(plural) == singular
    assert canonical_url(singular) == plural
    assert canonical_url(plural) == plural
    assert alias_url(singular) == singular


def test_rebased_rewrites_host_only(registry):
    moved = registry.rebased("http://127.0.0.1:9999")
    fn = moved.functionality("robotino_7", "load")
    assert fn.url == "http://127.0.0.1:9999/robotino_7/functionalities/load"
    ep = moved.skill("M1").endpoint
    assert ep.startswith("http://127.0.0.1:9999/")
    assert ep.endswith("/cnc_module/skills/M1")
    # original untouched
    assert "129.69.102.129" in registry.skill("M1").endpoint


def test_rebased_preserves_prompt_template_urls(registry):
    moved = registry.rebased("http://127.0.0.1:7")
    assert "{url_move_dock}" in moved.prompts.transport_output_template


def _raw_catalog():
    from importlib import resources

    text = resources.files("plantagents.data").joinpath("catalog.json").read_text("utf-8")
    return json.loads(text)


def test_load_catalog_rejects_duplicate_skill(tmp_path):
    data = _raw_catalog()
    mod = data["modules"][0]
    mod["skills"].append(dict(mod["skills"][0]))
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(data))
    with pytest.raises(CatalogError, match="duplicate skill code"):
        load_catalog(p)


def test_read_json_names_the_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="^catalog file not found: "):
        read_json(tmp_path / "gone.json", "catalog file")
    path = tmp_path / "cat.json"
    for raw in (b"{", b'"\xff"'):
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="^catalog file is not valid JSON: "):
            load_catalog(path)
    with pytest.raises(IsADirectoryError):
        read_json(tmp_path, "catalog file")


def test_load_catalog_rejects_empty():
    with pytest.raises(CatalogError, match="no modules"):
        registry_from_dict({"modules": [], "prompts": _raw_catalog()["prompts"]})


def test_load_catalog_rejects_bad_kind():
    data = _raw_catalog()
    data["modules"][0]["kind"] = "warehouse"
    with pytest.raises(CatalogError, match="kind"):
        registry_from_dict(data)


def test_manager_context_numbering(registry):
    ctx = render_manager_context(registry)
    # nine rules, then the module list continues the numbering
    assert "(1) A production process" in ctx or ctx.startswith("(1)")
    assert "(10)" in ctx
    assert "(15)" in ctx
    assert "(16)" not in ctx
    for mod in registry.modules:
        assert mod.display in ctx


def test_manager_context_capability_nouns(registry):
    ctx = render_manager_context(registry)
    assert "capabilities: (M1)" in ctx
    assert "skills: (I1)" in ctx


def test_operator_context_lists_functionalities(registry):
    ctx = render_operator_context(registry, "robotino_7")
    for name in ("move_dock", "load", "unload", "undock"):
        assert f'Functionality "{name}"' in ctx
    assert "(1)" in ctx and "(4)" in ctx
    assert 'using the URL "http://' in ctx


def test_operator_context_requires_functionalities(registry):
    with pytest.raises(CatalogError):
        render_operator_context(registry, "cnc_module")


def test_bundled_catalog_caches_nothing_mutable():
    a = bundled_catalog()
    b = bundled_catalog()
    assert a.modules == b.modules
    assert a.prompts == b.prompts


def _module(data, module_id):
    return next(m for m in data["modules"] if m["id"] == module_id)


def _skill(data, code):
    return next(s for m in data["modules"] for s in m["skills"] if s["code"] == code)


def _second_storage(data):
    _module(data, "inspection_module")["kind"] = "storage"


def _second_transport(data):
    _module(data, "laser_module")["kind"] = "transport"


def _duplicate_module_id(data):
    _module(data, "laser_module")["id"] = "cnc_module"


def _duplicate_transport_phrase(data):
    _module(data, "laser_module")["transport_phrase"] = _module(data, "cnc_module")["transport_phrase"]


def _feature_and_role(data):
    _skill(data, "S1")["feature"] = "retrieved"


def _no_store_skill(data):
    del _skill(data, "S2")["role"]


def _no_transport_skill(data):
    _skill(data, "T1")["feature"] = "carried"
    _skill(data, "T2")["feature"] = "docked"


def _numeric_feature(data):
    _skill(data, "T1")["feature"] = 5


def _numeric_role(data):
    _skill(data, "S1")["role"] = 5


def _bogus_kind(data):
    _module(data, "cnc_module")["kind"] = "bogus"


def _no_skills(data):
    _module(data, "cnc_module")["skills"] = []


def _bad_code(data):
    _skill(data, "M1")["code"] = "xx"


def _empty_description(data):
    _skill(data, "M1")["description"] = " "


def _endpoint_without_path(data):
    _skill(data, "M1")["endpoint"] = "http://129.69.102.129:5010"


def _functionality_url_without_path(data):
    _module(data, "robotino_7")["components"][0]["functionalities"][1]["url"] = "http://129.69.102.129:5010"


def _unknown_role(data):
    _skill(data, "S1")["role"] = "fetch"


def _duplicate_functionality(data):
    functionalities = _module(data, "robotino_7")["components"][0]["functionalities"]
    functionalities[2]["name"] = functionalities[1]["name"]


# Each mutation of the bundled catalog breaks one registry rule.
BROKEN_RULES = [
    (_second_storage, "exactly one storage module, not 2"),
    (_second_transport, "exactly one transport module, not 2"),
    (_duplicate_module_id, "duplicate module id 'cnc_module'"),
    (_duplicate_transport_phrase, "transport phrase 'CNC' names two modules"),
    (_feature_and_role, "skill S1 has both a feature and a role"),
    (_no_store_skill, "storage module has no 'store' skill"),
    (_no_transport_skill, "transport module offers no transport skill"),
    (_numeric_feature, "skill T1 has a feature that is not a string: 5"),
    (_numeric_role, "skill S1 has a role that is not a string: 5"),
]

# The same for the rules on a module's own entries.
ENTRY_RULES = [
    (_bogus_kind, "module cnc_module: unknown kind 'bogus'"),
    (_no_skills, "module cnc_module: a module must offer at least one skill"),
    (_bad_code, "module cnc_module: bad skill code 'xx'"),
    (_empty_description, "module cnc_module: skill M1 has an empty description"),
    (_endpoint_without_path, "module cnc_module skill M1: not an absolute service URL: "),
    (_functionality_url_without_path, "module robotino_7 functionality load: not an absolute service URL: "),
    (_unknown_role, "module storage_module: skill S1 has unknown role 'fetch'"),
    (_duplicate_functionality, "module robotino_7: duplicate functionality 'load' in functionality_handler_001"),
]


@pytest.mark.parametrize("mutate, match", BROKEN_RULES, ids=[m.__name__.lstrip("_") for m, _ in BROKEN_RULES])
def test_registry_rejects_broken_rule(mutate, match):
    data = _raw_catalog()
    registry_from_dict(data)
    mutate(data)
    with pytest.raises(CatalogError, match=match):
        registry_from_dict(data)


@pytest.mark.parametrize(
    "mutate, match", BROKEN_RULES + ENTRY_RULES, ids=[m.__name__.lstrip("_") for m, _ in BROKEN_RULES + ENTRY_RULES]
)
def test_direct_and_rebased_registries_keep_every_rule(mutate, match):
    """The loaders only map keys to fields, so the registry alone refuses a
    broken rule, with the same message when built directly and when a
    copy is rebased."""
    data = _raw_catalog()
    mutate(data)
    with pytest.raises(CatalogError) as loaded:
        registry_from_dict(data)
    modules = tuple(_load_module(m) for m in data["modules"])
    prompts = bundled_catalog().prompts
    with pytest.raises(CatalogError) as direct:
        Registry(modules=modules, prompts=prompts)
    assert str(direct.value) == str(loaded.value)
    assert match in str(loaded.value)
    # rebased() checks its copy anew: start it from a registry that skipped its checks.
    unchecked = object.__new__(Registry)
    unchecked.modules, unchecked.prompts = modules, prompts
    with pytest.raises(CatalogError) as rebased:
        unchecked.rebased("http://127.0.0.1:9")
    assert str(rebased.value) == str(loaded.value).replace("129.69.102.129:5010", "127.0.0.1:9")


# (template, value, message): each prompt template the prompt builders
# could not fill.  A demand names only {start} and {target}; a transport's
# output also names url_<functionality> of the robot's functionalities.
TEMPLATE_RULES = [
    ("demand", "carry it from {start} to {target} via {hub}", "demand_template names unknown placeholder {hub}"),
    ("demand", "from {start} to {target} at {url_load}", "demand_template names unknown placeholder {url_load}"),
    ("demand", "from {} to {target}", "demand_template names unknown placeholder {}"),
    ("demand", "from {start.upper} to {target}", "demand_template names unknown placeholder {start.upper}"),
    ("demand", "from {start:{hub}} to {target}", "demand_template names unknown placeholder {hub}"),
    ("demand", "from {start to the {target", "demand_template: unexpected '{' in field name"),
    ("demand", "from {start} to {target", "demand_template: expected '}' before end of string"),
    ("demand", "from {start!z} to {target}", "demand_template: Unknown conversion specifier z"),
    ("demand", "from {start:d} to {target}", "demand_template: Unknown format code 'd'"),
    ("demand", 5, "demand_template is not a string: 5"),
    ("output", "call {url_fly} at the {start} module", "output_template names unknown placeholder {url_fly}"),
    ("output", "from {start} to {target}}", "output_template: Single '}' encountered"),
]


@pytest.mark.parametrize("which, template, match", TEMPLATE_RULES)
def test_registry_refuses_a_template_it_could_not_fill(which, template, match):
    """Loaded, built directly or rebased, a registry refuses the template
    with the same message, so no run can meet it half way."""
    data = _raw_catalog()
    data["prompts"]["operator"][f"{which}_template"] = template
    with pytest.raises(CatalogError) as loaded:
        registry_from_dict(data)
    assert match in str(loaded.value)
    bundled = bundled_catalog()
    prompts = bundled.prompts._replace(**{f"transport_{which}_template": template})
    with pytest.raises(CatalogError) as direct:
        Registry(modules=bundled.modules, prompts=prompts)
    unchecked = object.__new__(Registry)
    unchecked.modules, unchecked.prompts = bundled.modules, prompts
    with pytest.raises(CatalogError) as rebased:
        unchecked.rebased("http://127.0.0.1:9")
    assert str(loaded.value) == str(direct.value) == str(rebased.value)


def test_registry_accepts_a_template_that_names_fewer_placeholders():
    data = _raw_catalog()
    data["prompts"]["operator"]["demand_template"] = "(T1) Take it to the {target!s:>3} module."
    data["prompts"]["operator"]["output_template"] = "Call {url_load}, then {{literally}} {url_unload}."
    registry = registry_from_dict(data)
    assert registry.prompts.transport_demand_template.format(target="CNC") == "(T1) Take it to the CNC module."


def test_registry_built_directly_is_checked(registry):
    storage = registry.storage_module()
    with pytest.raises(CatalogError, match="duplicate module id 'storage_module'"):
        Registry(modules=registry.modules + (storage,), prompts=registry.prompts)
    with pytest.raises(CatalogError, match="no modules"):
        Registry(modules=(), prompts=registry.prompts)


def test_skill_rank_is_catalog_order(registry):
    assert [registry.skill_rank(code) for code in SKILL_CODES] == list(range(len(SKILL_CODES)))
    with pytest.raises(CatalogError, match="unknown skill code: 'M9'"):
        registry.skill_rank("M9")


def test_rebased_changes_only_urls(registry):
    moved = registry.rebased("http://127.0.0.1:9999")
    assert moved.prompts == registry.prompts
    for old, new in zip(registry.modules, moved.modules):
        assert new._replace(skills=(), components=()) == old._replace(skills=(), components=())
        assert [s._replace(endpoint="") for s in new.skills] == [s._replace(endpoint="") for s in old.skills]
        old_fns = [(c.id, c.name, f._replace(url="")) for c in old.components for f in c.functionalities]
        new_fns = [(c.id, c.name, f._replace(url="")) for c in new.components for f in c.functionalities]
        assert new_fns == old_fns
