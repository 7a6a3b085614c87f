import json
import re

import pytest

from plantagents.catalog import (
    CatalogError,
    Registry,
    _load_module,
    _load_prompts,
    alias_url,
    bundled_catalog,
    canonical_url,
    load_catalog,
    read_json,
    registry_from_dict,
    render_manager_context,
    render_operator_context,
)
from plantagents.jsonread import checked, items, nested

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
    with pytest.raises(CatalogError, match="unknown skill"):
        registry.skill("M9")
    assert registry.skill_entry("M1") == (registry.module("cnc_module"), skill)
    assert registry.skill_entry("M9") is None


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
    """Service URLs are paths under the registry's one base URL, and a
    rebased copy moves only that base."""
    moved = registry.rebased("http://127.0.0.1:9999")
    assert moved.base_url == "http://127.0.0.1:9999"
    assert moved.functionality("robotino_7", "load").url == "/robotino_7/functionalities/load"
    assert moved.skill("M1").endpoint == "/cnc_module/skills/M1"
    assert "http://127.0.0.1:9999/robotino_7/functionalities/load" in moved.known_endpoints()
    assert 'using the URL "http://127.0.0.1:9999/robotino_7/functionalities/load"' in render_operator_context(
        moved, "robotino_7")
    # original untouched
    assert registry.base_url == "http://129.69.102.129:5010"
    assert "http://129.69.102.129:5010/cnc_module/skills/M1" in registry.known_endpoints()


def test_bundled_transport_calls_are_the_five_template_steps(registry):
    """The bundled template's steps, read as the plant calls them, with
    read-only params; a rebased copy gives the same calls."""
    calls = registry.transport_calls("storage_module", "cnc_module")
    assert calls == (
        ("move_dock", {"target_module": "storage_module"}),
        ("load", {}),
        ("undock", {}),
        ("move_dock", {"target_module": "cnc_module"}),
        ("unload", {}),
    )
    with pytest.raises(TypeError):
        calls[0][1]["target_module"] = "laser_module"
    assert registry.rebased("http://127.0.0.1:9999").transport_calls("storage_module", "cnc_module") == calls


@pytest.mark.parametrize("base", ['http://a"b:1', "http://a b:1", "http://h:1/a path", "http://h:1\t"])
def test_rebased_refuses_a_base_url_a_prompt_cannot_carry(registry, base):
    """A prompt's URL ends at a space or a '"', so an operator's steps
    could not name a URL under such a base."""
    with pytest.raises(CatalogError) as refused:
        registry.rebased(base)
    assert str(refused.value).startswith(f"base url {base!r} has a space or a '\"'")


def test_rebased_refuses_a_relative_base_url(registry):
    with pytest.raises(CatalogError, match="^base url must be absolute: '/plant'$"):
        registry.rebased("/plant")


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


@pytest.mark.parametrize("drop, message", [
    (lambda data: data.pop("prompts"), "catalog: missing required key 'prompts'"),
    (lambda data: _module(data, "cnc_module").pop("id"), "modules[3]: missing required key 'id'"),
    (lambda data: _module(data, "cnc_module").pop("name"), "modules[3]: missing required key 'name'"),
    (lambda data: _skill(data, "M1").pop("endpoint"), "modules[3].skills[0]: missing required key 'endpoint'"),
    (lambda data: data["prompts"]["manager"].pop("rules"), "prompts.manager: missing required key 'rules'"),
], ids=["prompts", "module-id", "module-name", "skill-endpoint", "manager-rules"])
def test_load_catalog_names_a_missing_required_key(drop, message):
    data = _raw_catalog()
    drop(data)
    with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
        registry_from_dict(data)


@pytest.mark.parametrize("put, message", [
    (lambda data: data.update(modules={"a": 1}), "modules: expected list, got object"),
    (lambda data: data.update(modules=[1]), "modules[0]: expected object, got number"),
    (lambda data: data["modules"][2].update(skills={"a": 1}), "modules[2].skills: expected list, got object"),
    (lambda data: data["modules"][2]["skills"].append("T3"), "modules[2].skills[2]: expected object, got string"),
    (lambda data: data["modules"][0].update(components=5), "modules[0].components: expected list, got number"),
    (lambda data: data["modules"][2].update(components=[None]), "modules[2].components[0]: expected object, got null"),
    (lambda data: data["modules"][2]["components"][0].update(functionalities=True),
     "modules[2].components[0].functionalities: expected list, got boolean"),
    (lambda data: data["modules"][2]["components"][0]["functionalities"].append([]),
     "modules[2].components[0].functionalities[4]: expected object, got list"),
    (lambda data: data["modules"][1].update(info="x"), "modules[1].info: expected object, got string"),
], ids=["modules", "module", "skills", "skill", "components", "component", "functionalities", "functionality",
        "info"])
def test_load_catalog_names_the_json_path_of_a_container_of_the_wrong_type(put, message):
    """Each container is checked before it is read, so a skill list that is
    an object is not read as its keys, and no TypeError escapes."""
    data = _raw_catalog()
    put(data)
    with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
        registry_from_dict(data)


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


def _module_without_transport_phrase(data):
    _module(data, "inspection_module")["transport_phrase"] = None


def _move_dock_step_reworded(data):
    operator = data["prompts"]["operator"]
    first, rest = operator["output_template"].split("\n(2)", 1)
    operator["output_template"] = first.replace(
        "Move the transport robot to the {start} module and dock it", "Dock the transport robot at the {start} station"
    ) + "\n(2)" + rest


def _load_step_calls_unload(data):
    operator = data["prompts"]["operator"]
    operator["output_template"] = operator["output_template"].replace(
        'functionality "load" using the URL "{url_load}"', 'functionality "load" using the URL "{url_unload}"')


def _step_calls_a_url_elsewhere(data):
    operator = data["prompts"]["operator"]
    operator["output_template"] = operator["output_template"].replace(
        '"{url_undock}"', '"http://10.0.0.1:5010/robotino_7/functionalities/undock"')


def _step_writes_out_a_robot_url(data):
    operator = data["prompts"]["operator"]
    operator["output_template"] = operator["output_template"].replace(
        '"{url_load}"', '"http://129.69.102.129:5010/robotino_7/functionality/load"')


def _feature_and_role(data):
    _skill(data, "S1")["feature"] = "retrieved"


def _no_store_skill(data):
    del _skill(data, "S2")["role"]


def _no_transport_skill(data):
    _skill(data, "T1")["feature"] = "carried"
    _skill(data, "T2")["feature"] = "docked"


def _feature_twice(data):
    _skill(data, "M2")["feature"] = _skill(data, "M1")["feature"]


def _bogus_kind(data):
    _module(data, "cnc_module")["kind"] = "bogus"


def _no_skills(data):
    _module(data, "cnc_module")["skills"] = []


def _bad_code(data):
    _skill(data, "M1")["code"] = "xx"


def _superscript_digit_code(data):
    _skill(data, "M1")["code"] = "M²"


def _accented_letter_code(data):
    _skill(data, "I1")["code"] = "é1"


def _empty_description(data):
    _skill(data, "M1")["description"] = " "


def _endpoint_without_path(data):
    _skill(data, "M1")["endpoint"] = "http://129.69.102.129:5010"


def _endpoint_with_an_unclosed_bracket(data):
    _skill(data, "M1")["endpoint"] = "http://[129.69.102.129:5010/cnc_module/skills/M1"


def _functionality_url_without_path(data):
    _module(data, "robotino_7")["components"][0]["functionalities"][1]["url"] = "http://129.69.102.129:5010"


def _second_origin(data):
    _skill(data, "M2")["endpoint"] = "http://10.0.0.1:5010/cnc_module/skills/M2"


def _url_with_query(data):
    _module(data, "robotino_7")["components"][0]["functionalities"][1]["url"] += "?fast=1"


def _url_with_fragment(data):
    _skill(data, "L1")["endpoint"] += "#top"


def _quote_in_the_origin(data):
    for m in data["modules"]:
        for s in m["skills"]:
            s["endpoint"] = s["endpoint"].replace("129.69.102.129:5010", 'a"b:1')
        for c in m.get("components", []):
            for f in c["functionalities"]:
                f["url"] = f["url"].replace("129.69.102.129:5010", 'a"b:1')


def _space_in_a_path(data):
    _skill(data, "M2")["endpoint"] = "http://129.69.102.129:5010/cnc module/skills/M2"


def _quote_in_a_path(data):
    _module(data, "robotino_7")["components"][0]["functionalities"][1]["url"] += '"'


def _non_ascii_path(data):
    _skill(data, "I1")["endpoint"] = "http://129.69.102.129:5010/inspection_module/skills\u00e9/I1"


def _control_character_in_a_path(data):
    _module(data, "robotino_7")["components"][0]["functionalities"][1]["url"] += "\x7f"


def _unknown_role(data):
    _skill(data, "S1")["role"] = "fetch"


def _duplicate_functionality(data):
    functionalities = _module(data, "robotino_7")["components"][0]["functionalities"]
    functionalities[2]["name"] = functionalities[1]["name"]


def _blank_manager_role_goal(data):
    data["prompts"]["manager"]["role_goal"] = " "


def _blank_operator_role_goal(data):
    data["prompts"]["operator"]["role_goal"] = "  "


def _no_manager_examples(data):
    data["prompts"]["manager"]["examples"] = []


def _no_operator_examples(data):
    data["prompts"]["operator"]["examples"] = []


def _example_starts_at_the_robot(data):
    data["prompts"]["operator"]["examples"][0]["start_module"] = "robotino_7"


def _example_targets_an_unknown_module(data):
    data["prompts"]["operator"]["examples"][0]["target_module"] = "foundry_module"


def _robot_without_functionalities(data):
    _module(data, "robotino_7")["components"] = []


def _demand_without_start(data):
    data["prompts"]["operator"]["demand_template"] = "To the {target}."


def _demand_with_a_conversion(data):
    data["prompts"]["operator"]["demand_template"] = "From the {start!s} module to the {target} module."


def _demand_with_a_format_spec(data):
    data["prompts"]["operator"]["demand_template"] = "From the {start} module to the {target:>3} module."


# Each mutation of the bundled catalog breaks one registry rule.
BROKEN_RULES = [
    (_second_storage, "exactly one storage module, not 2"),
    (_second_transport, "exactly one transport module, not 2"),
    (_duplicate_module_id, "duplicate module id 'cnc_module'"),
    (_duplicate_transport_phrase, "transport phrase 'CNC' names two modules"),
    # No transport to or from it could be demanded.
    (_module_without_transport_phrase,
     "module inspection_module: only the transport module may have no transport phrase"),
    (_feature_and_role, "skill S1 has both a feature and a role"),
    (_no_store_skill, "storage module has no 'store' skill"),
    (_no_transport_skill, "transport module offers no transport skill"),
    (_feature_twice, "feature 'drilled' provided twice"),
    # The prompt text: every prompt a run builds can be built once the registry is.
    (_blank_manager_role_goal, "manager role_goal must be a string with non-space text, got ' '"),
    (_blank_operator_role_goal, "operator role_goal must be a string with non-space text, got '  '"),
    (_no_manager_examples, "manager prompts need at least one worked example"),
    (_no_operator_examples, "operator prompts need at least one worked example"),
    (_example_starts_at_the_robot,
     "operator example 1: start_module 'robotino_7' is no module with a transport phrase"),
    (_example_targets_an_unknown_module,
     "operator example 1: target_module 'foundry_module' is no module with a transport phrase"),
    (_robot_without_functionalities, "transport module 'robotino_7' exposes no functionalities"),
    # A demand the oracle could not read back through its template.
    (_demand_without_start, "operator demand_template must name {start} and {target}"),
    (_demand_with_a_conversion, "with no conversion or format spec, or no demand can be read back"),
    (_demand_with_a_format_spec, "with no conversion or format spec, or no demand can be read back"),
    # A run could not read the dock targets back from the operator's steps.
    (_move_dock_step_reworded, "operator example 1: the output_template's move_dock steps do not dock at "
                               "laser_module and then cnc_module"),
    # A run calls the functionality that a step's URL names, and a transport calls only the robot's.
    (_load_step_calls_unload, "operator example 1: output_template step 2 quotes functionality 'load', but its "
                              "URL names 'unload'"),
    (_step_calls_a_url_elsewhere, "operator example 1: output_template step 3 calls "
                                  "'http://10.0.0.1:5010/robotino_7/functionalities/undock', which is no "
                                  "functionality URL of transport module 'robotino_7'"),
    # A rebased registry's runs call its own base, so the template names each URL by its placeholder.
    (_step_writes_out_a_robot_url, "operator output_template writes out the base URL "
                                   "'http://129.69.102.129:5010'; it names each functionality URL by its "
                                   "{url_<name>} placeholder"),
    # Every service URL is a path under the catalog's one base URL.
    (_second_origin, "module cnc_module skill M2: 'http://10.0.0.1:5010/cnc_module/skills/M2' is not under the "
                     "catalog's one base URL 'http://129.69.102.129:5010'"),
    (_url_with_query, "module robotino_7 functionality load: a service URL takes no query, fragment, space or "
                      "'\"': 'http://129.69.102.129:5010/robotino_7/functionalities/load?fast=1'"),
    (_url_with_fragment, "module laser_module skill L1: a service URL takes no query, fragment, space or '\"': "
                         "'http://129.69.102.129:5010/laser_module/skills/L1#top'"),
    # A URL in a prompt ends at a space or a '"', so the operator could not name one that has either.
    (_quote_in_the_origin, "module inspection_module skill I1: a service URL takes no query, fragment, space or "
                           "'\"': 'http://a\"b:1/inspection_module/skills/I1'"),
    (_space_in_a_path, "module cnc_module skill M2: a service URL takes no query, fragment, space or '\"': "
                       "'http://129.69.102.129:5010/cnc module/skills/M2'"),
    (_quote_in_a_path, "module robotino_7 functionality load: a service URL takes no query, fragment, space or "
                       "'\"': 'http://129.69.102.129:5010/robotino_7/functionalities/load\"'"),
    # An HTTP request line carries a path of printable ASCII only.
    (_non_ascii_path, "module inspection_module skill I1: a service URL path takes printable ASCII only: "
                      "'http://129.69.102.129:5010/inspection_module/skills\u00e9/I1'"),
    (_control_character_in_a_path, "module robotino_7 functionality load: a service URL path takes printable "
                                   "ASCII only: 'http://129.69.102.129:5010/robotino_7/functionalities/load\\x7f'"),
]

def _numeric_feature(data):
    _skill(data, "T1")["feature"] = 5


def _numeric_role(data):
    _skill(data, "S1")["role"] = 5


def _numeric_manager_instructions(data):
    data["prompts"]["manager"]["instructions"] = 5


def _numeric_operator_instructions(data):
    data["prompts"]["operator"]["instructions"] = 5


def _numeric_modules_intro(data):
    data["prompts"]["manager"]["modules_intro"] = 5


def _numeric_demand_template(data):
    data["prompts"]["operator"]["demand_template"] = 5


def _numeric_module_id(data):
    _module(data, "inspection_module")["id"] = 5


def _list_display(data):
    _module(data, "inspection_module")["display"] = [1]


def _null_capability_noun(data):
    _module(data, "cnc_module")["capability_noun"] = None


def _boolean_transport_phrase(data):
    _module(data, "cnc_module")["transport_phrase"] = True


def _numeric_skill_code(data):
    _skill(data, "I1")["code"] = 5


def _null_component_name(data):
    _module(data, "robotino_7")["components"][0]["name"] = None


def _null_example_input(data):
    data["prompts"]["manager"]["examples"][0]["input"] = None


def _numeric_example_start(data):
    data["prompts"]["operator"]["examples"][0]["start_module"] = 1.5


# A value of the wrong JSON type is refused at load, named by its JSON path:
# null passes only for a skill's feature and role and a module's
# transport_phrase, and an optional key's default is no licence for null.
WRONG_TYPES = [
    (_numeric_feature, "modules[2].skills[0].feature: expected string, got number"),
    (_numeric_role, "modules[1].skills[0].role: expected string, got number"),
    (_numeric_manager_instructions, "prompts.manager.instructions: expected string, got number"),
    (_numeric_operator_instructions, "prompts.operator.instructions: expected string, got number"),
    (_numeric_modules_intro, "prompts.manager.modules_intro: expected string, got number"),
    (_numeric_demand_template, "prompts.operator.demand_template: expected string, got number"),
    (_numeric_module_id, "modules[0].id: expected string, got number"),
    (_list_display, "modules[0].display: expected string, got list"),
    (_null_capability_noun, "modules[3].capability_noun: expected string, got null"),
    (_boolean_transport_phrase, "modules[3].transport_phrase: expected string, got boolean"),
    (_numeric_skill_code, "modules[0].skills[0].code: expected string, got number"),
    (_null_component_name, "modules[2].components[0].name: expected string, got null"),
    (_null_example_input, "prompts.manager.examples[0].input: expected string, got null"),
    (_numeric_example_start, "prompts.operator.examples[0].start_module: expected string, got number"),
]

# The same for the rules on a module's own entries.
ENTRY_RULES = [
    (_bogus_kind, "module cnc_module: unknown kind 'bogus'"),
    (_no_skills, "module cnc_module: a module must offer at least one skill"),
    (_bad_code, "module cnc_module: bad skill code 'xx'"),
    # A code the manager's parser reads in no plan, so no job could name the skill.
    (_superscript_digit_code, "module cnc_module: bad skill code 'M²'"),
    (_accented_letter_code, "module inspection_module: bad skill code 'é1'"),
    (_empty_description, "module cnc_module: skill M1 has an empty description"),
    (_endpoint_without_path, "module cnc_module skill M1: not an absolute service URL: "),
    (_endpoint_with_an_unclosed_bracket, "module cnc_module skill M1: not an absolute service URL: "
                                         "'http://[129.69.102.129:5010/cnc_module/skills/M1'"),
    (_functionality_url_without_path, "module robotino_7 functionality load: not an absolute service URL: "),
    (_unknown_role, "module storage_module: skill S1 has unknown role 'fetch'"),
    (_duplicate_functionality, "module robotino_7: duplicate functionality 'load' in functionality_handler_001"),
]


@pytest.mark.parametrize(
    "mutate, match", BROKEN_RULES + WRONG_TYPES, ids=[m.__name__.lstrip("_") for m, _ in BROKEN_RULES + WRONG_TYPES]
)
def test_registry_rejects_broken_rule(mutate, match):
    data = _raw_catalog()
    registry_from_dict(data)
    mutate(data)
    with pytest.raises(CatalogError) as refused:
        registry_from_dict(data)
    assert match in str(refused.value)


# (mutate, message, which refuses it): the registry a rule of meaning, the loader a value's JSON type.
REFUSALS = [(m, match, "registry") for m, match in BROKEN_RULES + ENTRY_RULES] + [
    (m, match, "loader") for m, match in WRONG_TYPES]


@pytest.mark.parametrize("mutate, match, refused_by", REFUSALS, ids=[m.__name__.lstrip("_") for m, _, _ in REFUSALS])
def test_direct_and_rebased_registries_keep_every_rule(mutate, match, refused_by):
    """`registry_from_dict` hands the loader's parts to `Registry` and adds
    no rule: the loader alone refuses a value of the wrong JSON type, the
    registry alone a broken rule of meaning, with the same message when
    built directly.  A rebased copy shares the checked indexes of a
    registry that was built, so it cannot break a rule either."""
    data = _raw_catalog()
    mutate(data)
    with pytest.raises(CatalogError) as loaded:
        registry_from_dict(data)

    def parts():
        modules = checked(data, dict, lambda d: items(d, "modules", _load_module), CatalogError, "catalog")
        return modules, checked(data, dict, lambda d: nested(d, "prompts", _load_prompts), CatalogError, "catalog")

    if refused_by == "loader":
        with pytest.raises(CatalogError) as direct:
            parts()
    else:
        modules, prompts = parts()
        with pytest.raises(CatalogError) as direct:
            Registry(modules=modules, prompts=prompts)
    assert str(direct.value) == str(loaded.value)
    assert match in str(loaded.value)


def _set_rules(data, value):
    data["prompts"]["manager"]["rules"] = value


def _set_preamble(data, value):
    _module(data, "robotino_7")["operator_preamble"] = value


def _set_parameters(data, value):
    _module(data, "robotino_7")["components"][0]["functionalities"][0]["parameters"] = value


# (where the list goes, a value that is no list of strings, the message).
STRING_LIST_RULES = [
    (_set_rules, "No skill twice.", "prompts.manager.rules: expected list, got string"),
    (_set_rules, ["No skill twice.", 2], "prompts.manager.rules[1]: expected string, got number"),
    (_set_preamble, "You drive the robot.", "modules[2].operator_preamble: expected list, got string"),
    (_set_preamble, [None], "modules[2].operator_preamble[0]: expected string, got null"),
    (_set_parameters, "target_module",
     "modules[2].components[0].functionalities[0].parameters: expected list, got string"),
    (_set_parameters, [{"name": "target_module"}],
     "modules[2].components[0].functionalities[0].parameters[0]: expected string, got object"),
]


@pytest.mark.parametrize(
    "put, value, message", STRING_LIST_RULES,
    ids=[f"{put.__name__.removeprefix('_set_')}-{'string' if isinstance(value, str) else 'item'}"
         for put, value, _ in STRING_LIST_RULES],
)
def test_a_list_of_strings_is_not_read_from_a_string_or_other_items(put, value, message):
    """A string where the catalog needs a list of strings is refused at
    load, not split into characters (the manager context once read
    `(1) N | (2) o | ...`), and so is a list with an item that is no
    string."""
    data = _raw_catalog()
    put(data, value)
    with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
        registry_from_dict(data)


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
    ("output", "call {url_fly} at the {start} module", "output_template names unknown placeholder {url_fly}"),
    ("output", "from {start} to {target}}", "output_template: Single '}' encountered"),
]


@pytest.mark.parametrize("which, template, match", TEMPLATE_RULES)
def test_registry_refuses_a_template_it_could_not_fill(which, template, match):
    """Loaded or built directly, a registry refuses the template with the
    same message, so no run can meet it half way."""
    data = _raw_catalog()
    data["prompts"]["operator"][f"{which}_template"] = template
    with pytest.raises(CatalogError) as loaded:
        registry_from_dict(data)
    assert match in str(loaded.value)
    prompts = bundled_catalog().prompts._replace(**{f"transport_{which}_template": template})
    with pytest.raises(CatalogError) as direct:
        Registry(modules=_absolute_modules(), prompts=prompts)
    assert str(loaded.value) == str(direct.value)


def test_registry_accepts_a_template_that_names_fewer_placeholders():
    """An output template may leave placeholders out, as long as its
    move_dock steps still name the start and target modules; a demand
    template may not, since the oracle reads each demand back through it."""
    data = _raw_catalog()
    data["prompts"]["operator"]["output_template"] = "Call {url_load}, then {{literally}} {url_unload}."
    with pytest.raises(CatalogError, match=r"do not dock at laser_module and then cnc_module \(they read \[\]\)"):
        registry_from_dict(data)
    step = '({n}) Go to the {{{where}}} module. Call the functionality "move_dock" using the URL "{{url_move_dock}}"'
    template = step.format(n=1, where="start") + "\n" + step.format(n=2, where="target") + ", then {{literally}} stop."
    data["prompts"]["operator"]["output_template"] = template
    registry = registry_from_dict(data)
    assert registry.prompts.transport_output_template.format(start="a", target="b", url_move_dock="u") == (
        '(1) Go to the a module. Call the functionality "move_dock" using the URL "u"\n'
        '(2) Go to the b module. Call the functionality "move_dock" using the URL "u", then {literally} stop.'
    )
    data["prompts"]["operator"]["demand_template"] = "(T1) Take it to the {target!s:>3} module."
    with pytest.raises(CatalogError, match="must name {start} and {target}"):
        registry_from_dict(data)


def _absolute_modules():
    """The bundled modules with the absolute URLs of the catalog file; a
    registry's own `modules` hold paths."""
    return items(_raw_catalog(), "modules", _load_module)


def test_registry_built_directly_is_checked(registry):
    modules = _absolute_modules()
    assert Registry(modules=modules, prompts=registry.prompts).modules == registry.modules
    with pytest.raises(CatalogError, match="duplicate module id 'storage_module'"):
        Registry(modules=modules + (modules[1],), prompts=registry.prompts)
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
