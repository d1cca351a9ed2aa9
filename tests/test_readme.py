"""README's python examples run as written, its config block parses, every
line of its policy assignment grammar builds a PolicyMap, and its opening
paragraph names the action vocabulary."""

import re
from pathlib import Path

from gridarena.actions import ACTION_TYPES
from gridarena.core import VARIANT_SEXUAL_SELECTION, GameConfig, new_game
from gridarena.harness import build_policy_map
from gridarena.policy import SCRIPTED_POLICIES, Policy, PolicyMap

from conftest import gateway_config, small_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def readme_section(title):
    """A README section's text and its first plain code block."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"## {title}", 1)[1].split("\n## ", 1)[0]
    return section, re.search(r"```\n(.*?)```", section, re.S).group(1)


def test_readme_config_block_parses():
    assert GameConfig.from_flat_text(readme_section("Configuration")[1]).upkeep == 2


def grammar_section():
    section, block = readme_section("Policy assignment grammar")
    names = re.search(r"Scripted names: (.*?)\.", section, re.S).group(1)
    return [line.split()[0] for line in block.splitlines()], re.findall(r"`(\w+)`", names)


def test_readme_grammar_lines_build_policy_maps(stub_gateway):
    forms, names = grammar_section()
    assert sorted(names) == sorted(SCRIPTED_POLICIES)
    assert len(forms) == 4
    for form in forms:
        for assignment in ([form.replace("<name>", n) for n in names]
                           if "<name>" in form else [form]):
            config = small_config(n_agents=8, engine_variant=VARIANT_SEXUAL_SELECTION
                                  if assignment.startswith("byrole:") else "survival")
            policy_map = build_policy_map(assignment, config, gateway_config(stub_gateway))
            assert isinstance(policy_map, PolicyMap), assignment
            for agent in new_game(config).agents.values():
                assert isinstance(policy_map.policy_for(agent), Policy), assignment


def test_readme_names_every_action_kind():
    opening = README.read_text(encoding="utf-8").split("\n\n", 2)[1]
    vocabulary = re.search(r"action vocabulary\s*\((.*?)\)", opening, re.S).group(1)
    assert sorted(re.findall(r"\b[A-Z]+\b", vocabulary)) == sorted(ACTION_TYPES)
