"""What the README shows works as shown: each line of its CLI block runs, and
each in-page link names one of its headings. (The key table and the
Library-use block have their own tests, in test_keys.py and test_columns.py.)"""
import csv
import json
import os
import re
import shlex
import subprocess
from pathlib import Path

from specgame.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_block() -> list:
    """The lines of the README's CLI code block."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def test_each_line_of_the_readme_cli_block_runs(tmp_path, monkeypatch):
    # through the installed script when SPECGAME_SCRIPT names it, without src
    # on the path; through cli.main otherwise
    monkeypatch.chdir(tmp_path)
    script = os.environ.get("SPECGAME_SCRIPT")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    for line in cli_block():
        words = shlex.split(line)
        if words[0] == "echo":  # echo TEXT > FILE writes a config the next lines read
            _, text, redirect, path = words
            assert redirect == ">", line
            Path(path).write_text(text + "\n")
            continue
        assert words[0] == "specgame", line
        if script:
            proc = subprocess.run([script, *words[1:]], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, (line, proc.stderr)
        else:
            assert main(words[1:]) == 0, line
    with open("out/region/region.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 4 * 3 * 6
    # the config example is a small Monte Carlo run, not the 3000 m default
    config = json.loads(Path("out/mc/run-manifest.json").read_text())["config"]
    assert (config["mode"], config["region_side"], config["steps"], config["seed"]) == ("montecarlo", 800.0, 60, 7)
    assert Path("out/fig3/plot/pr_sinr_db.dat").read_text().count("\n") == 150


def slug(heading: str) -> str:
    """GitHub's anchor for a heading: lower case, punctuation dropped, spaces as hyphens."""
    return re.sub(r"[^\w\- ]", "", heading.strip().lower()).replace(" ", "-")


def test_each_in_page_link_of_the_readme_names_a_heading():
    text = README.read_text()
    anchors, fenced = set(), False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and (heading := re.match(r"#{1,6} (.+)", line)):
            anchors.add(slug(heading[1]))
    links = re.findall(r"\]\(#([^)]*)\)", text)
    assert links and sorted(set(links) - anchors) == []
