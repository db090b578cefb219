"""The README's command block: each '$' line, run under bash as written,
prints exactly the lines the README shows after it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_commands():
    """(command, expected stdout) of each '$' line in the README's first
    fenced block after '## Commands'."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Commands", 1)[1].split("```\n", 2)[1]
    cases = []
    for line in block.splitlines():
        if line.startswith("$ "):
            cases.append((line[2:], []))
        else:
            cases[-1][1].append(line + "\n")
    return [(command, "".join(out)) for command, out in cases]


def test_readme_commands_print_what_the_readme_shows(tmp_path):
    # the commands run from a directory that looks like a checkout's root:
    # src is the package's sources, python the interpreter running the suite,
    # and k4.dimacs the output of gen complete --k 4
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    (tmp_path / "bin").mkdir()
    (tmp_path / "bin" / "python").symlink_to(sys.executable)
    env = {**os.environ, "PATH": f"{tmp_path / 'bin'}{os.pathsep}{os.environ.get('PATH', '')}"}
    env.pop("PYTHONPATH", None)
    k4 = subprocess.run([sys.executable, "-m", "tfcolor.cli", "gen", "complete", "--k", "4"], cwd=tmp_path,
                        env={**env, "PYTHONPATH": "src"}, capture_output=True, text=True, check=True).stdout
    (tmp_path / "k4.dimacs").write_text(k4, encoding="utf-8")
    cases = readme_commands()
    assert len(cases) == 6
    got = {command: subprocess.run(["bash", "-c", command], cwd=tmp_path, env=env, capture_output=True,
                                   text=True).stdout for command, _ in cases}
    assert got == dict(cases)
