"""The ``reprolint`` CLI: formats, exit codes, pragmas, explain pages."""

import json
import pathlib

import pytest

from repro.devtools.lint import main
from repro.devtools.rules import all_rules
from repro.io.json_io import canonical_json

VIOLATION = "import time\n\n\ndef stamp():\n    return time.time()\n"
CLEAN = "def stamp():\n    return 0.0\n"

RULE_IDS = ["RL001", "RL002", "RL003", "RL004", "RL005", "RL006"]


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(CLEAN)
        assert main([str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one_and_names_the_rule(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(VIOLATION)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "RL003" in out
        assert f"{path.name}:5:" in out

    def test_violation_under_its_pragma_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(
            VIOLATION.replace(
                "time.time()", "time.time()  # reprolint: ignore[RL003]"
            )
        )
        assert main([str(path)]) == 0
        assert "0 finding(s), 1 suppressed" in capsys.readouterr().out

    def test_unparseable_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("def broken(:\n")
        assert main([str(path)]) == 1
        assert "RL000" in capsys.readouterr().out


class TestSourceTree:
    def test_src_is_clean_and_every_exception_carries_a_pragma(self, capsys):
        # The CI gate has no baseline: any finding under src fails it, and
        # each accepted exception is one of the six inline pragma sites.
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        assert main([str(src)]) == 0
        assert "0 finding(s), 6 suppressed" in capsys.readouterr().out


class TestJsonReport:
    """Schema stability of ``--format=json`` (reprolint-report-v2)."""

    def _report(self, tmp_path, capsys, source=VIOLATION):
        path = tmp_path / "mod.py"
        path.write_text(source)
        code = main([str(path), "--format", "json"])
        return code, capsys.readouterr().out

    def test_schema_fields(self, tmp_path, capsys):
        code, out = self._report(tmp_path, capsys)
        payload = json.loads(out)
        assert code == 1
        assert payload["format"] == "reprolint-report-v2"
        assert set(payload) == {"format", "files", "suppressed", "findings"}
        assert (payload["files"], payload["suppressed"]) == (1, 0)
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert finding["rule"] == "RL003"

    def test_report_bytes_are_canonical(self, tmp_path, capsys):
        _, out = self._report(tmp_path, capsys)
        assert out == canonical_json(json.loads(out)) + "\n"


class TestDocsSurface:
    def test_list_rules_names_the_full_registry(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_explain_renders_every_rule_page(self, rule_id, capsys):
        assert main(["--explain", rule_id]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{rule_id} — ")
        assert len(out.splitlines()) > 3  # a real page, not a stub

    def test_explain_is_case_insensitive(self, capsys):
        assert main(["--explain", "rl003"]) == 0
        assert "RL003" in capsys.readouterr().out

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert main(["--explain", "RL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_every_rule_has_a_substantive_docstring(self):
        for rule in all_rules():
            assert rule.__doc__ and len(rule.__doc__.split()) > 30, rule.id
