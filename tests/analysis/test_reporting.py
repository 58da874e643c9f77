"""Report rendering (ASCII and Markdown)."""

from repro.analysis.experiments import ExperimentResult
from repro.analysis.reporting import (format_result, format_rows,
                                      write_markdown_table)


def sample_result() -> ExperimentResult:
    return ExperimentResult(
        experiment="demo",
        title="Demo table",
        headers=["benchmark", "speedup"],
        rows=[{"benchmark": "grover_8", "speedup": 2.5},
              {"benchmark": "average", "speedup": None}],
        notes="a note",
    )


class TestAsciiTable:
    def test_contains_headers_and_cells(self):
        text = format_rows(["a", "b"], [{"a": 1, "b": "x"}])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "-" in lines[1]
        assert "1" in lines[2] and "x" in lines[2]

    def test_none_rendered_as_dash(self):
        text = format_rows(["v"], [{"v": None}])
        assert "-" in text.splitlines()[-1]

    def test_empty_rows(self):
        text = format_rows(["col"], [])
        assert "col" in text

    def test_format_result_includes_notes(self):
        text = format_result(sample_result())
        assert "Demo table" in text
        assert "note: a note" in text
        assert "grover_8" in text


class TestMarkdown:
    def test_markdown_table_shape(self):
        text = write_markdown_table(sample_result())
        lines = text.splitlines()
        assert lines[0].startswith("### Demo table")
        assert lines[2].startswith("| benchmark | speedup |")
        assert lines[3].startswith("|---")
        assert "| grover_8 | 2.5 |" in text

    def test_markdown_notes_italicised(self):
        assert "*a note*" in write_markdown_table(sample_result())


def test_cli_main_runs_quick_fig5(capsys):
    from repro.__main__ import main

    assert main(["experiments", "fig5"]) == 0
    output = capsys.readouterr().out
    assert "Fig. 5" in output
    assert "nodes" in output


def test_cli_markdown_flag(capsys):
    from repro.__main__ import main

    assert main(["experiments", "fig5", "--markdown"]) == 0
    assert "###" in capsys.readouterr().out
