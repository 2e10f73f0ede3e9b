"""Figure scenarios — the paper's structural drawings rendered from the
live models.

The figures carry no simulated numbers; their :class:`ScenarioResult`
uses the ``text`` artifact field, and each body checks that the rendered
art shows what the paper's drawing shows.
"""

from __future__ import annotations

from ..bitstream.busmacro import BusMacro, MacroKind
from ..core.floorplan import (
    render_bus_macro,
    render_generic_architecture,
    render_system_floorplan,
)
from .registry import scenario
from .result import ScenarioResult, require
from .rigs import build_rig32, build_rig64


def _require_shown(art: str, figure: str, *labels: str) -> None:
    missing = [label for label in labels if label not in art]
    require(not missing, f"{figure}: the drawing must show {missing}")


@scenario(
    "fig1_generic_architecture",
    title="Figure 1: generic platform architecture",
    tags=("figure",),
)
def fig1_generic_architecture() -> ScenarioResult:
    art = render_generic_architecture()
    _require_shown(art, "Figure 1", "CPU", "memory interface", "configuration",
                   "external comm", "dynamic")
    return ScenarioResult(
        name="fig1_generic_architecture",
        title="Figure 1: generic platform architecture",
        text=art,
    )


@scenario(
    "fig2_bus_macros",
    title="Figure 2: LUT-based bus macros",
    tags=("figure",),
    params={"width": 2},
)
def fig2_bus_macros(width: int) -> ScenarioResult:
    macro = BusMacro("figure2", MacroKind.LUT, width=width)
    art = render_bus_macro(macro)
    # The figure's signals: In(i) leave component A, Out(i) enter B.
    signals = [f"{port}({i})" for i in range(width) for port in ("In", "Out")]
    _require_shown(art, "Figure 2", *signals, "designed separately")
    return ScenarioResult(
        name="fig2_bus_macros",
        title="Figure 2: LUT-based bus macros",
        text=art,
    )


@scenario(
    "fig3_system32_floorplan",
    title="Figure 3: 32-bit system floorplan",
    tags=("figure", "system32"),
)
def fig3_system32_floorplan() -> ScenarioResult:
    system, _ = build_rig32()
    art = render_system_floorplan(system)
    _require_shown(art, "Figure 3", "XC2VP7", "CPU 200 MHz", "OpbDock", "DYNAMIC AREA 28x11")
    return ScenarioResult(
        name="fig3_system32_floorplan",
        title="Figure 3: 32-bit system floorplan",
        text=art,
    )


@scenario(
    "fig4_system64_floorplan",
    title="Figure 4: 64-bit system floorplan",
    tags=("figure", "system64"),
)
def fig4_system64_floorplan() -> ScenarioResult:
    system, _ = build_rig64()
    art = render_system_floorplan(system)
    _require_shown(art, "Figure 4", "XC2VP30", "CPU 300 MHz", "PlbDock", "DYNAMIC AREA 32x24")
    return ScenarioResult(
        name="fig4_system64_floorplan",
        title="Figure 4: 64-bit system floorplan",
        text=art,
    )
