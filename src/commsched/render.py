"""Static Gantt-style SVG rendering for schedules and execution traces.

Pure text assembly: identical input yields byte-identical SVG.
"""

from __future__ import annotations

from .distsim import trace_from_text
from .model import schedule_from_text
from .solver import result_from_text

CELL_W = 42
ROW_H = 40
LEFT = 130
TOP = 28

PALETTE = {
    "capture": "#8da0cb",
    "localize": "#66c2a5",
    "plan": "#a6d854",
    "drive": "#ffd92f",
    "collect": "#fc8d62",
    "analyze": "#e78ac3",
    "store": "#b3b3b3",
}
DEFAULT_COLOR = "#cbd5e1"


def _color(task: str) -> str:
    return PALETTE.get(task.split("_", 1)[0], DEFAULT_COLOR)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def _grid(agents: list[str], steps: int, body: list[str]):
    for row, agent in enumerate(agents):
        y = TOP + row * ROW_H
        body.append(
            f'<text x="4" y="{y + ROW_H // 2 + 4}" fill="#111">{_esc(agent)}</text>'
        )
        body.append(
            f'<rect x="{LEFT}" y="{y}" width="{steps * CELL_W}" height="{ROW_H - 6}" '
            f'fill="none" stroke="#e2e8f0"/>'
        )
    for k in range(steps + 1):
        x = LEFT + k * CELL_W
        body.append(
            f'<line x1="{x}" y1="{TOP - 6}" x2="{x}" y2="{TOP + len(agents) * ROW_H - 6}" '
            f'stroke="#f1f5f9"/>'
        )
        if k < steps:
            body.append(f'<text x="{x + 2}" y="{TOP - 10}" fill="#64748b">{k}</text>')


def render_schedule_svg(text: str) -> str:
    """Gantt chart for a result or schedule file, read with `result_from_text`
    or `schedule_from_text`: one row per agent, computation blocks plus
    communication arrows between rows."""
    s = result_from_text(text).incumbent if text.startswith("RESULT") else schedule_from_text(text)
    placements = sorted((p.agent, p.task, p.start, max(p.duration or 1, 1)) for p in s.placements)
    comms = sorted((c.src, c.dst, c.task, c.start, c.end) for c in s.comms)
    agents = sorted({pl[0] for pl in placements} | {c[0] for c in comms} | {c[1] for c in comms})
    steps = max([1] + [start + dur for _, _, start, dur in placements] + [c[4] + 1 for c in comms])
    body: list[str] = []
    _grid(agents, steps, body)
    row_of = {a: i for i, a in enumerate(agents)}
    for agent, task, start, dur in placements:
        x = LEFT + start * CELL_W
        y = TOP + row_of[agent] * ROW_H
        w = dur * CELL_W
        body.append(
            f'<rect x="{x}" y="{y + 2}" width="{w}" height="{ROW_H - 12}" '
            f'fill="{_color(task)}" stroke="#334155"/>'
        )
        body.append(f'<text x="{x + 3}" y="{y + ROW_H // 2}" fill="#111">{_esc(task)}</text>')
    for src, dst, task, start, end in comms:
        x1 = LEFT + start * CELL_W + 4
        x2 = LEFT + (end + 1) * CELL_W - 4
        y1 = TOP + row_of[src] * ROW_H + ROW_H // 2 - 4
        y2 = TOP + row_of[dst] * ROW_H + ROW_H // 2 - 4
        body.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#0f172a" '
            f'stroke-dasharray="4 2" marker-end="url(#arrow)"/>'
        )
        body.append(
            f'<text x="{(x1 + x2) // 2}" y="{(y1 + y2) // 2 - 4}" fill="#0f172a">'
            f'{_esc(task)}</text>'
        )
    defs = (
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#0f172a"/></marker></defs>'
    )
    body.insert(0, defs)
    body.append(
        f'<text x="{LEFT}" y="{TOP + len(agents) * ROW_H + 12}" fill="#334155">'
        f"makespan={s.makespan_steps} value={s.objective_value}</text>"
    )
    width = LEFT + steps * CELL_W + 20
    height = TOP + len(agents) * ROW_H + 30
    return _svg(width, height, body)


def render_trace_svg(text: str) -> str:
    """Timeline of executed tasks and delivered transfers, cycle by cycle.

    `text` is read with `distsim.trace_from_text`, so text that is not a
    trace raises a ValueError.
    """
    trace = trace_from_text(text)
    rows: set[str] = set()
    cycles: dict[int, int] = {}
    done = []
    delivered = []
    for r in trace.select(event="task_done"):
        kv = r.fields()
        start, end = int(kv["start"]), int(kv["end"])
        done.append((r.cycle, r.agent, kv["task"], start, end))
        rows.add(r.agent)
        cycles[r.cycle] = max(cycles.get(r.cycle, 0), end + 1)
    for r in trace.select(event="comm_delivered"):
        kv = r.fields()
        start, end = int(kv["start"]), int(kv["end"])
        delivered.append((r.cycle, r.agent, kv["dst"], kv["task"], start, end))
        rows.update((r.agent, kv["dst"]))
        cycles[r.cycle] = max(cycles.get(r.cycle, 0), end + 1)
    agents = sorted(rows)
    offsets: dict[int, int] = {}
    x = 0
    for cycle in sorted(cycles):
        offsets[cycle] = x
        x += cycles[cycle] + 1
    total_steps = max(x, 1)
    body: list[str] = []
    _grid(agents, total_steps, body)
    row_of = {a: i for i, a in enumerate(agents)}
    for cycle in sorted(cycles):
        cx = LEFT + offsets[cycle] * CELL_W
        body.append(
            f'<text x="{cx}" y="{TOP + len(agents) * ROW_H + 12}" fill="#334155">'
            f"cycle {cycle}</text>"
        )
    for cycle, agent, task, start, end in sorted(done):
        x0 = LEFT + (offsets[cycle] + start) * CELL_W
        y = TOP + row_of[agent] * ROW_H
        w = (end - start + 1) * CELL_W
        body.append(
            f'<rect x="{x0}" y="{y + 2}" width="{w}" height="{ROW_H - 12}" '
            f'fill="{_color(task)}" stroke="#334155"/>'
        )
        body.append(f'<text x="{x0 + 3}" y="{y + ROW_H // 2}" fill="#111">{_esc(task)}</text>')
    for cycle, src, dst, task, start, end in sorted(delivered):
        x1 = LEFT + (offsets[cycle] + start) * CELL_W + 4
        x2 = LEFT + (offsets[cycle] + end + 1) * CELL_W - 4
        y1 = TOP + row_of[src] * ROW_H + ROW_H // 2 - 4
        y2 = TOP + row_of[dst] * ROW_H + ROW_H // 2 - 4
        body.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#0f172a" '
            f'stroke-dasharray="4 2"/>'
        )
        body.append(
            f'<text x="{(x1 + x2) // 2}" y="{(y1 + y2) // 2 - 4}" fill="#0f172a">'
            f"{_esc(task)}</text>"
        )
    width = LEFT + total_steps * CELL_W + 20
    height = TOP + max(len(agents), 1) * ROW_H + 30
    return _svg(width, height, body)
