"""Turn a finished run into report lines and the JSON result object."""

from __future__ import annotations

from perfbench.bench import END_TO_END, EXTRA_UNITS, PER_LAYER


def render(run) -> tuple:
    """``(lines, result)`` for a finished :class:`~perfbench.bench.Run`."""
    units = dict(END_TO_END)
    units.update(EXTRA_UNITS)
    units.update(PER_LAYER)
    spec = run.spec
    lines = [
        f"workload {spec.name} seed {run.seed} seconds {run.seconds:g} trace {int(run.trace)}"
        f" codec {spec.codec} trust {spec.trust_model}"
        f"{'+collusion' if spec.collusion else ''} open_rate {spec.open_rate:g}/s",
    ]
    if not run.trace:
        lines.append("setup runs (s): " + " ".join(f"{v:.3f}" for v in run.setup_durations))
    lines.extend(run.report)
    for name in list(units):
        if name not in run.metrics:
            continue
        value, count = run.metrics[name]
        shown = "unsupported" if value is None else f"{value:.6g}"
        lines.append(f"metric {name} = {shown} {units[name]} (n={count})")
    if run.vendor_score_defects:
        lines.append(
            f"known failing check: {run.vendor_score_defects} of {run.checked} sweep answers"
            " differ from the model in vendor_score alone (stale: the response cache is"
            " keyed on the digest's own score version; torn: the vendor walk reads sibling"
            " scores while votes land); owned by the vendor-sums item")
    if run.wrong:
        lines.append(f"FAILED check: {run.wrong} of {run.checked} sweep answers disagree"
                     " with the model beyond the known vendor_score defect")
    chosen = PER_LAYER if run.trace else END_TO_END
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": run.metrics[name][0], "unit": unit} for name, unit in chosen
        },
    }
    return lines, result
